"""Weighted conditional expectation operators on finite measure spaces.

Closed-form norm, polar decomposition, Aluthge transform, operator-class
membership and spectra of T = M_w E M_u, each cross-validated against a
numerical oracle on the weighted L2 space that reads every operator, rank
one on each atom of the partition, off its per-atom record.
"""

from .measure_space import (
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
    conditional_expectation,
    ess_range,
    ess_sup_norm,
    is_algebra_measurable,
    level_set,
    support,
)
from .operator_algebra import (
    SolverError,
    WeightedOperator,
    adjoint,
    aluthge_numeric,
    eigenvalues,
    expectation_operator,
    is_normal,
    operator_norm,
    singular_values,
)
from .wce_operator import (
    WCEOperator,
    adjoint_wce,
    aluthge_closed_form,
    build_wce,
    norm_closed_form,
    polar_isometry_closed_form,
    to_matrix,
    tstar_t_power,
)
from .operator_classes import (
    ClassVerdict,
    NormalityReport,
    a_class_criterion,
    a_class_pointwise,
    cauchy_schwarz_gap,
    is_a_class_definitional,
    is_quasi_star_a_definitional,
    is_star_a_definitional,
    normality_equivalence,
    quasi_star_a_criteria,
    star_a_criteria,
)
from .spectral_analysis import (
    JointSpectrumRangeReport,
    EMuPointSpectrumReport,
    JointSpectrumReport,
    SpectrumReport,
    joint_spectrum_range_check,
    em_u_point_spectrum,
    hausdorff_distance,
    joint_point_spectrum,
    sigma_p_equals_sigma_jp_check,
    spectral_radius_closed_form,
    spectrum_closed_form,
    spectrum_report,
)
from .instance_factory import (
    Instance,
    as_wce,
    fingerprint,
    product_space_example,
    proportional_instance,
    random_instance,
    symmetric_interval_example,
)

__version__ = "0.1.0"
