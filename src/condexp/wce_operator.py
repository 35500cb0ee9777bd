"""Weighted conditional expectation operators T = M_w E M_u and their
closed forms.

The T-side quantities (operator norm, powers of T*T, the partial isometry
U of the polar decomposition, Aluthge transform) are expressed directly in
the cached conditional moments E(u), E(w), E(uw), E(|u|^2), E(|w|^2); the
modulus |T| of T = U |T| is ``tstar_t_power(W, 0.5)``. Each closed-form
operator has the shape M_a E M_b, rank one on each atom, and is returned as
its pair (a, b): ``expectation_operator(W.space, W.algebra, *pair)`` is the
one way to build it as an operator, held as its unit lines and 1 x 1
cores on each atom, and this module builds no operator but T
(``to_matrix``). The family is closed under adjoints,
T* = M_conj(u) E M_conj(w), so this module states no adjoint-side form: the
powers of TT* and the polar isometry and Aluthge transform of T* are the
T-side forms applied to ``adjoint_wce(W)``, whose docstring writes them out
in W's moments. The moments are computed once at build time and never
recomputed, so every closed form shares one tolerance story. The supports
S, G and S' are read-only boolean masks on the points, and quotients are
cut to them: a factor whose denominator vanishes (below the support
tolerance) is 0 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measure_space import (
    DEFAULT_SUPPORT_TOL,
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
    _conditional_means,
    _finite_values,
    ess_sup_norm,
    support,
)
from .operator_algebra import WeightedOperator, expectation_operator


@dataclass(frozen=True)
class WCEOperator:
    """The symbolic quadruple (space, algebra, u, w) plus cached moments; the
    operator T itself is built on first use (``to_matrix``)."""

    space: FiniteMeasureSpace
    algebra: SubSigmaAlgebra
    u: MeasurableFunction
    w: MeasurableFunction
    e_u: MeasurableFunction
    e_w: MeasurableFunction
    e_uw: MeasurableFunction
    e_abs_u2: MeasurableFunction
    e_abs_w2: MeasurableFunction
    support_u2: np.ndarray  # S  = S(E(|u|^2)), a boolean mask
    support_w2: np.ndarray  # G  = S(E(|w|^2)), a boolean mask
    support_eu: np.ndarray  # S' = S(E(u)), a boolean mask
    support_tol: float

    @cached_property
    def _matrix(self) -> WeightedOperator:
        # built once: W is immutable, so every caller shares T, held as its
        # lines read off (w, u), and the factorizations the oracle memoizes on it
        return expectation_operator(
            self.space, self.algebra, self.w.values, self.u.values
        )

    def w_is_one(self, tol: float) -> bool:
        """w identically 1 to ``tol``: the hypothesis of the T = E M_u results."""
        return bool(np.abs(self.w.values - 1.0).max() <= tol)

    @cached_property
    def _adjoint(self) -> "WCEOperator":
        # built once, for every adjoint-side closed form: with u' = conj(w),
        # w' = conj(u), W's moments conjugated or swapped are a rebuild's to
        # the bit, but E(u'w') is taken afresh (conj E(uw) can differ in the
        # last bit: the products round in another order)
        u, w, e_u = self.w.conj(), self.u.conj(), self.e_w.conj()
        (e_uw,) = _conditional_means(self.space, self.algebra, _finite_values(u.values * w.values))
        return WCEOperator(
            self.space, self.algebra, u, w, e_u, self.e_u.conj(),
            e_uw=MeasurableFunction._of(e_uw, self.space),
            e_abs_u2=self.e_abs_w2, e_abs_w2=self.e_abs_u2,
            support_u2=self.support_w2, support_w2=self.support_u2,
            support_eu=support(e_u, self.support_tol), support_tol=self.support_tol,
        )


def build_wce(
    space: FiniteMeasureSpace,
    algebra: SubSigmaAlgebra,
    u: MeasurableFunction,
    w: MeasurableFunction,
    support_tol: float = DEFAULT_SUPPORT_TOL,
) -> WCEOperator:
    """Cache the five conditional moments, taken on arrays with one set of
    atom shares (``_conditional_means``), and three supports of T."""
    for f in (u, w):
        if f.space.point_count != space.point_count:
            raise ValueError("u and w must live on the given space")
    u_, w_ = u.values, w.values
    products = (_finite_values(x) for x in (u_ * w_, np.abs(u_) ** 2, np.abs(w_) ** 2))
    moments = _conditional_means(space, algebra, u_, w_, *products)
    e_u, e_w, e_uw, e_abs_u2, e_abs_w2 = (
        MeasurableFunction._of(np.asarray(m, dtype=complex), space) for m in moments
    )
    return WCEOperator(
        space=space,
        algebra=algebra,
        u=u,
        w=w,
        e_u=e_u,
        e_w=e_w,
        e_uw=e_uw,
        e_abs_u2=e_abs_u2,
        e_abs_w2=e_abs_w2,
        support_u2=support(e_abs_u2, support_tol),
        support_w2=support(e_abs_w2, support_tol),
        support_eu=support(e_u, support_tol),
        support_tol=support_tol,
    )


def _guarded_ratio(numer: np.ndarray, denom: np.ndarray, on: np.ndarray) -> np.ndarray:
    """numer/denom on the support mask ``on``, else 0."""
    out = np.zeros(denom.shape, np.result_type(numer, denom))
    return np.divide(numer, denom, out=out, where=on)


def to_matrix(W: WCEOperator) -> WeightedOperator:
    """The operator f -> w * E(u * f), built once per W; rank is at most the
    atom count."""
    return W._matrix


def norm_closed_form(W: WCEOperator) -> float:
    """||T|| = || (E|w|^2)^(1/2) (E|u|^2)^(1/2) ||_inf."""
    prod = W.e_abs_u2.values.real * W.e_abs_w2.values.real
    return float(np.sqrt(np.maximum(prod, 0.0).max()))


def tstar_t_power(W: WCEOperator, p: float) -> tuple:
    """The pair of (T*T)^p = M_{conj(u) (E|u|^2)^(p-1) chi_S (E|w|^2)^p} E M_u."""
    if p <= 0:
        raise ValueError("power must be positive")
    eu2 = W.e_abs_u2.values.real
    ew2 = W.e_abs_w2.values.real
    factor = np.zeros(W.space.point_count, dtype=complex)
    on = W.support_u2
    factor[on] = eu2[on] ** (p - 1.0) * np.maximum(ew2[on], 0.0) ** p
    return np.conj(W.u.values) * factor, W.u.values


def polar_isometry_closed_form(W: WCEOperator) -> tuple:
    """The pair of the partial isometry U of the polar decomposition
    T = U |T|, whose modulus |T| = (T*T)^(1/2) is ``tstar_t_power(W, 0.5)``:

    U f = (chi_{S and G} / (E|w|^2 E|u|^2))^(1/2) w E(u f)
    """
    s_and_g = W.support_u2 & W.support_w2
    ew2_eu2 = W.e_abs_w2.values.real * W.e_abs_u2.values.real
    iso_factor = np.sqrt(_guarded_ratio(1.0, ew2_eu2, s_and_g))
    return iso_factor * W.w.values, W.u.values


def aluthge_closed_form(W: WCEOperator) -> tuple:
    """The pair of the Aluthge transform:
    f -> (chi_S E(uw) / E|u|^2) conj(u) E(u f)."""
    factor = _guarded_ratio(W.e_uw.values, W.e_abs_u2.values.real, W.support_u2)
    return factor * np.conj(W.u.values), W.u.values


def adjoint_wce(W: WCEOperator) -> WCEOperator:
    """T* = M_conj(u) E M_conj(w): the quadruple with u' = conj(w), w' = conj(u),
    built once per W. Every T-side closed form of it is the adjoint-side
    form of W; in the original moments:

    (TT*)^p = M_{w (E|w|^2)^(p-1) chi_G (E|u|^2)^p} E M_conj(w)
    |T*| f = (E|u|^2 / E|w|^2)^(1/2) chi_G w E(conj(w) f)
    U*  f = (chi_{S and G} / (E|u|^2 E|w|^2))^(1/2) conj(u) E(conj(w) f)
    Aluthge(T*) f = (chi_G E(conj(uw)) / E|w|^2) w E(conj(w) f)
    """
    return W._adjoint


def spectral_radius_closed_form(W: WCEOperator) -> float:
    """r(T) = ||E(uw)||_inf."""
    return ess_sup_norm(W.e_uw)
