"""Dense operators on the weighted L2 space and the numerical oracle.

An operator is stored as the matrix acting on value vectors. The Hilbert
structure is the weighted inner product, so the adjoint is the diagonal
similarity D^-1 A^H D with D = diag(mu). All spectral computations conjugate
by D^(1/2), which turns the weighted space into standard C^n and lets the
dense LAPACK routines apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure_space import (
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
    _frozen_array,
)

#: relative cutoff below which a singular value counts as zero (rank decisions)
DEFAULT_RANK_TOL = 1e-10
#: relative floor under which an eigenvalue of a PSD operator is an exact zero
EIGEN_ZERO_TOL = 1e-12
#: default tolerance for boolean operator predicates
DEFAULT_OP_TOL = 1e-9


class SolverError(RuntimeError):
    """Raised when a dense eigenvalue/SVD routine fails to converge."""


@dataclass(frozen=True)
class WeightedOperator:
    """A linear operator on L2(mu), stored as its matrix on value vectors."""

    entries: np.ndarray
    space: FiniteMeasureSpace

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        n = self.space.point_count
        if m.shape != (n, n):
            raise ValueError(f"entries must be a {n}x{n} matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", _frozen_array(m, complex))

    @staticmethod
    def identity(space: FiniteMeasureSpace) -> "WeightedOperator":
        return WeightedOperator(np.eye(space.point_count), space)

    @staticmethod
    def zero(space: FiniteMeasureSpace) -> "WeightedOperator":
        return WeightedOperator(np.zeros((space.point_count,) * 2), space)


@dataclass(frozen=True)
class PolarParts:
    """The polar factors T = U |T| with the kernel condition N(U) = N(|T|)."""

    isometry_part: WeightedOperator
    modulus_part: WeightedOperator


def multiplication_operator(
    space: FiniteMeasureSpace, symbol: MeasurableFunction
) -> WeightedOperator:
    """The diagonal operator f -> symbol * f."""
    return WeightedOperator(np.diag(symbol.values), space)


def expectation_operator(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra
) -> WeightedOperator:
    """The matrix of the conditional expectation (block-averaging) projection."""
    n = space.point_count
    mu = space.weights
    mat = np.zeros((n, n), dtype=complex)
    for b in algebra.blocks:
        mass = mu[b].sum()
        mat[np.ix_(b, b)] = mu[b][None, :] / mass
    return WeightedOperator(mat, space)


def _check_space(a: WeightedOperator, b) -> None:
    if a.space.point_count != getattr(b, "space").point_count or not np.array_equal(
        a.space.weights, b.space.weights
    ):
        raise ValueError("operands live on different spaces")


def _sqrt_weights(space: FiniteMeasureSpace) -> np.ndarray:
    return np.sqrt(space.weights)


def _to_standard(T: WeightedOperator) -> np.ndarray:
    """Conjugate by D^(1/2): the returned matrix acts on standard C^n and is
    unitarily equivalent to T."""
    d = _sqrt_weights(T.space)
    return (d[:, None] * T.entries) / d[None, :]


def _from_standard(mat: np.ndarray, space: FiniteMeasureSpace) -> WeightedOperator:
    d = _sqrt_weights(space)
    return WeightedOperator((mat / d[:, None]) * d[None, :], space)


def apply(T: WeightedOperator, f: MeasurableFunction) -> MeasurableFunction:
    _check_space(T, f)
    return MeasurableFunction(T.entries @ f.values, T.space)


def adjoint(T: WeightedOperator) -> WeightedOperator:
    """The unique T* with <Tf, g> = <f, T*g> for the weighted inner product."""
    mu = T.space.weights
    return WeightedOperator((T.entries.conj().T * mu[None, :]) / mu[:, None], T.space)


def compose(A: WeightedOperator, B: WeightedOperator) -> WeightedOperator:
    _check_space(A, B)
    return WeightedOperator(A.entries @ B.entries, A.space)


def subtract(A: WeightedOperator, B: WeightedOperator) -> WeightedOperator:
    _check_space(A, B)
    return WeightedOperator(A.entries - B.entries, A.space)


def eigenvalues(T: WeightedOperator) -> np.ndarray:
    """All n eigenvalues with multiplicity (unordered multiset)."""
    try:
        return np.linalg.eigvals(_to_standard(T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"eigenvalue iteration did not converge: {exc}") from exc


def _svd(T: WeightedOperator):
    try:
        return np.linalg.svd(_to_standard(T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"SVD did not converge: {exc}") from exc


def singular_values(T: WeightedOperator) -> np.ndarray:
    """Descending singular values; the largest is the operator norm on L2(mu)."""
    return _svd(T)[1]


def operator_norm(T: WeightedOperator) -> float:
    return float(singular_values(T)[0])


def _hermitian_part(T: WeightedOperator) -> np.ndarray:
    s = _to_standard(T)
    return 0.5 * (s + s.conj().T)


def is_hermitian(T: WeightedOperator, tol: float = DEFAULT_OP_TOL) -> bool:
    s = _to_standard(T)
    scale_ = 1.0 + np.abs(s).max(initial=0.0)
    return bool(np.abs(s - s.conj().T).max(initial=0.0) <= tol * scale_)


def loewner_geq(
    A: WeightedOperator, B: WeightedOperator, tol: float = DEFAULT_OP_TOL
) -> bool:
    """A >= B in the Loewner order: A - B self-adjoint and PSD (to tolerance)."""
    _check_space(A, B)
    diff = subtract(A, B)
    if not is_hermitian(diff, tol):
        return False
    evals = np.linalg.eigvalsh(_hermitian_part(diff))
    norm = np.abs(evals).max(initial=0.0)
    return bool(evals.min(initial=0.0) >= -tol * (1.0 + norm))


def fractional_power(
    A: WeightedOperator, p: float, tol: float = DEFAULT_OP_TOL
) -> WeightedOperator:
    """Spectral calculus A^p for self-adjoint PSD A (weighted inner product).

    Eigenvalues in [-tol*scale, 0) are clamped to 0; more negative ones are an
    error because A is then not PSD.
    """
    if p <= 0:
        raise ValueError("power must be positive")
    if not is_hermitian(A, tol):
        raise ValueError("operator is not self-adjoint to tolerance")
    s = _hermitian_part(A)
    try:
        evals, evecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"eigh did not converge: {exc}") from exc
    scale_ = 1.0 + np.abs(evals).max(initial=0.0)
    if evals.min(initial=0.0) < -tol * scale_:
        raise ValueError("operator is not positive semidefinite to tolerance")
    # eigenvalues at rounding-noise level are exact zeros; powers p < 1 would
    # otherwise amplify them (eps -> eps^p)
    clamped = np.where(evals > EIGEN_ZERO_TOL * scale_, evals, 0.0)
    powered = (evecs * clamped**p) @ evecs.conj().T
    return _from_standard(powered, A.space)


def modulus(T: WeightedOperator) -> WeightedOperator:
    """|T| = (T* T)^(1/2), computed from the SVD for stability."""
    _, s, vh = _svd(T)
    return _from_standard((vh.conj().T * s) @ vh, T.space)


def polar_decompose_numeric(
    T: WeightedOperator, tol: float = DEFAULT_RANK_TOL
) -> PolarParts:
    """Polar factors with the kernel condition: U is T|T|^-1 on range(|T|)
    and 0 on kernel(|T|), so N(U) = N(|T|)."""
    u, s, vh = _svd(T)
    cutoff = tol * s.max(initial=0.0)
    rank = int(np.sum(s > cutoff))
    mod_std = (vh.conj().T * s) @ vh
    iso_std = u[:, :rank] @ vh[:rank, :]
    return PolarParts(
        isometry_part=_from_standard(iso_std, T.space),
        modulus_part=_from_standard(mod_std, T.space),
    )


def is_partial_isometry(U: WeightedOperator, tol: float = DEFAULT_OP_TOL) -> bool:
    """True iff U U* U = U up to tol (operator-norm residual)."""
    resid = subtract(compose(compose(U, adjoint(U)), U), U)
    return operator_norm(resid) <= tol * (1.0 + operator_norm(U))


def aluthge_numeric(T: WeightedOperator, tol: float = DEFAULT_RANK_TOL) -> WeightedOperator:
    """|T|^(1/2) U |T|^(1/2) from the numeric polar decomposition."""
    u, s, vh = _svd(T)
    cutoff = tol * s.max(initial=0.0)
    rank = int(np.sum(s > cutoff))
    # sqrt amplifies sub-cutoff noise (eps -> sqrt(eps)); treat it as zero
    s_clean = np.where(s > cutoff, s, 0.0)
    half = (vh.conj().T * np.sqrt(s_clean)) @ vh
    iso = u[:, :rank] @ vh[:rank, :]
    return _from_standard(half @ iso @ half, T.space)


def kernel(T: WeightedOperator, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Columns form a weighted-orthonormal basis of the numeric null space;
    shape (n, k) with k = 0 when T is injective."""
    _, s, vh = _svd(T)
    cutoff = tol * s.max(initial=0.0)
    rank = int(np.sum(s > cutoff))
    null_std = vh[rank:, :].conj().T
    d = _sqrt_weights(T.space)
    return null_std / d[:, None]


def is_normal(T: WeightedOperator, tol: float = DEFAULT_OP_TOL) -> bool:
    comm = subtract(compose(T, adjoint(T)), compose(adjoint(T), T))
    norm_t = operator_norm(T)
    return operator_norm(comm) <= tol * (1.0 + norm_t**2)
