"""A dense reference for the oracle, in plain numpy.

Every function takes the n x n standard-coordinate matrix
M = D^(1/2) A D^(-1/2) of an operator A on L2(mu), D = diag(mu), made by
``standard`` from A's value-coordinate entries and the weights. On it the
weighted adjoint is M^H and the L2(mu) operator norm is the spectral norm,
so every quantity is one numpy routine on one matrix, with no blocks and
no closed form. This module imports nothing from condexp: tests reach it
through an operator's ``entries`` and its space's ``weights``.
"""

import numpy as np

#: a singular value counts as zero at or below this times the largest
RANK_TOL = 1e-10
#: two null spaces meet when their smallest principal angle is below this
PRINCIPAL_ANGLE_TOL = 1e-6


def standard(entries, weights) -> np.ndarray:
    """D^(1/2) A D^(-1/2) of the value-coordinate matrix A."""
    d = np.sqrt(np.asarray(weights, dtype=float))
    return d[:, None] * np.asarray(entries, dtype=complex) / d[None, :]


def norm(m) -> float:
    """The spectral norm of m."""
    return float(np.linalg.svd(m, compute_uv=False).max(initial=0.0))


def factors(m) -> tuple:
    """(X, s, Y) of the SVD m = X diag(s) Y^H, cut at RANK_TOL times the
    largest singular value."""
    u, s, vh = np.linalg.svd(m)
    rank = int(np.count_nonzero(s > RANK_TOL * s.max(initial=0.0)))
    return u[:, :rank], s[:rank], vh[:rank].conj().T


def gram_power(m, p: float) -> np.ndarray:
    """(M^H M)^p = Y diag(s^(2p)) Y^H; p = 1/2 is |M|."""
    _, s, y = factors(m)
    return (y * s ** (2 * p)) @ y.conj().T


def polar_isometry(m) -> np.ndarray:
    """The partial isometry U = X Y^H of M = U |M|, zero on the kernel."""
    x, _, y = factors(m)
    return x @ y.conj().T


def aluthge(m) -> np.ndarray:
    """|M|^(1/2) U |M|^(1/2) = Y diag(s^(1/2)) (Y^H X) diag(s^(1/2)) Y^H."""
    x, s, y = factors(m)
    root = np.sqrt(s)
    return ((y * root) @ (y.conj().T @ x) * root) @ y.conj().T


def kernel_projection(m) -> np.ndarray:
    """The orthogonal projection I - Y Y^H onto the null space of m."""
    _, _, y = factors(m)
    return np.eye(len(m)) - y @ y.conj().T


def eigenvalues(m) -> np.ndarray:
    """The n eigenvalues: those of the rank-r core (Y^H X) diag(s), then
    n - r exact zeros. Plain eigvals of m would spread a defective zero by
    about sqrt(eps) ||m||."""
    x, s, y = factors(m)
    return np.concatenate([np.linalg.eigvals((y.conj().T @ x) * s), np.zeros(len(m) - s.size)])


def loewner_margins(a, b) -> tuple:
    """(asymmetry, scale, smallest, largest modulus) of D = a - b: the
    largest entry of D - D^H, 1 + the largest entry of D, and the smallest
    and the largest modulus of the eigenvalues of (D + D^H) / 2."""
    d = a - b
    dh = d.conj().T
    evals = np.linalg.eigvalsh(0.5 * (d + dh))
    return (
        float(np.abs(d - dh).max(initial=0.0)),
        1.0 + float(np.abs(d).max(initial=0.0)),
        float(evals.min(initial=0.0)),
        float(np.abs(evals).max(initial=0.0)),
    )


def loewner_geq(margins: tuple, tol: float) -> bool:
    """a >= b to ``tol``, on the margins of ``loewner_margins(a, b)``: D is
    self-adjoint and positive semidefinite to tolerance."""
    asymmetry, scale, smallest, largest = margins
    return asymmetry <= tol * scale and smallest >= -tol * (1.0 + largest)


def class_margins(m) -> tuple:
    """The margins of |M^2| >= |M|^2 (A), |M^2| >= |M^H|^2 (*-A) and
    M^H |M^2| M >= M^H |M^H|^2 M (quasi-*-A), of the composed matrices."""
    mh = m.conj().T
    mod_square, mod_sq, adjoint_sq = gram_power(m @ m, 0.5), gram_power(m, 1.0), gram_power(mh, 1.0)
    return (
        loewner_margins(mod_square, mod_sq),
        loewner_margins(mod_square, adjoint_sq),
        loewner_margins(mh @ mod_square @ m, mh @ adjoint_sq @ m),
    )


def is_normal(m, tol: float) -> bool:
    """||M M^H - M^H M|| <= tol (1 + ||M||^2)."""
    mh = m.conj().T
    commutator = np.abs(np.linalg.eigvalsh(m @ mh - mh @ m)).max(initial=0.0)
    return bool(commutator <= tol * (1.0 + norm(m) ** 2))


def joint_point_spectrum(m, candidates, cutoff: float) -> list:
    """The candidates lambda at which null(M - lambda I) and
    null(M^H - conj(lambda) I) meet, their smallest principal angle below
    PRINCIPAL_ANGLE_TOL: both from one SVD of M - lambda I, the right and
    the left singular vectors of the values at most ``cutoff``."""
    joint = []
    for lam in candidates:
        u, s, vh = np.linalg.svd(m - lam * np.eye(len(m)))
        null = s <= cutoff
        right, left = vh[null].conj().T, u[:, null]
        cosine = np.linalg.svd(right.conj().T @ left, compute_uv=False).max(initial=0.0)
        if np.arccos(min(cosine, 1.0)) < PRINCIPAL_ANGLE_TOL:
            joint.append(lam)
    return joint
