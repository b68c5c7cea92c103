"""Eigen-solving and time propagation for sparse Hamiltonians."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import expm_multiply

from .basis import RydbergBasis, StateDictionary, project_to_spin1
from .hamiltonians import SparseOperator

DENSE_DIM_LIMIT = 4096


class SolverError(RuntimeError):
    pass


class ConvergenceError(SolverError):
    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


def normalize(psi: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / nrm


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None   # columns, aligned with eigenvalues
    residuals: np.ndarray


def _residuals(h: SparseOperator, vals, vecs) -> np.ndarray:
    return np.array(
        [np.linalg.norm(h.matrix @ vecs[:, k] - vals[k] * vecs[:, k]) for k in range(len(vals))]
    )


def dense_eigs(h: SparseOperator, k: int | None = None, vectors: bool = True) -> SpectrumResult:
    """Lowest-k eigenpairs by dense diagonalization (oracle backend)."""
    if h.dim > DENSE_DIM_LIMIT:
        raise SolverError(f"dimension {h.dim} exceeds the dense limit {DENSE_DIM_LIMIT}")
    if k is None:
        k = h.dim
    dense = h.to_dense()
    if vectors:
        vals, vecs = sla.eigh(dense)
        vals, vecs = vals[:k], vecs[:, :k]
        return SpectrumResult(vals, vecs, _residuals(h, vals, vecs))
    vals = sla.eigh(dense, eigvals_only=True)[:k]
    return SpectrumResult(vals, None, np.full(k, np.nan))


def lanczos_ground_state(
    h: SparseOperator,
    tol: float = 1e-10,
    max_iter: int = 2000,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Ground-state pair by Lanczos with full reorthogonalization.

    Deterministic for a given seed.  Raises :class:`ConvergenceError`
    carrying the best estimate if ``max_iter`` steps do not converge.
    """
    n = h.dim
    limit = min(max_iter, n)
    rng = np.random.default_rng(seed)
    # Start from the lowest-diagonal basis state (a good approximation when
    # off-diagonal couplings are weak) plus a small random component so every
    # symmetry sector is reachable.
    start = np.zeros(n)
    start[int(np.argmin(h.matrix.diagonal()))] = 1.0
    start += 1e-3 * rng.standard_normal(n) / np.sqrt(n)
    # grow the Krylov basis in chunks; most runs stop well before max_iter
    q = np.empty((min(limit + 1, 64), n))
    q[0] = normalize(start)
    alphas: list[float] = []
    betas: list[float] = []
    e_prev = np.inf
    for it in range(limit):
        if it + 1 >= q.shape[0]:
            grow = min(64, limit + 1 - q.shape[0])
            q = np.concatenate([q, np.empty((grow, n))])
        w = h.matrix @ q[it]
        alpha = float(q[it] @ w)
        alphas.append(alpha)
        w = w - alpha * q[it]
        if betas:
            w = w - betas[-1] * q[it - 1]
        # full reorthogonalization; repeat once if the norm dropped sharply
        # (the usual "twice is enough" criterion)
        span = q[: it + 1]
        norm_before = float(np.linalg.norm(w))
        w = w - span.T @ (span @ w)
        beta = float(np.linalg.norm(w))
        if beta < 0.5 * norm_before:
            w = w - span.T @ (span @ w)
            beta = float(np.linalg.norm(w))
        # only the lowest Ritz pair is needed; stebz is robust to the tight
        # eigenvalue clusters these Hamiltonians produce
        tri_vals, tri_vecs = sla.eigh_tridiagonal(
            alphas, betas, select="i", select_range=(0, 0), lapack_driver="stebz"
        )
        e0 = float(tri_vals[0])
        if beta < 1e-14:
            # invariant subspace: the Ritz value is exact
            return e0, normalize(span.T @ tri_vecs[:, 0])
        converged = abs(e0 - e_prev) <= tol * max(1.0, abs(e0))
        resid_est = beta * abs(tri_vecs[-1, 0])
        if converged and resid_est <= np.sqrt(tol) * max(1.0, abs(e0)):
            return e0, normalize(span.T @ tri_vecs[:, 0])
        e_prev = e0
        betas.append(beta)
        q[it + 1] = w / beta
    raise ConvergenceError(
        f"Lanczos did not converge in {max_iter} iterations", best_estimate=e_prev
    )


def ground_state(h: SparseOperator, seed: int = 0) -> tuple[float, np.ndarray]:
    """Dense below the oracle limit, Lanczos above it."""
    if h.dim <= DENSE_DIM_LIMIT:
        res = dense_eigs(h, k=1)
        return float(res.eigenvalues[0]), res.eigenvectors[:, 0]
    return lanczos_ground_state(h, seed=seed)


def krylov_evolve(h: SparseOperator, psi: np.ndarray, t_total: float, dt: float):
    """Trajectory of exp(-i H t) psi sampled every ``dt``.

    Returns ``(times, states)`` with ``states[k]`` the state at
    ``times[k]``; ``states[0]`` is the (normalized) initial state.

    Each sample is one ``expm_multiply`` call: truncated Taylor with scaling
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), order and
    substeps chosen for double-precision tolerance 2**-53.  Re-runs are
    bitwise identical while ||H dt||_1 <= 63.4 (exact 1-norms only); above
    it scipy's randomized ``onenormest`` keeps the result accurate, but
    bitwise repeatability is then observed, not guaranteed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    psi = normalize(np.asarray(psi, dtype=complex))
    n_steps = int(round(t_total / dt))
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, h.dim), dtype=complex)
    states[0] = psi
    step = (-1j * dt) * h.matrix
    for k in range(n_steps):
        states[k + 1] = expm_multiply(step, states[k])
    return times, states


def sector_eigenstates(
    h: SparseOperator,
    basis: RydbergBasis,
    dictionary: StateDictionary,
    k: int,
):
    """Low-lying eigenpairs annotated with spin-1-sector overlaps.

    Returns ``(spectrum, overlaps, band)`` where ``band`` indexes the k
    eigenstates of maximal sector overlap (sorted by energy).  A warning is
    emitted when no overlap exceeds 1/2 and the band is ambiguous.
    """
    import warnings

    res = dense_eigs(h)
    sector_indices, _ = project_to_spin1(basis, dictionary)
    overlaps = np.sum(np.abs(res.eigenvectors[sector_indices]) ** 2, axis=0)
    band = np.sort(np.argsort(-overlaps, kind="stable")[:k])
    if overlaps[band].max() < 0.5:
        warnings.warn("spin-1 band is ambiguous: all sector overlaps below 0.5")
    return res, overlaps, band
