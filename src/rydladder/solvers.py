"""Eigen-solving and time propagation for sparse Hamiltonians."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import RydbergBasis, StateDictionary, project_to_spin1, rung_permutations
from .hamiltonians import Operator

DENSE_DIM_LIMIT = 4096
SYMMETRY_TOL = 1e-12   # ||Pi H Pi^T - H||_1 / ||H||_1 below which a permutation is a symmetry
RESIDUAL_TOL = 1e-10   # ||H psi - E psi|| / ||H||_1 up to which a ground state is certified
KRYLOV_DIM = 60        # Lanczos steps per window of krylov_evolve
KRYLOV_TOL = 1e-13     # the defect bound on the error one window of krylov_evolve adds
GRAM_TOL = 1e-8        # squared Cholesky pivot of the unit p below which ground_state's LOPCG drops p
GRAM_SLAB = 16384      # columns per product of the LOPCG Gram: one product of all columns took twice as long from dim 2^16


class SolverError(RuntimeError):
    pass


class ConvergenceError(SolverError):
    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two real 1-D arrays, off OpenBLAS's threads.  numpy's OpenBLAS runs
    ``ddot`` (behind ``@``, ``np.dot``, ``np.vdot`` and ``np.linalg.norm``) on two
    threads past about 10^4 entries; between the single-threaded matmuls of the
    LOPCG loop at dim 16384 waking them took 0.7 ms a call, and up to 36 ms in a
    fresh process, where einsum's own SIMD loop takes 0.01 ms."""
    return float(np.einsum("i,i", a, b))


def normalize(psi: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / nrm


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray   # columns aligned with eigenvalues; sector_eigenstates: the band's only
    residuals: np.ndarray
    symmetries: tuple[str, ...] = ()   # verified symmetries the solve was blocked by
    sectors: tuple[int, ...] = ()      # dimension of each diagonalised block


def _check_dense_limit(h: Operator):
    if h.dim > DENSE_DIM_LIMIT:
        raise SolverError(f"dimension {h.dim} exceeds the dense limit {DENSE_DIM_LIMIT}")


def dense_eigs(h: Operator, k: int | None = None) -> SpectrumResult:
    """Lowest-k eigenpairs by dense diagonalization (oracle backend).

    Only k eigenpairs are computed when k < dim (LAPACK ``syevr`` on the index
    subset); the whole spectrum uses ``syevd``, which cannot take a subset.  The
    residuals are the column norms of H X - X diag(vals), one sparse-dense product.
    """
    _check_dense_limit(h)
    k = h.dim if k is None else min(k, h.dim)
    subset = {"driver": "evd"} if k == h.dim else {"subset_by_index": (0, k - 1)}
    vals, vecs = sla.eigh(h.matrix.toarray(), **subset)
    r = h.matrix @ vecs
    r -= vecs * vals
    return SpectrumResult(vals, vecs, np.linalg.norm(r, axis=0), sectors=(h.dim,))


def _cholesky(gram: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``gram``, or None if it is not positive definite."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None


def _lopcg(h: Operator, lowest: int, seed: int, precond: np.ndarray, target: float, max_iter: int):
    """LOPCG iterate for the lowest eigenpair of H, until ||Hx - (x.Hx) x|| <= target.

    Starts from the basis state ``lowest`` plus a small random part drawn with
    ``seed`` (all sectors reachable), built in the loop's own first row.
    Returns ``(x, products, iterations)``, x of unit norm.  The rows x, w, p and
    their H-images H x, H w, H p are updated in place; H x and H p by linearity,
    so each step takes the one product H w.
    """
    n = h.dim
    v = np.zeros((2, 3, n))   # x, w = precond * (Hx - rho x), p = x_new - c_0 x; then their images
    s, hs = v
    np.random.default_rng(seed).standard_normal(n, out=s[0])
    s[0] *= 1e-3
    s[0] /= np.sqrt(n)
    s[0, lowest] += 1.0
    s[0] /= math.sqrt(_dot(s[0], s[0]))
    hs[0] = h @ s[0]
    products, iterations, k, best = 1, 0, 2, np.inf   # k: rows in the basis, 2 until there is a p
    while True:
        rho = _dot(s[0], hs[0])
        best = min(best, rho)
        np.multiply(s[0], rho, out=s[1])
        np.subtract(hs[0], s[1], out=s[1])
        if math.sqrt(_dot(s[1], s[1])) <= target:
            break
        if products >= max_iter:
            raise ConvergenceError(f"LOPCG did not converge in {max_iter} products with H", best)
        s[1] *= precond
        hs[1] = h @ s[1]
        products += 1
        iterations += 1
        # Rayleigh-Ritz in the Cholesky-QR basis of the unit rows.  (6, c) x (c, 3) products
        # over column slabs give S S^T and (HS) S^T, in half the time of two 3-row products.
        dots = np.zeros((6, 3))
        for lo in range(0, n, GRAM_SLAB):
            dots += v[:, :, lo:lo + GRAM_SLAB].reshape(6, -1) @ s[:, lo:lo + GRAM_SLAB].T
        gram, proj = dots[:k, :k], dots[3:3 + k, :k]
        d = 1 / np.sqrt(np.diag(gram))
        unit = gram * np.outer(d, d)
        chol = _cholesky(unit)
        if k == 3 and (chol is None or chol[2, 2] ** 2 < GRAM_TOL):   # p (nearly) in span{x, w}
            k = 2
            chol = _cholesky(unit[:2, :2])
        if chol is None:   # w in span{x}: no direction left to search
            break
        inv, d = np.linalg.inv(chol), d[:k]
        _, u = np.linalg.eigh(inv @ ((proj[:k, :k] + proj[:k, :k].T) / 2 * np.outer(d, d)) @ inv.T)
        c = np.zeros(3)   # c_2 = 0 without p
        c[:k] = inv.T @ u[:, 0] * d
        c /= np.sqrt(c[:k] @ gram[:k, :k] @ c[:k])
        x, w, p = v[:, 0], v[:, 1], v[:, 2]   # each row with its image
        w *= c[1]   # p = c_1 w + c_2 p, then x = c_0 x + p; the w row is spent
        p *= c[2]
        p += w
        x *= c[0]
        x += p
        k = 3
    return s[0].copy(), products, iterations   # a copy, so that the other five rows are freed


def ground_state(
    h: Operator,
    max_iter: int = 20000,
    seed: int = 0,
) -> tuple[float, np.ndarray, dict]:
    """Certified ground-state pair by preconditioned LOPCG.

    Returns ``(energy, psi, report)`` with ``report`` the ``products`` with H
    (the certificate's included), the LOPCG ``iterations``, the true
    ``residual`` ||H psi - E psi|| and its ``bound``.

    LOPCG (Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)) with block size 1 runs
    in this module, on numpy alone (``_lopcg``), from the lowest-diagonal basis
    state plus a small seeded random part.  Each step takes one product
    H w with the preconditioned residual w, keeps H x and H p by linearity, and
    takes the next x and p from the Rayleigh-Ritz pair of span{x, w, p}: a 3x3
    ``eigh`` in the Cholesky-QR basis of the unit rows.  p is dropped for that
    step when its squared Cholesky pivot, its share of unit norm outside
    span{x, w}, is below GRAM_TOL.  The preconditioner is the clipped Jacobi
    inverse 1 / max(|H_ii - min H_jj|, floor), the floor being the largest
    off-diagonal |H_ij|.  The loop stops at a residual of a quarter of the
    bound; ``ground_state`` returns only when the true residual ||H psi - E psi||
    <= RESIDUAL_TOL ||H||_1 (exact 1-norm, E the Rayleigh quotient), otherwise
    raises :class:`ConvergenceError` carrying the lowest Rayleigh quotient seen.
    H is read only through its diagonal, its products, ``norm1`` and
    ``max_off_diagonal``.  Memory is six vectors of length dim, the
    preconditioner and one product; every inner product and norm of length dim
    is a ``_dot``.  ``max_iter`` caps the products with H.  Deterministic for a
    given seed.
    """
    n = h.dim
    diag = h.diagonal()
    lowest = int(np.argmin(diag))
    floor = h.max_off_diagonal()
    bound = float(RESIDUAL_TOL * h.norm1())
    if floor == 0:   # diagonal H (dim 1 included): that basis state alone is exact
        psi = np.zeros(n)
        psi[lowest] = 1.0
        return float(diag.min()), psi, {"products": 0, "iterations": 0, "residual": 0.0, "bound": bound}
    precond = 1.0 / np.maximum(np.abs(diag - diag.min()), floor)
    psi, products, iterations = _lopcg(h, lowest, seed, precond, bound / 4, max_iter)
    psi /= math.sqrt(_dot(psi, psi))
    h_psi = h @ psi
    energy = _dot(psi, h_psi)
    h_psi -= energy * psi
    residual = math.sqrt(_dot(h_psi, h_psi))
    if residual > bound:
        raise ConvergenceError(f"true residual {residual:.3g} > {bound:.3g}", energy)
    return energy, psi, {"products": products + 1, "iterations": iterations, "residual": residual, "bound": bound}


def krylov_evolve(h: Operator, psi: np.ndarray, t_total: float, dt: float):
    """Trajectory of exp(-i H t) psi sampled every ``dt``, by Lanczos windows.

    Checks ``dt`` and ``t_total`` (a whole number of dt steps, to 1e-9
    relative) at the call, then yields one ``(times, states, report)`` per
    window: its slice of the grid, a fresh block with ``states[k]`` the state at
    ``times[k]``, and the running ``windows``, ``matvecs`` (products with H) and
    ``error_bound`` on every ||states[k] - exp(-i H times[k]) psi||, rounding
    aside.  The first item is the normalized psi alone, at t = 0.

    A window runs m = KRYLOV_DIM Lanczos steps from its start state v, without
    reorthogonalisation, and diagonalises T = S Lambda S^T once; its samples are
    beta_0 V S exp(-i Lambda tau) S^T e_1, beta_0 = ||v||.  Their error is bounded by
    the defect integral beta_0 beta_m int_0^tau |e_m^T exp(-i T s) e_1| ds (Hochbruck
    & Lubich 1997; Jawecki, Auzinger & Koch 2020), taken by trapezoid at spacing
    <= 0.1 / spread(T) with a factor-2 margin.  The window runs to the largest
    grid point where that is <= KRYLOV_TOL, between samples if need be, and the
    next window starts there; the bounds of the windows add up.  A breakdown
    beta_j = 0 makes the subspace exact.  Beyond the window's block of samples,
    memory is the (m + 1) dim complex numbers of the Lanczos vectors and the residual.
    """
    if dt <= 0 or t_total < 0:
        raise ValueError(f"dt must be positive and t_total >= 0, got dt = {dt}, t_total = {t_total}")
    n_steps = round(t_total / dt)
    if abs(t_total / dt - n_steps) > 1e-9 * max(1, t_total / dt):
        raise ValueError(f"t_total = {t_total} is not a whole number of dt = {dt} steps")
    return _krylov_windows(h, psi, np.arange(n_steps + 1) * dt)


def _krylov_windows(h: Operator, psi: np.ndarray, times: np.ndarray):
    x = normalize(np.asarray(psi, dtype=complex))
    start, k, report = 0.0, 1, {"windows": 0, "matvecs": 0, "error_bound": 0.0}
    yield times[:1], x[None].copy(), dict(report)
    v = np.empty((min(KRYLOV_DIM, h.dim), h.dim), dtype=complex)
    alpha, beta = np.zeros(len(v)), np.zeros(len(v))   # beta[j] couples v[j] and v[j + 1]
    while k < len(times):
        beta0 = np.linalg.norm(x)
        v[0] = x / beta0
        for j in range(len(v)):
            w = h @ v[j]
            alpha[j] = np.vdot(v[j], w).real
            w -= alpha[j] * v[j]
            if j:
                w -= beta[j - 1] * v[j - 1]
            beta[j] = np.linalg.norm(w)
            if beta[j] == 0 or j + 1 == len(v):
                break
            v[j + 1] = w / beta[j]
        m = j + 1
        lam, s = sla.eigh_tridiagonal(alpha[:m], beta[:m - 1])
        c = beta0 * s[0]
        defect = beta[m - 1] * s[m - 1] * c   # beta_0 beta_m e_m^T exp(-i T s) e_1 = sum(defect exp(-i lam s))
        remaining = times[-1] - start
        n_grid = max(1, int(np.ceil(10 * remaining * (lam[-1] - lam[0]))))
        step = remaining / n_grid
        phases = np.exp(-1j * step * np.outer(np.arange(min(n_grid, 256) + 1), lam))
        # |e_m^T exp(-i T s) e_1| <= 1 bounds the integral by crude * tau: a breakdown, or a
        # small enough beta_m, covers the rest at once
        crude = beta0 * beta[m - 1]
        i, err = (n_grid, crude * remaining) if crude * remaining <= KRYLOV_TOL else (0, 0.0)
        while i < n_grid:   # twice the trapezoid of the defect integral, chunk by chunk of the grid
            g = np.abs(phases[:n_grid - i + 1] @ (defect * np.exp(-1j * i * step * lam)))
            errs = err + step * np.cumsum(g[1:] + g[:-1])
            n_ok = int(np.searchsorted(errs, KRYLOV_TOL, side="right"))
            err, i = (errs[n_ok - 1] if n_ok else err), i + n_ok
            if n_ok < len(errs):
                break
        tau, last = i * step, i == n_grid
        if not last and crude * tau < KRYLOV_TOL:   # the crude bound reaches further (dim 1, say)
            tau, err = KRYLOV_TOL / crude, KRYLOV_TOL
        end = len(times) if last else int(np.searchsorted(times, start + tau, side="right"))
        coeffs = (np.exp(-1j * np.outer(times[k:end] - start, lam)) * c) @ s.T
        states = np.empty((end - k, h.dim), dtype=complex)
        for state, coeff in zip(states, coeffs):   # one GEMV each: no block temporaries
            np.matmul(coeff, v[:m], out=state)
        x = (np.exp(-1j * tau * lam) * c) @ s.T @ v[:m]
        report["windows"] += 1
        report["matvecs"] += m
        report["error_bound"] += float(err)
        yield times[k:end], states, dict(report)
        start, k = start + tau, end


def _symmetry_blocks(dim: int, perms, chis) -> list[sp.csr_matrix]:
    """Sparse isometries U_chi of the group ``perms`` generate, one per
    character chi in ``chis`` (bit k set: odd under generator k).

    The generators are commuting involutions.  Column j of U_chi is the
    normalised sum_g chi(g) |g r_j> over the orbit of representative r_j
    (QuSpin's symmetry blocks); columns that cancel are dropped, and so are
    empty blocks.  The trivial group gives the single block U = I.
    """
    elements = [(np.arange(dim), 0)]   # (index map, bit mask of the generators used)
    for k, perm in enumerate(perms):
        elements += [(perm[g], mask | 1 << k) for g, mask in elements]
    reps = np.unique(np.min([g for g, _ in elements], axis=0))
    cols = np.tile(np.arange(len(reps)), len(elements))
    rows = np.concatenate([g[reps] for g, _ in elements])
    blocks = []
    for chi in chis:
        vals = np.repeat([(-1.0) ** (mask & chi).bit_count() for _, mask in elements], len(reps))
        u = sp.csc_matrix((vals, (rows, cols)), shape=(dim, len(reps)))
        norms = np.sqrt(np.asarray(u.multiply(u).sum(axis=0)).ravel())
        keep = np.flatnonzero(norms)
        if len(keep):
            blocks.append((u[:, keep] @ sp.diags(1.0 / norms[keep])).tocsr())
    return blocks


def symmetry_sectors(h: Operator, basis: RydbergBasis, n_legs: int, psi: np.ndarray | None = None):
    """Verified rung symmetries of H and the isometries of their sectors.

    A rung permutation (``rung_permutations``) is kept when it maps the basis
    onto itself and is checked on H itself, ||Pi H Pi^T - H||_1 <=
    SYMMETRY_TOL ||H||_1.  Given ``psi``, it must also have psi as an exact
    eigenvector, psi[perm] = +-psi.  Returns ``(names, blocks)``: the kept
    symmetries and one sparse isometry U_chi per character of the group they
    generate (``_symmetry_blocks``); given ``psi``, only the block of the
    character read off those signs, which holds psi and whose U^T H U evolves
    U^T psi exactly.  With no symmetry kept that block is the identity.
    """
    norm1 = h.norm1()
    names, perms = [], []
    for name, perm in rung_permutations(basis, n_legs).items():
        if np.any(perm < 0) or np.array_equal(perm, np.arange(h.dim)):
            continue
        if psi is not None and not (np.array_equal(psi[perm], psi) or np.array_equal(psi[perm], -psi)):
            continue
        inv = np.argsort(perm)   # (Pi H Pi^T)[a, b] = H[inv[a], inv[b]]
        if spla.norm(h.matrix[inv][:, inv] - h.matrix, 1) <= SYMMETRY_TOL * norm1:
            names.append(name)
            perms.append(perm)
    if psi is None:
        return names, _symmetry_blocks(h.dim, perms, range(1 << len(perms)))
    chi = sum(1 << k for k, perm in enumerate(perms) if not np.array_equal(psi[perm], psi))
    return names, _symmetry_blocks(h.dim, perms, [chi])


def _block_eigenstates(h: Operator, u: sp.csr_matrix, sector_indices, k: int):
    """One block B = U^T H U of ``sector_eigenstates``: its eigenvalues, residual bounds
    and sector overlaps, the mask of its k largest overlaps and their eigenvectors.

    B is densified in Fortran order, which LAPACK overwrites in place, and the
    eigenvectors are copied once to C order, which the sparse products read; the
    locals die on return, before the next block is densified."""
    b = u.T @ h.matrix @ u
    vals, v = sla.eigh(b.toarray(order="F"), driver="evd", overwrite_a=True)
    v = np.ascontiguousarray(v)
    certificate = spla.norm(h.matrix @ u - u @ b)   # Frobenius
    overlaps = np.sum((u[sector_indices] @ v) ** 2, axis=0)
    # the block's k largest overlaps, ties included, hold every band member of the block
    keep = overlaps >= np.sort(overlaps)[-min(k, len(vals))]
    kept, r = v[:, keep], b @ v
    v *= vals   # V is read no more: B V - V diag(vals) with no third n^2 array
    r -= v
    return vals, np.linalg.norm(r, axis=0) + certificate, overlaps, keep, kept


def sector_eigenstates(
    h: Operator,
    basis: RydbergBasis,
    dictionary: StateDictionary,
    k: int,
):
    """All eigenvalues annotated with spin-1-sector overlaps, and the band's eigenvectors.

    H is diagonalised in the blocks of the verified rung symmetries (``symmetry_sectors``),
    merged by energy with a stable sort.  Each block B = U^T H U is finished inside
    the block; only the band's eigenvectors are embedded, as U v.  HUv - Uv lambda =
    (HU - UB) v + U (B v - v lambda), so each residual ||B v - lambda v|| + ||HU - UB||_F
    (exact, sparse) bounds the full-space one and an imperfect symmetry still shows.

    Returns ``(spectrum, overlaps, band)``: ``band`` indexes the k eigenstates of
    maximal sector overlap (sorted by energy), ``spectrum.eigenvectors`` holds their
    vectors.  Warns when no overlap exceeds 1/2 and the band is ambiguous.
    """
    _check_dense_limit(h)
    names, blocks = symmetry_sectors(h, basis, dictionary.n_legs)
    sector_indices, _ = project_to_spin1(basis, dictionary)
    # per block: isometry, eigenvalues, residual bounds, overlaps, its k best eigenvectors
    solved = [(u, *_block_eigenstates(h, u, sector_indices, k)) for u in blocks]
    sectors = tuple(len(vals) for _, vals, *_ in solved)
    order = np.argsort(np.concatenate([s[1] for s in solved]), kind="stable")
    vals, residuals, overlaps = (np.concatenate([s[i] for s in solved])[order] for i in (1, 2, 3))
    band = np.sort(np.argsort(-overlaps, kind="stable")[:k])
    if overlaps[band].max() < 0.5:
        warnings.warn("spin-1 band is ambiguous: all sector overlaps below 0.5")
    place = np.cumsum(np.concatenate([s[4] for s in solved]))[order[band]] - 1   # band among the kept
    vecs = np.empty((h.dim, len(band)))
    for (u, *_, v), lo in zip(solved, np.cumsum([0] + [s[5].shape[1] for s in solved])):
        mine = (place >= lo) & (place < lo + v.shape[1])
        vecs[:, mine] = u @ v[:, place[mine] - lo]
    return SpectrumResult(vals, vecs, residuals, tuple(names), sectors), overlaps, band
