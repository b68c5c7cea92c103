"""Eigen-solving and time propagation for sparse Hamiltonians."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import (RydbergBasis, StateDictionary, digit_images, project_to_spin1, rung_permutations,
                    rung_symmetries)
from .hamiltonians import FlipOperator, Operator

DENSE_DIM_LIMIT = 4096
SYMMETRY_TOL = 1e-12   # ||Pi H Pi^T - H||_1 / ||H||_1 below which a permutation is a symmetry
RESIDUAL_TOL = 1e-10   # ||H psi - E psi|| / ||H||_1 up to which a ground state is certified
KRYLOV_DIM = 60        # Lanczos steps per window of krylov_evolve
KRYLOV_TOL = 1e-13     # the defect bound on the error one window of krylov_evolve adds
GRAM_TOL = 1e-8        # squared Cholesky pivot of the unit p below which ground_state's LOPCG drops p
GRAM_SLAB = 16384      # columns per product of the LOPCG Gram: one product of all columns took twice as long from dim 2^16
MAX_PRODUCTS = 20000   # ground_state's default cap on its products with H


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


def _rayleigh_ritz(dots: list, k: int) -> list | None:
    """Coefficients c of the lowest Ritz vector sum_i c_i s_i of the k rows s (x, w
    and, with k = 3, p), at unit norm, from ``dots``: the rows of S S^T, then those
    of (HS) S^T, as lists of floats.  Returns ``None`` when w lies in span{x}, and
    drops p (c_2 = 0) when its squared Cholesky pivot, its share of unit norm
    outside span{x, w}, is below GRAM_TOL.

    The pair is taken in the Cholesky-QR basis of the unit rows: D the inverse row
    norms, D S S^T D = L L^T, M = L^-1, A = M B M^T with B = D (HS) S^T D
    symmetrised, y the lowest eigenvector of A and c = D M^T y.  L, M and A are
    formed in floats, L and M lower triangular with l_00 = m_00 = 1; A alone goes
    to ``np.linalg.eigh``.  A and c of x and w are the leading parts of those with p.
    """
    (g00, _, _), (g10, g11, _), (g20, g21, g22) = dots[:3]
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = dots[3:]
    d0, d1 = 1 / math.sqrt(g00), 1 / math.sqrt(g11)
    l10 = g10 * d1 * d0
    pivot = 1 - l10 * l10
    if not pivot > 0:   # w in span{x}: no direction left to search
        return None
    l11 = math.sqrt(pivot)
    m10, m11 = -l10 / l11, 1 / l11
    b00, b01, b11 = h00 * d0 * d0, (h01 + h10) / 2 * d0 * d1, h11 * d1 * d1
    r10, r11 = m10 * b00 + m11 * b01, m10 * b01 + m11 * b11   # row 1 of M B; row 0 is B's
    a11 = r10 * m10 + r11 * m11
    if k == 3:
        d2 = 1 / math.sqrt(g22)
        l20 = g20 * d2 * d0
        l21 = (g21 * d2 * d1 - l20 * l10) / l11
        pivot = 1 - l20 * l20 - l21 * l21
        k = 3 if pivot >= GRAM_TOL else 2   # else p (nearly) in span{x, w}
    if k == 2:
        y0, y1 = np.linalg.eigh([[b00, r10], [r10, a11]])[1][:, 0].tolist()
        c = [d0 * (y0 + m10 * y1), d1 * m11 * y1, 0.0]
    else:
        l22 = math.sqrt(pivot)
        m20, m21, m22 = -(l20 + l21 * m10) / l22, -l21 * m11 / l22, 1 / l22
        b02, b12, b22 = (h02 + h20) / 2 * d0 * d2, (h12 + h21) / 2 * d1 * d2, h22 * d2 * d2
        r20, r21, r22 = (m20 * b00 + m21 * b01 + m22 * b02, m20 * b01 + m21 * b11 + m22 * b12,
                         m20 * b02 + m21 * b12 + m22 * b22)   # row 2 of M B
        a21 = r20 * m10 + r21 * m11
        a = [[b00, r10, r20], [r10, a11, a21], [r20, a21, r20 * m20 + r21 * m21 + r22 * m22]]
        y0, y1, y2 = np.linalg.eigh(a)[1][:, 0].tolist()
        c = [d0 * (y0 + m10 * y1 + m20 * y2), d1 * (m11 * y1 + m21 * y2), d2 * m22 * y2]
    c0, c1, c2 = c
    norm = math.sqrt(c0 * c0 * g00 + c1 * c1 * g11 + c2 * c2 * g22
                     + 2 * (c1 * c0 * g10 + c2 * c0 * g20 + c2 * c1 * g21))   # of sum_i c_i s_i
    return [c0 / norm, c1 / norm, c2 / norm]


def _lopcg(h: Operator, lowest: int, seed: int, diag: np.ndarray, floor: float, target: float, max_iter: int):
    """LOPCG iterate for the lowest eigenpair of H, until ||Hx - (x.Hx) x|| <= target.

    Starts from the basis state ``lowest`` plus a small random part drawn with
    ``seed`` (all sectors reachable), built in the loop's own first row.
    Returns ``(x, products, iterations)``, x of unit norm.  The rows x, w, p and
    their H-images H x, H w, H p are updated in place; H x and H p by linearity,
    so each step takes the one product H w.  w is the residual divided by
    max(|H_ii - rho|, floor), formed from ``diag`` at the current rho in one
    scratch vector.
    """
    n = h.dim
    v = np.zeros((2, 3, n))   # x, w = (Hx - rho x) / max(|H_ii - rho|, floor), p = x_new - c_0 x; their images
    s, hs = v
    shift = np.empty(n)
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
        np.subtract(diag, rho, out=shift)
        if diag[lowest] - rho < -floor:   # else no H_ii - rho is below -floor, and max(., floor) is max(|.|, floor)
            np.abs(shift, out=shift)
        s[1] /= np.maximum(shift, floor, out=shift)
        hs[1] = h @ s[1]
        products += 1
        iterations += 1
        # (6, c) x (c, 3) products over column slabs give S S^T and (HS) S^T, in half the
        # time of two 3-row products
        dots = np.zeros((6, 3))
        for lo in range(0, n, GRAM_SLAB):
            dots += v[:, :, lo:lo + GRAM_SLAB].reshape(6, -1) @ s[:, lo:lo + GRAM_SLAB].T
        c = _rayleigh_ritz(dots.tolist(), k)
        if c is None:
            break
        x, w, p = v[:, 0], v[:, 1], v[:, 2]   # each row with its image
        w *= c[1]   # p = c_1 w + c_2 p, then x = c_0 x + p; the w row is spent
        p *= c[2]
        p += w
        x *= c[0]
        x += p
        k = 3
    return s[0].copy(), products, iterations   # a copy, so that the other five rows and the shift are freed


def ground_state(
    h: Operator,
    max_iter: int = MAX_PRODUCTS,
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
    ``eigh`` in the Cholesky-QR basis of the unit rows, the basis itself formed
    in floats (``_rayleigh_ritz``).  p is dropped for that step when its squared
    Cholesky pivot, its share of unit norm outside span{x, w}, is below
    GRAM_TOL.  The preconditioner is Davidson's Jacobi inverse shifted to the
    current Rayleigh quotient rho (J. Comput. Phys. 17, 87 (1975)) and clipped,
    1 / max(|H_ii - rho|, floor), the floor being the largest off-diagonal
    |H_ij|.  The loop stops at a residual of a quarter of the bound;
    ``ground_state`` returns only when the true residual ||H psi - E psi|| <=
    RESIDUAL_TOL ||H||_1 (exact 1-norm, E the Rayleigh quotient), otherwise
    raises :class:`ConvergenceError` carrying the lowest Rayleigh quotient seen.
    H is read only through its diagonal, its products, ``norm1`` and
    ``max_off_diagonal``.  Memory is six vectors of length dim, the scratch
    vector in which each step forms the preconditioner, and one product; every
    inner product and norm of length dim is a ``_dot``.  ``max_iter`` caps the
    products with H.  Deterministic for a given seed.
    """
    return _ground_state(h, max_iter, seed)


def _ground_state(h, max_iter: int, seed: int) -> tuple[float, np.ndarray, dict]:
    """``ground_state``'s body, which ``sector_ground_state`` runs on its sector
    operator: wrappers of the public name (perfbench's tracer reads the CSR of
    its argument) see full-space solves only."""
    n = h.dim
    diag = h.diagonal()
    lowest = int(np.argmin(diag))
    floor = h.max_off_diagonal()
    bound = float(RESIDUAL_TOL * h.norm1())
    if floor == 0:   # diagonal H (dim 1 included): that basis state alone is exact
        psi = np.zeros(n)
        psi[lowest] = 1.0
        return float(diag.min()), psi, {"products": 0, "iterations": 0, "residual": 0.0, "bound": bound}
    psi, products, iterations = _lopcg(h, lowest, seed, diag, floor, bound / 4, max_iter)
    energy, residual = _certificate(h, psi, bound)
    return energy, psi, {"products": products + 1, "iterations": iterations, "residual": residual, "bound": bound}


def _certificate(h, psi: np.ndarray, bound: float) -> tuple[float, float]:
    """Normalise psi in place and return its Rayleigh quotient E and true residual
    ||H psi - E psi||, one product with H; raise :class:`ConvergenceError` when
    the residual exceeds ``bound``."""
    psi /= math.sqrt(_dot(psi, psi))
    h_psi = h @ psi
    energy = _dot(psi, h_psi)
    h_psi -= energy * psi
    residual = math.sqrt(_dot(h_psi, h_psi))
    if residual > bound:
        raise ConvergenceError(f"true residual {residual:.3g} > {bound:.3g}", energy)
    return energy, residual


def krylov_evolve(h: Operator, psi: np.ndarray, t_total: float, dt: float):
    """Trajectory of exp(-i H t) psi sampled every ``dt``, by Lanczos windows.

    Checks ``dt`` and ``t_total`` (``time_steps``) at the call, then yields one
    ``(times, states, report)`` per window: its slice of the grid, a fresh block
    with ``states[k]`` the state at ``times[k]``, and the running ``windows``,
    ``matvecs`` (products with H) and ``error_bound`` on every ||states[k] -
    exp(-i H times[k]) psi||, rounding aside.  The first item is the normalized
    psi alone, at t = 0.

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
    return _krylov_windows(h, psi, time_steps(t_total, dt), dt)


def time_steps(t_total: float, dt: float) -> int:
    """The number of ``dt`` steps in ``t_total``: a finite, whole number to 1e-9 relative."""
    if not (dt > 0 and t_total >= 0):
        raise ValueError(f"dt must be positive and t_total >= 0, got dt = {dt}, t_total = {t_total}")
    ratio = t_total / dt
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 * max(1, ratio):
        raise ValueError(f"t_total = {t_total} is not a finite, whole number of dt = {dt} steps")
    return round(ratio)


def _grid_count(t: float, dt: float, n_steps: int) -> int:
    """The number of grid times i dt, 0 <= i <= n_steps, at or below t: the right
    ``np.searchsorted`` of t in the grid, without the grid."""
    i = max(math.floor(min(t / dt, n_steps)), -1)   # within one of the last such i
    while i >= 0 and i * dt > t:
        i -= 1
    while i < n_steps and (i + 1) * dt <= t:
        i += 1
    return i + 1


def _krylov_windows(h: Operator, psi: np.ndarray, n_steps: int, dt: float):
    """``krylov_evolve``'s windows over the grid times i dt, 0 <= i <= n_steps; each
    window computes its own slice of the grid."""
    x = normalize(np.asarray(psi, dtype=complex))
    start, k, report = 0.0, 1, {"windows": 0, "matvecs": 0, "error_bound": 0.0}
    yield np.zeros(1), x[None].copy(), dict(report)
    v = np.empty((min(KRYLOV_DIM, h.dim), h.dim), dtype=complex)
    alpha, beta = np.zeros(len(v)), np.zeros(len(v))   # beta[j] couples v[j] and v[j + 1]
    while k <= n_steps:
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
        remaining = n_steps * dt - start
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
        end = n_steps + 1 if last else _grid_count(start + tau, dt, n_steps)
        times = np.arange(k, end) * dt
        coeffs = (np.exp(-1j * np.outer(times - start, lam)) * c) @ s.T
        states = np.empty((end - k, h.dim), dtype=complex)
        for state, coeff in zip(states, coeffs):   # one GEMV each: no block temporaries
            np.matmul(coeff, v[:m], out=state)
        x = (np.exp(-1j * tau * lam) * c) @ s.T @ v[:m]
        report["windows"] += 1
        report["matvecs"] += m
        report["error_bound"] += float(err)
        yield times, states, dict(report)
        start, k = start + tau, end


def _verified_symmetries(h: Operator, basis: RydbergBasis, n_legs: int, psi: np.ndarray | None = None):
    """The rung symmetries (``rung_symmetries``) that H verifiably has.

    One other than the identity is kept when ||Pi H Pi^T - H||_1 <= SYMMETRY_TOL
    ||H||_1, taken by H's own ``permutation_defect`` (no CSR of a FlipOperator),
    and, given ``psi``, when psi[perm] = +-psi exactly.  Returns the kept names,
    their ``(local, reverse)`` digit maps and index maps, and the digit count.
    """
    norm1, n_digits, index_maps = h.norm1(), basis.n_atoms // n_legs, rung_permutations(basis, n_legs)
    names, maps, perms = [], [], []
    for name, (local, reverse) in rung_symmetries(basis, n_legs).items():
        perm = index_maps[name]
        if np.array_equal(perm, np.arange(h.dim)):
            continue
        if psi is not None and not (np.array_equal(psi[perm], psi) or np.array_equal(psi[perm], -psi)):
            continue
        if h.permutation_defect(perm, local) <= SYMMETRY_TOL * norm1:
            names.append(name)
            maps.append((local, reverse))
            perms.append(perm)
    return names, maps, perms, n_digits


def _orbits(dim: int, n_digits: int, maps):
    """Orbits of the group that the commuting involutions ``maps`` generate.

    Returns ``(reps, images, masks)``: the representatives r, ascending, each the
    least index of its orbit, and per group element g (the identity first, then
    each generator k composed with every element before it, bit k of its mask
    set) the images g(r).  Each element's index map is built in turn and
    dropped: the candidates shrink to the indices that no element so far
    lowers, and the earlier images with them, so no table of every element's
    map is held.
    """
    elements = [(None, False, 0)]   # (local digit map, None for the identity; reverse; generator mask)
    for k, (local, reverse) in enumerate(maps):
        elements += [(local if g is None else local[g], reverse != r, mask | 1 << k) for g, r, mask in elements]
    reps, images = np.arange(dim), []
    for local, reverse, _ in elements[1:]:
        image = digit_images(local, reverse, n_digits)[reps]
        least = image >= reps
        reps, images = reps[least], [g[least] for g in images] + [image[least]]
    return reps, [reps, *images], [mask for *_, mask in elements]


def _symmetry_blocks(dim: int, orbits, chis) -> list[sp.csr_matrix]:
    """Sparse isometries U_chi of the group of ``orbits`` (``_orbits``), one per
    character chi in ``chis`` (bit k set: odd under generator k).

    Column j of U_chi is the normalised sum_g chi(g) |g r_j> over the orbit of
    representative r_j (QuSpin's symmetry blocks); columns that cancel are
    dropped, and so are empty blocks.  The trivial group gives the single block U = I.
    """
    reps, images, masks = orbits
    cols = np.tile(np.arange(len(reps)), len(images))
    rows = np.concatenate(images)
    blocks = []
    for chi in chis:
        vals = np.repeat([(-1.0) ** (mask & chi).bit_count() for mask in masks], len(reps))
        u = sp.csc_matrix((vals, (rows, cols)), shape=(dim, len(reps)))
        norms = np.sqrt(np.asarray(u.multiply(u).sum(axis=0)).ravel())
        keep = np.flatnonzero(norms)
        if len(keep):
            blocks.append((u[:, keep] @ sp.diags(1.0 / norms[keep])).tocsr())
    return blocks


def symmetry_sectors(h: Operator, basis: RydbergBasis, n_legs: int, psi: np.ndarray | None = None):
    """Verified rung symmetries of H and the isometries of their sectors.

    The symmetries are those of ``_verified_symmetries``: checked on H itself,
    with no CSR of a FlipOperator, and given ``psi`` with psi as an exact
    eigenvector, psi[perm] = +-psi.  Returns ``(names, blocks)``: the kept
    symmetries and one sparse isometry U_chi per character of the group they
    generate (``_symmetry_blocks``); given ``psi``, only the block of the
    character read off those signs, which holds psi and whose U^T H U evolves
    U^T psi exactly; with no symmetry kept, the identity.
    """
    names, maps, perms, n_digits = _verified_symmetries(h, basis, n_legs, psi)
    orbits = _orbits(h.dim, n_digits, maps)
    if psi is None:
        return names, _symmetry_blocks(h.dim, orbits, range(1 << len(maps)))
    chi = sum(1 << k for k, perm in enumerate(perms) if not np.array_equal(psi[perm], psi))
    return names, _symmetry_blocks(h.dim, orbits, [chi])


def _gauge(hop: np.ndarray) -> np.ndarray | None:
    """The +-1 signs g of a hop's states with g_p g_q hop[p, q] <= 0 for every
    element, g_0 = 1; None when the hop's graph is not connected or no such
    signs exist (a frustrated cycle)."""
    g, todo = np.zeros(len(hop)), [0]
    g[0] = 1.0
    while todo:
        p = todo.pop()
        for q in np.flatnonzero(hop[p]):
            sign = -g[p] * np.sign(hop[p, q])
            if g[q] == 0:
                g[q] = sign
                todo.append(q)
            elif g[q] != sign:
                return None
    return g if g.all() else None


class _TrivialSector:
    """H on the trivial character of a verified group, matrix-free: a vector holds
    the coefficient of each normalised orbit sum |r~> = sum_{s in orbit(r)} |s> /
    sqrt(|orbit(r)|), one per representative r of ``_orbits``.  A product embeds
    the vector, takes one product with H and reads the result at the
    representatives, where (U^T y)_r = sqrt(|orbit(r)|) y_r for a y the group
    fixes.  ``norm1`` and ``max_off_diagonal`` are H's own, and the diagonal is
    H's at the representatives.  Beyond H it holds the representatives, their
    weights and each state's orbit as an int32 (the orbit images are dropped)."""

    def __init__(self, h: Operator, orbits):
        reps, images, _ = orbits
        self.h, self.reps, self.dim = h, reps, len(reps)
        # |orbit(r)| = |G| / |stabiliser(r)|, the stabiliser counted among the images
        self.weight = np.sqrt(len(images) / sum(image == reps for image in images))
        self.orbit = np.empty(h.dim, dtype=np.int32)   # a gather from it took half the time of |G| scatters
        index = np.arange(self.dim, dtype=np.int32)
        for image in images:
            self.orbit[image] = index

    def embed(self, v: np.ndarray) -> np.ndarray:
        """U v: every state of the orbit of r takes v_r / sqrt(|orbit(r)|)."""
        return (v / self.weight)[self.orbit]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return (self.h @ self.embed(v))[self.reps] * self.weight

    def diagonal(self) -> np.ndarray:
        return self.h.diagonal()[self.reps]

    def norm1(self) -> float:
        return self.h.norm1()

    def max_off_diagonal(self) -> float:
        return self.h.max_off_diagonal()


def sector_ground_state(h: Operator, basis: RydbergBasis, n_legs: int, seed: int = 0):
    """``ground_state`` of a Rydberg ladder, solved in the trivial sector of its
    verified rung symmetries.

    By Perron-Frobenius the ground state is unique and even under every
    symmetry when four conditions hold, each checked on H: a hop (Omega != 0);
    a connected hop graph; +-1 signs of each rung's patterns, taking every hop
    element to <= 0 (``_gauge`` of the hop summed over a rung); and those signs
    unchanged by each kept symmetry's digit map.  The ladder's graph is the
    product of the rungs', so the first two hold for it as for one rung, and the
    product of the rung signs is a gauge of H that the symmetries fix.  A
    FlipOperator gives the rung's hop; a CSR operator does not, and is solved
    in the full space.  The symmetries are ``_verified_symmetries``', with no
    CSR.  ``ground_state`` then runs on the matrix-free ``_TrivialSector``, and
    its psi is embedded and certified with one full-space product at H's own
    bound, so ``residual`` and ``bound`` mean what they mean there.  When any
    condition fails, or no symmetry is kept, the group is trivial (U = I) and
    the call is ``ground_state(h)``.

    Returns ``(energy, psi, report)``, the report ``ground_state``'s with the
    ``symmetries`` solved in and the ``sector`` dimension; its ``products``
    count the sector's and the full-space certificate's.
    """
    maps = []
    if isinstance(h, FlipOperator) and h.max_off_diagonal() > 0:
        names, maps, _, n_digits = _verified_symmetries(h, basis, n_legs)
        gauge = _gauge(h.digit_hop(len(maps[0][0]))[1]) if maps else None   # on a rung's patterns
        if gauge is None or any(not np.array_equal(gauge[local], gauge) for local, _ in maps):
            maps = []
    if not maps:
        energy, psi, report = ground_state(h, seed=seed)
        return energy, psi, {**report, "symmetries": (), "sector": h.dim}
    sector = _TrivialSector(h, _orbits(h.dim, n_digits, maps))
    _, v, report = _ground_state(sector, MAX_PRODUCTS, seed)
    psi = sector.embed(v)
    report.update(products=report["products"] + 1, symmetries=tuple(names), sector=sector.dim)
    del sector   # its orbit map, before the certificate's product
    energy, report["residual"] = _certificate(h, psi, report["bound"])
    return energy, psi, report


def _block_eigenstates(h: Operator, u: sp.csr_matrix, sector_indices, k: int):
    """One block B = U^T H U of ``sector_eigenstates``: its eigenvalues, residual bounds
    and sector overlaps, the mask of its k largest overlaps and their eigenvectors.

    B is densified in Fortran order, which LAPACK overwrites in place, and the
    eigenvectors are copied once to C order, which the sparse products read; the
    locals die on return, before the next block is densified.  The residual norms
    are an einsum over the columns: ``np.linalg.norm(r, axis=0)`` squares r into
    n^2 temporaries, which grew the heap so that whether a later block fitted into
    it varied from process to process."""
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
    return vals, np.sqrt(np.einsum("ij,ij->j", r, r)) + certificate, overlaps, keep, kept


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
