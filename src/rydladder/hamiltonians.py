"""Hamiltonian builders.

Every Hamiltonian here is real symmetric in its computational basis (the
drive phase can be chosen real), so operators are real; only states need
complex amplitudes.  Product-basis Hamiltonians are ``FlipOperator``s, which
store a diagonal and one on-site hop; the rest are ``scipy.sparse`` CSR.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import BasisError, RydbergBasis, Spin1Basis
from .effective import BoundaryCondition, EffectiveCoefficients, TargetCouplings
from .geometry import AtomArray, pairwise_couplings

GROUP_DIM = 32   # FlipOperator applies its hop to d^q <= GROUP_DIM states of q sites at a time


@dataclass
class SparseOperator:
    """Hermitian (real symmetric) operator over an enumerated basis, as CSR.

    The solvers read it through ``diagonal``, ``@`` (a vector), ``norm1`` and
    ``max_off_diagonal``, which ``FlipOperator`` provides without a matrix;
    ``matrix`` is for the symmetry and dense paths.
    """

    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_coo(cls, diag, rows, cols, amplitude) -> "SparseOperator":
        """The form of every Hamiltonian here: diag + the sum over the flip pairs,
        each given once with row < col, of amplitude * (|row><col| + |col><row|),
        with one amplitude for every pair or one per pair."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if np.any(rows >= cols):
            raise ValueError("flip pairs must be supplied with row < col")
        dim = len(diag)
        idx = np.int32 if dim < 2**31 else np.int64   # scipy's own index type, so the COO takes no copy
        index = np.arange(dim, dtype=idx)
        vals = np.empty(dim + 2 * len(rows))
        vals[:dim] = diag
        vals[dim:].reshape(2, -1)[...] = amplitude
        m = sp.coo_matrix((vals, (np.concatenate([index, rows, cols], dtype=idx),
                                  np.concatenate([index, cols, rows], dtype=idx))), shape=(dim, dim)).tocsr()
        m.eliminate_zeros()
        return cls(m)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def norm1(self) -> float:
        """||H||_1, the largest absolute column sum."""
        return spla.norm(self.matrix, 1)

    def max_off_diagonal(self) -> float:
        """The largest off-diagonal |H_ij| (0 for a diagonal H), from the symmetric H's upper triangle."""
        return np.abs(sp.triu(self.matrix, 1).data).max(initial=0.0)


@dataclass(eq=False)
class FlipOperator:
    """diag + sum_s hop_s on ``n_sites`` sites of local dimension d = len(hop).

    hop_s is the real symmetric d x d ``hop``, with zero diagonal, acting on
    site s, and site 0 is the least significant digit of the state index: the
    complete Rydberg basis (d = 2, hop Omega/2 between 0 and 1), a rung-capped
    one (d rung patterns) and the spin-1 chain (d = 3).  Only the diagonal and
    the hop are stored.  Products run q sites at a time, d^q <= GROUP_DIM, as small
    dense matmuls (the shuffle algorithm for a Kronecker sum); the CSR is
    assembled from the same groups the first time ``matrix`` is read, and kept.
    """

    n_sites: int
    diag: np.ndarray
    hop: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.diag)

    def diagonal(self) -> np.ndarray:
        return self.diag

    @cached_property
    def _groups(self) -> list[tuple[int, np.ndarray]]:
        """(lo, K) per group of q sites from site lo, d^q <= GROUP_DIM: K is the hop
        summed over those sites, a d^q x d^q matrix.  Built on first use."""
        d = len(self.hop)
        q = 1
        while q < self.n_sites and d ** (q + 1) <= GROUP_DIM:
            q += 1
        sums = [self.hop]   # sums[g - 1]: the hop summed over g sites
        while len(sums) < q:
            sums.append(np.kron(self.hop, np.eye(len(sums[-1]))) + np.kron(np.eye(d), sums[-1]))
        return [(lo, sums[min(q, self.n_sites - lo) - 1]) for lo in range(0, self.n_sites, q)]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x for a vector x: diag * x plus, per group, K along that group's
        digits of x viewed as (d^(n-lo-q), d^q, d^lo).  The lowest group is x K
        (K is symmetric) on x viewed as a stack of d^q x d^q blocks: as one
        (dim / d^q) x d^q product it ran on two BLAS threads, whose packing
        buffers raised a 20-atom solve's peak RSS by 7 MB.  Beyond the output
        the product holds one scratch vector, into which every matmul writes."""
        d = len(self.hop)
        out = self.diag * x
        scratch = np.empty_like(out)
        for lo, k in self._groups:
            if lo == 0:
                view = (-1, min(len(k), self.dim // len(k)), len(k))
                np.matmul(x.reshape(view), k, out=scratch.reshape(view))
            else:
                view = (-1, len(k), d**lo)
                np.matmul(k, x.reshape(view), out=scratch.reshape(view))
            out += scratch
        return out

    def norm1(self) -> float:
        """||H||_1 = max |H_ii| + sum_s c(p_s), c the hop's absolute column sums,
        from ``_product_diagonal``: no matrix is built."""
        c = np.abs(self.hop).sum(axis=0)[:, None]
        n = self.n_sites
        return float((np.abs(self.diag) + _product_diagonal(c, np.ones(n), np.zeros((n, n)))).max())

    def max_off_diagonal(self) -> float:
        return float(np.abs(self.hop).max())

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The CSR, by ``SparseOperator.from_coo``: diag and, per group, the pairs
        p < q of K along that group's digits, the index viewed as (d^(n-lo-q), d^q,
        d^lo) as in ``@``; one amplitude when K's nonzero elements are all equal,
        as a Rydberg hop's are, so that no amplitude array is built."""
        d, index = len(self.hop), np.arange(self.dim)
        flips = [(index.reshape(-1, len(k), d**lo), k, *np.nonzero(np.triu(k, 1))) for lo, k in self._groups]
        values = np.concatenate([k[p, q] for _, k, p, q in flips])
        amp = values[0] if len(set(values)) == 1 else np.concatenate([np.broadcast_to(
            k[p, q][:, None], (len(view), len(p), view.shape[2])) for view, k, p, q in flips], axis=None)
        rows = np.concatenate([view[:, p] for view, _, p, _ in flips], axis=None)
        cols = np.concatenate([view[:, q] for view, _, _, q in flips], axis=None)
        return SparseOperator.from_coo(self.diag, rows, cols, amp).matrix


Operator = SparseOperator | FlipOperator   # either: the solvers read both the same way


def _product_diagonal(features: np.ndarray, field: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i field_i f_i + sum_{i<j} v_ij f_i f_j for every state of a product of sites.

    Local state p of a site carries the k features ``features[p]``; feature j of
    site s is entry s*k + j of ``field`` and of ``v`` (upper triangle read), and
    site 0 is the least significant digit.  Sites are placed one at a time, each
    placed state carrying the field that every feature not yet placed feels, so a
    site costs O(1) numpy calls (einsum, not BLAS) and no (dim, n) table is built.
    """
    k = features.shape[1]
    v = np.triu(v, 1)
    diag, felt = np.zeros(1), field[:, None]   # felt: (features not yet placed, placed states)
    for s in range(0, len(field), k):
        new = np.einsum("pj,jx->px", features, felt[:k])   # in place below: one fresh array per site
        new += np.einsum("pj,jl,pl->p", features, v[s:s + k, s:s + k], features)[:, None]
        new += diag
        diag = new.ravel()
        felt = (np.einsum("pj,jl->lp", features, v[s:s + k, s + k:])[:, :, None] + felt[k:, None]).reshape(-1, len(diag))
    return diag


def rydberg_hamiltonian(
    atoms: AtomArray,
    omega: float,
    delta: float,
    c6: float,
    basis: RydbergBasis,
    range_cutoff: float | None = None,
    frozen_sources: np.ndarray | None = None,
) -> FlipOperator:
    """Driven Rydberg array: drive flips, detuning, and pair interactions.

    Pair energies c6 / r^6 come from the positions (``pairwise_couplings``),
    dropped beyond ``range_cutoff`` when it is set.  The per-atom detuning is
    ``delta + atoms.detuning_offset``.

    ``frozen_sources`` lists positions of permanently excited spectator
    atoms (e.g. the zero-field boundary rungs of the 00 boundary condition).
    They share the atoms' pair table, its coincidence check and its cutoff,
    and contribute the diagonal field sum_a V(a, source) n_a.

    The result is a ``FlipOperator`` over the rungs' patterns (over single
    atoms on the complete basis), whose CSR is built only when read.
    """
    if basis.n_atoms != atoms.n_atoms:
        raise BasisError(f"basis has {basis.n_atoms} atoms but the array has {atoms.n_atoms}")
    n = atoms.n_atoms
    positions = atoms.positions if frozen_sources is None else np.vstack([atoms.positions, frozen_sources])
    table = pairwise_couplings(positions, c6, range_cutoff)
    v, field = table[:n, :n], -(delta + atoms.detuning_offset)
    if frozen_sources is not None:
        field += table[:n, n:].sum(axis=1)   # each atom's couplings to the sources
    # a product of rung patterns, or of single atoms on the complete basis
    size, patterns = (1, np.arange(2)) if basis.constraint is None else (
        basis.constraint.n_legs, basis.constraint.patterns())
    if n % size or len(patterns) ** (n // size) != basis.dim:
        raise BasisError("the basis is not the product of its rung patterns")
    bits = ((patterns[:, None] >> np.arange(size)) & 1).astype(float)   # (pattern, atom of the rung)
    one_flip = np.abs(bits[:, None] - bits[None]).sum(axis=2) == 1
    return FlipOperator(n // size, _product_diagonal(bits, field, v), 0.5 * omega * one_flip)


def effective_spin1_hamiltonian(
    coeffs: EffectiveCoefficients,
    n_sites: int,
    bc: BoundaryCondition = BoundaryCondition.OBC,
) -> FlipOperator:
    """Generic effective spin-1 chain of ``coeffs``.

    Sites at distance k interact through R_k m_i m_j + R'_k m_i^2 m_j^2, with
    (R_1, R'_1) = (R, R') and the range-k terms of ``coeffs.longrange``.  Under
    PBC each pair at ring distance k is coupled once: all n_sites wrapped
    pairs when 2k < n_sites, the n_sites/2 antipodal pairs when 2k = n_sites.
    A range-k term (k >= 2) with no pair, k >= n_sites open or 2k > n_sites
    periodic, is ignored with a warning.  Edge overrides ``d_first``/``d_last``
    replace D on the boundary sites of an open chain, as shifts from D, so a
    one-site chain takes d_first + d_last - D; the 00BC variant
    additionally shifts both edge (L^z)^2 coefficients by ``coeffs.bc_lz2_edge``
    and adds the constant ``coeffs.bc_const``.  A ring needs n_sites >= 3 and has
    no edge: every site keeps the bulk D, and the constant counts one ``const_bond``
    per coupled nearest-neighbour pair.  The hopping is -J (U+ + U-) plus -J2 on |-1> <-> |+1>.
    """
    bc = BoundaryCondition(bc)
    if n_sites < (3 if bc is BoundaryCondition.PBC else 1):   # a 2-site ring has one bond, not two per site
        raise ValueError(f"n_sites must be >= 1, and >= 3 on a ring, got {n_sites}")

    def pairs(k):
        if bc is BoundaryCondition.PBC:
            return n_sites if 2 * k < n_sites else k if 2 * k == n_sites else 0
        return n_sites - k

    d_site = np.full(n_sites, coeffs.D)
    const = n_sites * coeffs.const_site + pairs(1) * coeffs.const_bond
    if bc is not BoundaryCondition.PBC:
        # edge values are shifts from D, so a lone site takes both; on a longer
        # chain d_site[i] - D is an exact 0.0 and each edge is d_first/d_last to the bit
        for i, d_edge in ((0, coeffs.d_first), (-1, coeffs.d_last)):
            if d_edge is not None:
                d_site[i] = d_edge + (d_site[i] - coeffs.D)
    if bc is BoundaryCondition.ZERO_ZERO:
        d_site[0] += coeffs.bc_lz2_edge
        d_site[-1] += coeffs.bc_lz2_edge
        const += coeffs.bc_const

    v = np.zeros((n_sites, 2, n_sites, 2))   # between the features (m, m^2) of two sites
    for k, r, rp in ((1, coeffs.R, coeffs.Rp), *coeffs.longrange):
        n_pairs = pairs(k)
        if n_pairs <= 0 and k > 1:   # a single site has no nearest-neighbour bond to miss
            warnings.warn(f"long-range term k={k} ignored for n_sites={n_sites}")
        i = np.arange(n_pairs)
        v[i, :, (i + k) % n_sites] += np.diag([r, rp])
    v = v.reshape(2 * n_sites, -1)
    # Site 1 is the most significant digit, so the sites are placed last to
    # first; the couplings are unchanged by the reversal, the edge fields are not.
    field = np.outer(d_site[::-1], [0.0, 1.0]).ravel()
    features = np.array([[-1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])   # (m, m^2) of digit m + 1
    diag = _product_diagonal(features, field, v + v.T) + const
    j, j2 = coeffs.J, coeffs.J2
    return FlipOperator(n_sites, diag, -np.array([[0.0, j, j2], [j, 0.0, j], [j2, j, 0.0]]))


def charge_kernel(n_sites: int) -> np.ndarray:
    """c_jk = n_sites + 1 - max(j, k), 1-based j, k."""
    j = np.arange(1, n_sites + 1)
    return (n_sites + 1 - np.maximum.outer(j, j)).astype(float)


def sqed_charge_hamiltonian(t: TargetCouplings, n_sites: int):
    """Charge-representation Hamiltonian on n_sites+1 links, total charge 0.

    Returns (operator, charge_configs) with configs of shape (dim, n_sites+1).
    """
    n_links = n_sites + 1
    all_cfg = Spin1Basis(n_links).digits()
    keep = np.flatnonzero(all_cfg.sum(axis=1) == 0)
    cfg = all_cfg[keep]
    c = charge_kernel(n_sites)
    s = cfg.astype(float)
    inner = s[:, :n_sites]
    diag = 0.5 * t.U * np.einsum("si,ij,sj->s", inner, c, inner)
    diag += 0.5 * t.Y * np.sum(s * s, axis=1)

    # Hopping -(X/2)(U+_i U-_{i+1} + h.c.) moves one unit of charge between
    # neighboring links.  Raising link i and lowering link i+1 keeps the total
    # charge and adds 3^(n_links-1-i) - 3^(n_links-2-i) > 0 to the base-3
    # index, so the partner is a later state of the sector.
    rows, cols = [], []
    for i in range(n_sites):
        src = np.flatnonzero((cfg[:, i] < 1) & (cfg[:, i + 1] > -1))
        rows.append(src)
        cols.append(np.searchsorted(keep, keep[src] + 2 * 3 ** (n_links - 2 - i)))
    op = SparseOperator.from_coo(diag, np.concatenate(rows), np.concatenate(cols), -0.5 * t.X)
    return op, cfg
