"""Sparse Hamiltonian builders.

Every Hamiltonian here is real symmetric in its computational basis (the
drive phase can be chosen real), so operators are stored as real
``scipy.sparse`` matrices; only states need complex amplitudes.
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


@dataclass
class SparseOperator:
    """Hermitian (real symmetric) operator over an enumerated basis, as CSR.

    The solvers read it through ``diagonal``, ``@`` (a vector or a (dim, k)
    block), ``norm1`` and ``max_off_diagonal``, which ``FlipOperator`` provides
    without a matrix; ``matrix`` is for the symmetry and dense paths.
    """

    dim: int
    matrix: sp.csr_matrix

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
        return cls(dim, m)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def norm1(self) -> float:
        """||H||_1, the largest absolute column sum."""
        return spla.norm(self.matrix, 1)

    def max_off_diagonal(self) -> float:
        """The largest off-diagonal |H_ij| (0 for a diagonal H)."""
        m = self.matrix
        return np.abs(m.data[m.indices != np.repeat(np.arange(self.dim), np.diff(m.indptr))]).max(initial=0.0)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


@dataclass(eq=False)
class FlipOperator:
    """diag + amplitude * sum_a X_a on the complete basis of ``n_atoms`` atoms.

    X_a flips atom a, so every off-diagonal element is ``amplitude``, between
    configurations one bit apart, and only the diagonal is stored.  Products
    with H run on it directly; the CSR is assembled by
    ``SparseOperator.from_coo`` the first time ``matrix`` is read, and kept.
    """

    n_atoms: int
    diag: np.ndarray
    amplitude: float

    @property
    def dim(self) -> int:
        return len(self.diag)

    def diagonal(self) -> np.ndarray:
        return self.diag

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x for a vector or a (dim, k) block.  The flip partner of state s under
        atom a is s ^ (1 << a), so X_a x is x viewed as (2^(n-a-1), 2, 2^a, k)
        reversed along its second axis: a strided copy, with no index array."""
        xk = x.reshape(self.dim, -1)
        out = np.zeros(xk.shape, np.result_type(xk, self.diag))
        for a in range(self.n_atoms):
            view = (-1, 2, 1 << a, xk.shape[1])
            out.reshape(view)[...] += xk.reshape(view)[:, ::-1]
        out *= self.amplitude
        out += self.diag[:, None] * xk
        return out.reshape(x.shape)

    def norm1(self) -> float:
        """||H||_1 in closed form: every column holds H_ii and n_atoms flips."""
        return float(np.abs(self.diag).max() + self.n_atoms * abs(self.amplitude))

    def max_off_diagonal(self) -> float:
        return abs(self.amplitude)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        index = np.arange(self.dim)
        rows = np.concatenate([np.flatnonzero(~index & (1 << a)) for a in range(self.n_atoms)])
        cols = rows ^ np.repeat(1 << np.arange(self.n_atoms), self.dim // 2)
        return SparseOperator.from_coo(self.diag, rows, cols, self.amplitude).matrix

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


Operator = SparseOperator | FlipOperator   # either: the solvers read both the same way


def _rydberg_diagonal(basis: RydbergBasis, field: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_a field_a n_a + sum_{a<b} V_ab n_a n_b for every state, in basis order.

    The basis is a product over groups of atoms: the rungs of a constrained
    basis, the single atoms of a complete one.  The diagonal is filled group by
    group: each of the group's patterns extends every state of the atoms placed
    before it, adding the field and the couplings of its own atoms, and their
    couplings to the placed ones.  No (dim, n_atoms) occupation table is built.
    """
    size, patterns = (1, np.arange(2)) if basis.constraint is None else (
        basis.constraint.n_legs, basis.constraint.patterns())
    groups = [np.arange(g, g + size) for g in range(0, basis.n_atoms, size)]
    if basis.n_atoms % size or len(patterns) ** len(groups) != basis.dim:
        raise BasisError("the basis is not the product of its rung patterns")
    bits = ((patterns[:, None] >> np.arange(size)) & 1).astype(float)   # (pattern, atom of the group)
    diag = np.zeros(1)
    for g, atoms in enumerate(groups):
        own = bits @ field[atoms] + 0.5 * np.einsum("pi,ij,pj->p", bits, v[np.ix_(atoms, atoms)], bits)
        new = own[:, None] + diag   # row p: the placed states extended by pattern p
        for j, a in enumerate(atoms):
            placed = np.zeros(1)   # sum_b V_ab n_b over the placed atoms, per placed state
            for prev in groups[:g]:
                placed = ((bits @ v[a, prev])[:, None] + placed).ravel()
            for p in np.flatnonzero(bits[:, j]):
                new[p] += placed
        diag = new.ravel()
    return diag


def rydberg_hamiltonian(
    atoms: AtomArray,
    omega: float,
    delta: float,
    c6: float,
    basis: RydbergBasis,
    range_cutoff: float | None = None,
    frozen_sources: np.ndarray | None = None,
) -> Operator:
    """Driven Rydberg array: drive flips, detuning, and pair interactions.

    Pair energies c6 / r^6 come from the positions (``pairwise_couplings``),
    dropped beyond ``range_cutoff`` when it is set.  The per-atom detuning is
    ``delta + atoms.detuning_offset``.

    ``frozen_sources`` lists positions of permanently excited spectator
    atoms (e.g. the zero-field boundary rungs of the 00 boundary condition).
    They share the atoms' pair table, its coincidence check and its cutoff,
    and contribute the diagonal field sum_a V(a, source) n_a.

    On the complete basis (dim 2^n_atoms) this is a ``FlipOperator``, whose
    CSR is built only when read; otherwise the CSR of the basis' flip pairs.
    """
    if basis.n_atoms != atoms.n_atoms:
        raise BasisError(
            f"basis has {basis.n_atoms} atoms but the array has {atoms.n_atoms}"
        )
    n = atoms.n_atoms
    positions = atoms.positions if frozen_sources is None else np.vstack([atoms.positions, frozen_sources])
    table = pairwise_couplings(positions, c6, range_cutoff)
    v, field = table[:n, :n], -(delta + atoms.detuning_offset)
    if frozen_sources is not None:
        field += table[:n, n:].sum(axis=1)   # each atom's couplings to the sources
    diag = _rydberg_diagonal(basis, field, v)
    if basis.dim == 1 << basis.n_atoms:
        return FlipOperator(basis.n_atoms, diag, 0.5 * omega)

    rows, cols = [], []
    index = np.arange(basis.dim)
    for a in range(atoms.n_atoms):
        partner = basis.index_of(basis.states ^ (1 << a))
        src = np.flatnonzero(index < partner)   # absent partners are -1
        rows.append(src)
        cols.append(partner[src])
    rows, cols = np.concatenate(rows), np.concatenate(cols)   # frees the pieces first
    return SparseOperator.from_coo(diag, rows, cols, 0.5 * omega)


def effective_spin1_hamiltonian(
    coeffs: EffectiveCoefficients,
    n_sites: int,
    bc: BoundaryCondition = BoundaryCondition.OBC,
) -> SparseOperator:
    """Generic effective spin-1 chain of ``coeffs``.

    Sites at distance k interact through R_k m_i m_j + R'_k m_i^2 m_j^2, with
    (R_1, R'_1) = (R, R') and the range-k terms of ``coeffs.longrange``.  Under
    PBC each pair at ring distance k is coupled once: all n_sites wrapped
    pairs when 2k < n_sites, the n_sites/2 antipodal pairs when 2k = n_sites.
    A range-k term (k >= 2) with no pair, k >= n_sites open or 2k > n_sites
    periodic, is ignored with a warning.  Edge overrides ``d_first``/``d_last``
    replace D on the boundary sites of an open chain; the 00BC variant
    additionally shifts both edge (L^z)^2 coefficients by ``coeffs.bc_lz2_edge``
    and adds the constant ``coeffs.bc_const``.  A ring needs n_sites >= 3 and has
    no edge: every site keeps the bulk D, and the constant counts one ``const_bond``
    per coupled nearest-neighbour pair.  The hopping is -J (U+ + U-) plus -J2 on |-1> <-> |+1>.
    """
    bc = BoundaryCondition(bc)
    if n_sites < (3 if bc is BoundaryCondition.PBC else 1):   # a 2-site ring has one bond, not two per site
        raise ValueError(f"n_sites must be >= 1, and >= 3 on a ring, got {n_sites}")
    dim = 3**n_sites
    digits = Spin1Basis(n_sites).digits()
    m = digits.astype(float)
    m2 = m * m

    def pairs(k):
        if bc is BoundaryCondition.PBC:
            return n_sites if 2 * k < n_sites else k if 2 * k == n_sites else 0
        return n_sites - k

    d_site = np.full(n_sites, coeffs.D)
    const = n_sites * coeffs.const_site + pairs(1) * coeffs.const_bond
    if bc is not BoundaryCondition.PBC:
        if coeffs.d_first is not None:
            d_site[0] = coeffs.d_first
        if coeffs.d_last is not None:
            d_site[-1] = coeffs.d_last
    if bc is BoundaryCondition.ZERO_ZERO:
        d_site[0] += coeffs.bc_lz2_edge
        d_site[-1] += coeffs.bc_lz2_edge
        const += coeffs.bc_const

    diag = m2 @ d_site + np.full(dim, const)
    for k, r, rp in ((1, coeffs.R, coeffs.Rp), *coeffs.longrange):
        n_pairs = pairs(k)
        if n_pairs <= 0 and k > 1:   # a single site has no nearest-neighbour bond to miss
            warnings.warn(f"long-range term k={k} ignored for n_sites={n_sites}")
        for i in range(n_pairs):
            j = (i + k) % n_sites
            diag += r * m[:, i] * m[:, j] + rp * m2[:, i] * m2[:, j]

    # Raising site s by dm moves index i to i + dm * stride: dm = 1 is the hop
    # at -J, dm = 2 the clock pair -1 -> +1 at -J2, emitted only when J2 != 0.
    rows, cols = [], []
    for dm in (1, 2) if coeffs.J2 else (1,):
        for s in range(n_sites):
            stride = 3 ** (n_sites - 1 - s)
            src = np.flatnonzero(digits[:, s] <= 1 - dm)
            rows.append(src)
            cols.append(src + dm * stride)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    amplitude = -coeffs.J
    if coeffs.J2:   # a site can step by one in two thirds of the states, and by two in one third
        amplitude = np.repeat([-coeffs.J, -coeffs.J2], [2 * len(rows) // 3, len(rows) // 3])
    return SparseOperator.from_coo(diag, rows, cols, amplitude)


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
