"""Sparse Hamiltonian builders.

Every Hamiltonian here is real symmetric in its computational basis (the
drive phase can be chosen real), so operators are stored as real
``scipy.sparse`` matrices; only states need complex amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .basis import BasisError, RydbergBasis, Spin1Basis
from .effective import EffectiveCoefficients, Flavor, TargetCouplings
from .geometry import AtomArray, CouplingMatrix


class BoundaryCondition(str, Enum):
    OBC = "obc"
    PBC = "pbc"
    ZERO_ZERO = "00bc"


@dataclass
class SparseOperator:
    """Hermitian (real symmetric) operator over an enumerated basis."""

    dim: int
    matrix: sp.csr_matrix

    @classmethod
    def from_coo(cls, dim, rows, cols, vals) -> "SparseOperator":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if np.any(rows > cols):
            raise ValueError("entries must be supplied with row <= col")
        upper = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
        upper.sum_duplicates()
        diag = sp.diags(upper.diagonal())
        m = upper + upper.T - diag
        m.eliminate_zeros()
        return cls(dim, m.tocsr())

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def entries_upper(self):
        """(row, col, value) triples with row <= col, each pair once."""
        coo = sp.triu(self.matrix).tocoo()
        return list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))

    def export_coo_text(self) -> str:
        lines = [str(self.dim)]
        for r, c, v in self.entries_upper():
            lines.append(f"{r} {c} {v:.17g}")
        return "\n".join(lines) + "\n"

    def __matmul__(self, other):
        return self.matrix @ other


def rydberg_hamiltonian(
    atoms: AtomArray,
    omega: float,
    delta: float,
    couplings: CouplingMatrix,
    basis: RydbergBasis,
    range_cutoff: float | None = None,
    frozen_sources: np.ndarray | None = None,
    c6: float | None = None,
) -> SparseOperator:
    """Driven Rydberg array: drive flips, detuning, and pair interactions.

    Pairs farther apart than ``range_cutoff`` are dropped when it is set.
    The per-atom detuning is ``delta + atoms.detuning_offset``.

    ``frozen_sources`` lists positions of permanently excited spectator
    atoms (e.g. the zero-field boundary rungs of the 00 boundary condition);
    they contribute a diagonal field sum_a V(a, source) n_a, subject to the
    same ``range_cutoff``, and require ``c6``.
    """
    if basis.n_atoms != atoms.n_atoms:
        raise BasisError(
            f"basis has {basis.n_atoms} atoms but the array has {atoms.n_atoms}"
        )
    occ = basis.occupations().astype(float)
    v = couplings.v.copy()
    if range_cutoff is not None:
        pos = atoms.positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        v[dist > range_cutoff] = 0.0
    det = delta + atoms.detuning_offset
    # two two-operand einsums: the three-operand one is 4x slower at dim 16384
    diag = -occ @ det + 0.5 * np.einsum("sj,sj->s", np.einsum("si,ij->sj", occ, v), occ)
    if frozen_sources is not None:
        if c6 is None:
            raise ValueError("frozen_sources requires the c6 coefficient")
        field = np.zeros(atoms.n_atoms)
        for src in np.atleast_2d(np.asarray(frozen_sources, dtype=float)):
            d = np.linalg.norm(atoms.positions - src, axis=1)
            if np.any(d == 0.0):
                raise ValueError("frozen source coincides with an atom")
            vs = c6 / d**6
            if range_cutoff is not None:
                vs[d > range_cutoff] = 0.0
            field += vs
        diag = diag + occ @ field
    del occ   # set-up peak memory: not needed by the sparse assembly below

    dim = basis.dim
    rows = [np.arange(dim, dtype=np.int64)]
    cols = [np.arange(dim, dtype=np.int64)]
    vals = [diag]
    half = 0.5 * omega
    if half != 0.0:
        index = np.arange(dim)
        for a in range(atoms.n_atoms):
            partner = basis.index_of(basis.states ^ (1 << a))
            src = np.flatnonzero(index < partner)   # absent partners are -1
            rows.append(src)
            cols.append(partner[src])
            vals.append(np.full(len(src), half))
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))   # frees the pieces first
    return SparseOperator.from_coo(dim, rows, cols, vals)


def _spin1_flip_entries(n_sites: int, flavor: Flavor):
    """Row/col index pairs for -J * sum_i (U+_i + U-_i) (or clock C)."""
    dim = 3**n_sites
    digits = Spin1Basis(n_sites).digits()
    rows = []
    cols = []
    for s in range(n_sites):
        stride = 3 ** (n_sites - 1 - s)
        d = digits[:, s]
        # m -> m+1 connects index i to i + stride (digit value m+1 -> m+2)
        src = np.flatnonzero(d <= 0)
        rows.append(src)
        cols.append(src + stride)
        if flavor is Flavor.CLOCK_C:
            # extra |-1> <-> |+1| element of the clock operator
            src = np.flatnonzero(d == -1)
            rows.append(src)
            cols.append(src + 2 * stride)
    return np.concatenate(rows), np.concatenate(cols), dim


def effective_spin1_hamiltonian(
    coeffs: EffectiveCoefficients,
    n_sites: int,
    bc: BoundaryCondition = BoundaryCondition.OBC,
    longrange: Sequence[tuple[int, float, float]] | None = None,
) -> SparseOperator:
    """Generic effective spin-1 chain D, R, R', J.

    ``longrange`` lists additional interactions (k, R_k, R'_k) between sites
    i and i+k; entries with k >= n_sites are ignored with a warning.  Edge
    overrides ``d_first``/``d_last`` replace D on the boundary sites; the
    00BC variant additionally shifts both edge (L^z)^2 coefficients by
    ``coeffs.bc_lz2_edge`` and adds the constant ``coeffs.bc_const``.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    bc = BoundaryCondition(bc)
    dim = 3**n_sites
    m = Spin1Basis(n_sites).digits().astype(float)
    m2 = m * m

    d_site = np.full(n_sites, coeffs.D)
    if coeffs.d_first is not None:
        d_site[0] = coeffs.d_first
    if coeffs.d_last is not None:
        d_site[-1] = coeffs.d_last
    const = coeffs.const_total(n_sites)
    if bc is BoundaryCondition.ZERO_ZERO:
        d_site[0] += coeffs.bc_lz2_edge
        d_site[-1] += coeffs.bc_lz2_edge
        const += coeffs.bc_const

    diag = m2 @ d_site + np.full(dim, const)

    bonds = [(i, i + 1, coeffs.R, coeffs.Rp) for i in range(n_sites - 1)]
    if bc is BoundaryCondition.PBC and n_sites > 2:
        bonds.append((n_sites - 1, 0, coeffs.R, coeffs.Rp))
    if longrange:
        import warnings

        for k, rk, rpk in longrange:
            if k >= n_sites:
                warnings.warn(f"long-range term k={k} ignored for n_sites={n_sites}")
                continue
            bonds.extend((i, i + k, rk, rpk) for i in range(n_sites - k))
    for i, j, r, rp in bonds:
        diag += r * m[:, i] * m[:, j] + rp * m2[:, i] * m2[:, j]

    rows = [np.arange(dim, dtype=np.int64)]
    cols = [np.arange(dim, dtype=np.int64)]
    vals = [diag]
    if coeffs.J != 0.0:
        fr, fc, _ = _spin1_flip_entries(n_sites, coeffs.flavor)
        rows.append(fr)
        cols.append(fc)
        vals.append(np.full(len(fr), -coeffs.J))
    return SparseOperator.from_coo(
        dim, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def cahm_hamiltonian(t: TargetCouplings, n_sites: int) -> SparseOperator:
    """Compact Abelian Higgs chain (U/2) sum (L^z)^2 - Y sum L^z L^z - X sum U^x.

    This is the open effective chain with D = U/2, R = -Y, R' = 0, J = X/2
    and the ladder flavor.  Only the spin-1 truncation is exercised; Y' is
    ignored.
    """
    coeffs = EffectiveCoefficients(D=0.5 * t.U, R=-t.Y, Rp=0.0, J=0.5 * t.X)
    return effective_spin1_hamiltonian(coeffs, n_sites)


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
    dim = len(cfg)
    c = charge_kernel(n_sites)
    s = cfg.astype(float)
    inner = s[:, :n_sites]
    diag = 0.5 * t.U * np.einsum("si,ij,sj->s", inner, c, inner)
    diag += 0.5 * t.Y * np.sum(s * s, axis=1)

    # Hopping (X/2)(U+_i U-_{i+1} + h.c.) moves one unit of charge between
    # neighboring links; it preserves the zero-charge sector.
    key = {tuple(row): k for k, row in enumerate(map(tuple, cfg))}
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], [diag]
    hr, hc = [], []
    for k, row in enumerate(cfg):
        for i in range(n_sites):
            if row[i] < 1 and row[i + 1] > -1:
                other = list(row)
                other[i] += 1
                other[i + 1] -= 1
                k2 = key.get(tuple(other))
                if k2 is not None and k < k2:
                    hr.append(k)
                    hc.append(k2)
                elif k2 is not None and k2 < k:
                    hr.append(k2)
                    hc.append(k)
    if hr and t.X != 0.0:
        rows.append(np.array(hr))
        cols.append(np.array(hc))
        vals.append(np.full(len(hr), -0.5 * t.X))
    op = SparseOperator.from_coo(
        dim, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    return op, cfg


def sqed_field_hamiltonian(
    t: TargetCouplings,
    n_sites: int,
    bc: BoundaryCondition = BoundaryCondition.ZERO_ZERO,
    flavor: Flavor = Flavor.LADDER_U,
) -> SparseOperator:
    """Field-representation Hamiltonian with the quartic Y' penalty.

    Expanded form: (U/2 + Y) sum (L^z)^2 - (Y + Y') sum L^z L^z
    + Y' sum (L^z)^2 (L^z)^2 - (X/2) sum (U+ + U-), with the boundary field
    values fixed to zero for 00BC.  For OBC the edge (L^z)^2 coefficients
    drop to U/2 + Y/2.
    """
    bc = BoundaryCondition(bc)
    coeffs = EffectiveCoefficients(
        D=0.5 * t.U + t.Y,
        R=-(t.Y + t.Yp),
        Rp=t.Yp,
        J=0.5 * t.X,
        flavor=flavor,
    )
    if bc is BoundaryCondition.OBC:
        coeffs = coeffs.replace(
            d_first=0.5 * t.U + 0.5 * t.Y, d_last=0.5 * t.U + 0.5 * t.Y
        )
    elif bc is BoundaryCondition.ZERO_ZERO:
        # The boundary bonds to the frozen zero fields contribute no cross
        # terms, so 00BC is the plain uniform-D chain.
        bc = BoundaryCondition.OBC
    else:
        raise ValueError("field representation supports OBC and 00BC only")
    return effective_spin1_hamiltonian(coeffs, n_sites, bc)


def ising_chain(
    j_coupling: float,
    h_field: float,
    n_sites: int,
    bc: BoundaryCondition = BoundaryCondition.OBC,
) -> SparseOperator:
    """Transverse-field Ising chain -j sum sz sz - h sum sx."""
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    bc = BoundaryCondition(bc)
    dim = 1 << n_sites
    states = np.arange(dim)
    sz = 1.0 - 2.0 * ((states[:, None] >> np.arange(n_sites)[None, :]) & 1)
    diag = np.zeros(dim)
    n_bonds = n_sites if bc is BoundaryCondition.PBC else n_sites - 1
    for i in range(n_bonds):
        diag -= j_coupling * sz[:, i] * sz[:, (i + 1) % n_sites]
    rows = [states.astype(np.int64)]
    cols = [states.astype(np.int64)]
    vals = [diag]
    if h_field != 0.0:
        for i in range(n_sites):
            flipped = states ^ (1 << i)
            src = states[states < flipped]
            rows.append(src.astype(np.int64))
            cols.append((src ^ (1 << i)).astype(np.int64))
            vals.append(np.full(len(src), -h_field))
    return SparseOperator.from_coo(
        dim, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
