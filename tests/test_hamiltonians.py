"""Hamiltonian builders: diagonal oracles, flip structure, representations."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from rydladder import (
    BoundaryCondition,
    EffectiveCoefficients,
    FlipOperator,
    LadderKind,
    LadderSpec,
    RungConstraint,
    RydbergBasis,
    SparseOperator,
    Spin1Basis,
    StateDictionary,
    TargetCouplings,
    build_ladder,
    charge_kernel,
    coeffs_in_plane,
    coeffs_prism,
    coeffs_three_leg,
    coeffs_two_leg,
    effective_spin1_hamiltonian,
    enumerate_rydberg,
    rydberg_hamiltonian,
    sqed_charge_hamiltonian,
    target_coefficients,
)
from rydladder.basis import BasisError


def _is_symmetric(op: SparseOperator) -> bool:
    m = op.matrix.toarray()
    return np.allclose(m, m.T, atol=0.0)


def _random_rydberg(seed=0, kind=LadderKind.TWO_LEG, n_rungs=3):
    rng = np.random.default_rng(seed)
    atoms = build_ladder(
        LadderSpec(kind, n_rungs, a_x=float(rng.uniform(3, 8)), a_y=float(rng.uniform(2, 5))),
        delta0=float(rng.uniform(-1, 1)),
    )
    basis = enumerate_rydberg(atoms.n_atoms)
    c6 = float(rng.uniform(50, 500))
    omega = float(rng.uniform(0.1, 3))
    delta = float(rng.uniform(-2, 2))
    return atoms, basis, c6, omega, delta


def test_from_coo_rejects_lower_triangle():
    for row, col in ((1, 0), (1, 1)):   # flip pairs are strictly upper; the diagonal is separate
        with pytest.raises(ValueError):
            SparseOperator.from_coo([0.0, 0.0], [row], [col], 1.0)
    op = SparseOperator.from_coo([1.5, 0.25, 0.0], [0], [2], -2.0)
    assert np.array_equal(op.matrix.toarray(), [[1.5, 0.0, -2.0], [0.0, 0.25, 0.0], [-2.0, 0.0, 0.0]])
    assert op.matrix.nnz == 4   # the zero diagonal entry is not stored


def test_from_coo_takes_one_amplitude_per_pair():
    rng = np.random.default_rng(3)
    diag = rng.normal(size=6)
    rows, cols = np.array([0, 1, 2, 0]), np.array([3, 5, 4, 1])
    amps = rng.normal(size=4)
    ref = np.diag(diag)
    for r, c, a in zip(rows, cols, amps):
        ref[r, c] = ref[c, r] = a
    assert np.array_equal(SparseOperator.from_coo(diag, rows, cols, amps).matrix.toarray(), ref)


@pytest.mark.parametrize("seed", range(5))
def test_rydberg_hamiltonian_symmetric(seed):
    atoms, basis, c6, omega, delta = _random_rydberg(seed)
    h = rydberg_hamiltonian(atoms, omega, delta, c6, basis)
    assert _is_symmetric(h)


def test_rydberg_diagonal_against_direct_sum():
    """Diagonal entries recomputed independently per configuration."""
    atoms, basis, c6, omega, delta = _random_rydberg(7)
    h = rydberg_hamiltonian(atoms, omega, delta, c6, basis)
    diag = h.matrix.diagonal()
    det = delta + atoms.detuning_offset
    for i in np.random.default_rng(1).choice(basis.dim, 20, replace=False):
        s = int(basis.states[i])
        occ = [(s >> a) & 1 for a in range(atoms.n_atoms)]
        e = -sum(o * d for o, d in zip(occ, det))
        for a in range(atoms.n_atoms):
            for b in range(a + 1, atoms.n_atoms):
                e += occ[a] * occ[b] * c6 / np.sum((atoms.positions[a] - atoms.positions[b]) ** 2) ** 3
        assert diag[i] == pytest.approx(e, rel=1e-12, abs=1e-12)


def test_rydberg_drive_connects_single_flips():
    """Drive elements Omega/2 join exactly the single flips that stay in the basis."""
    atoms, full, c6, omega, delta = _random_rydberg(3)
    constrained = enumerate_rydberg(atoms.n_atoms, RungConstraint(atoms.n_legs, 1))
    for basis in (full, constrained):
        m = rydberg_hamiltonian(atoms, omega, delta, c6, basis).matrix.toarray()
        np.fill_diagonal(m, 0.0)
        expected = np.zeros_like(m)
        for i, s in enumerate(basis.states):
            for a in range(atoms.n_atoms):
                j = basis.index_of(int(s) ^ (1 << a))
                if j >= 0:
                    expected[i, j] = 0.5 * omega
        assert np.array_equal(m, expected)
    # the full basis has every flip; the rung cap removes some
    assert np.count_nonzero(expected) < constrained.dim * atoms.n_atoms


def test_range_cutoff_drops_far_pairs():
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 3, a_x=5.0, a_y=2.0))
    basis = enumerate_rydberg(atoms.n_atoms)
    h_nn = rydberg_hamiltonian(atoms, 0.0, 0.0, 100.0, basis, range_cutoff=5.5)
    # configuration with atoms 0 and 4 excited (distance 10): energy 0 after cutoff
    i = basis.index_of(0b010001)
    assert h_nn.matrix.diagonal()[i] == pytest.approx(0.0)


def test_frozen_sources_add_classical_field():
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 2, a_x=5.0, a_y=2.0))
    basis = enumerate_rydberg(atoms.n_atoms)
    src = np.array([[-5.0, 0.0, 0.0]])
    h = rydberg_hamiltonian(atoms, 0.0, 0.0, 64.0, basis, frozen_sources=src)
    i = basis.index_of(0b0001)  # atom 0 excited, 5 um from the source
    assert h.matrix.diagonal()[i] == pytest.approx(64.0 / 5.0**6)


def test_frozen_source_on_an_atom_is_rejected():
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 2, a_x=5.0, a_y=2.0))
    basis = enumerate_rydberg(atoms.n_atoms)
    with pytest.raises(ValueError):
        rydberg_hamiltonian(atoms, 0.0, 0.0, 64.0, basis, frozen_sources=atoms.positions[[2]])


def _occupation_reference(atoms, omega, delta, c6, basis, range_cutoff=None, sources=None):
    """The Rydberg Hamiltonian from the (dim, n_atoms) occupation table, read off
    each state's bits, and the flip partners found by ``index_of``, assembled by
    ``from_coo``; the pair energies c6 / r^6 are computed here from the positions."""
    occ = ((basis.states[:, None] >> np.arange(atoms.n_atoms)) & 1).astype(float)
    dist = np.linalg.norm(atoms.positions[:, None] - atoms.positions[None], axis=2)
    np.fill_diagonal(dist, np.inf)
    v = np.where(dist > (range_cutoff or np.inf), 0.0, c6 / dist**6)
    field = -(delta + atoms.detuning_offset)
    for src in [] if sources is None else sources:
        d = np.linalg.norm(atoms.positions - src, axis=1)
        field = field + np.where(d > (range_cutoff or np.inf), 0.0, c6 / d**6)
    diag = occ @ field + 0.5 * np.einsum("si,ij,sj->s", occ, v, occ)
    rows, cols = [], []
    for a in range(atoms.n_atoms):
        partner = basis.index_of(basis.states ^ (1 << a))
        src = np.flatnonzero(np.arange(basis.dim) < partner)
        rows.append(src)
        cols.append(partner[src])
    return SparseOperator.from_coo(diag, np.concatenate(rows), np.concatenate(cols), 0.5 * omega)


def _flip_case(kind, n_rungs, omega=1.3, cutoff=None, zero_zero=False, max_excited=None):
    """A ladder at a_x = 3, a_y = 1 and its Hamiltonian's arguments; with
    ``zero_zero``, frozen sources on the middle leg one rung beyond each end."""
    shift = 0.3 if kind == "in-plane-triangle" else None
    atoms = build_ladder(LadderSpec(LadderKind(kind), n_rungs, 3.0, 1.0, shift), delta0=0.2)
    constraint = None if max_excited is None else RungConstraint(atoms.n_legs, max_excited)
    basis = enumerate_rydberg(atoms.n_atoms, constraint)
    middle = atoms.positions[atoms.leg_of == 0]
    sources = np.array([middle[0] - [3.0, 0, 0], middle[-1] + [3.0, 0, 0]]) if zero_zero else None
    return atoms, omega, 20.0, 40.0, basis, cutoff, sources


FLIP_CASES = {
    "two-leg": lambda **kw: _flip_case("two-leg", 5, **kw),
    "three-leg": lambda **kw: _flip_case("three-leg", 3, **kw),
    "prism": lambda **kw: _flip_case("prism", 3, **kw),
    "in-plane": lambda **kw: _flip_case("in-plane-triangle", 3, **kw),
    "two-leg-cutoff": lambda **kw: _flip_case("two-leg", 5, cutoff=3.5, **kw),
    "three-leg-00bc": lambda **kw: _flip_case("three-leg", 3, cutoff=3.2, zero_zero=True, **kw),
    "two-leg-no-drive": lambda **kw: _flip_case("two-leg", 5, omega=0.0, **kw),
}


@pytest.mark.parametrize("case", FLIP_CASES)
def test_flip_operator_equals_the_occupation_csr(case):
    """On the complete basis the operator stores the diagonal and the 2 x 2 hop; its diagonal,
    its products with a real and a complex vector, its 1-norm, its
    preconditioner floor and the CSR it builds on demand all equal the reference's."""
    args = FLIP_CASES[case]()
    op = rydberg_hamiltonian(*args)
    ref = _occupation_reference(*args)
    assert isinstance(op, FlipOperator) and "matrix" not in vars(op)
    scale = spla.norm(ref.matrix, 1)
    np.testing.assert_allclose(op.diagonal(), ref.matrix.diagonal(), rtol=1e-12, atol=1e-12 * scale)
    rng = np.random.default_rng(0)
    real = rng.standard_normal(op.dim)
    for x in (real, real + 1j * rng.standard_normal(op.dim)):
        np.testing.assert_allclose(op @ x, ref.matrix @ x, rtol=0, atol=1e-12 * scale * np.abs(x).max())
    assert op.norm1() == pytest.approx(scale, rel=1e-12)
    assert op.max_off_diagonal() == ref.max_off_diagonal() == 0.5 * abs(args[1])
    assert "matrix" not in vars(op)
    assert op.matrix.nnz == ref.matrix.nnz
    assert abs(op.matrix - ref.matrix).max() <= 1e-12 * scale
    assert op.matrix is op.matrix   # built once


@pytest.mark.parametrize("case, max_excited", [("two-leg", 1), ("three-leg", 1), ("prism", 2),
                                               ("in-plane", 1), ("three-leg-00bc", 1),
                                               ("two-leg-no-drive", 1)])
def test_rung_by_rung_diagonal_on_a_constrained_basis(case, max_excited):
    """A rung-capped basis is a product of rung patterns, whose diagonal is filled
    rung by rung; without a drive it has no flip pair at all."""
    args = FLIP_CASES[case](max_excited=max_excited)
    op = rydberg_hamiltonian(*args)
    ref = _occupation_reference(*args)
    assert isinstance(op, FlipOperator) and op.dim < 1 << args[4].n_atoms
    scale = spla.norm(ref.matrix, 1)
    np.testing.assert_allclose(op.diagonal(), ref.matrix.diagonal(), rtol=1e-12, atol=1e-12 * scale)
    assert abs(op.matrix - ref.matrix).max() <= 1e-12 * scale


def _atom_chain(n_atoms):
    """A chain of single atoms on the complete basis: d = 2 on every site."""
    atoms = build_ladder(LadderSpec(LadderKind.CHAIN, n_atoms, 5.0, 5.0), delta0=0.3)
    return rydberg_hamiltonian(atoms, 1.7, 0.9, 2000.0, enumerate_rydberg(n_atoms))


def _spin1_chain(n_sites, bc):
    coeffs = EffectiveCoefficients(
        D=0.7, R=-0.3, Rp=0.45, J=0.2, J2=-0.35, const_site=0.1, const_bond=-0.05,
        d_first=0.6, d_last=0.8, bc_lz2_edge=0.15, bc_const=0.25, longrange=((2, 0.03, 0.07),),
    )
    return effective_spin1_hamiltonian(coeffs, n_sites, BoundaryCondition(bc))


PRODUCT_CASES = {   # (local dimension d, builder); no chain's site count is a multiple of its group
    "atoms-1": (2, lambda: _atom_chain(1)),
    "atoms-5": (2, lambda: _atom_chain(5)),
    "atoms-14": (2, lambda: _atom_chain(14)),
    "chain-obc-4": (3, lambda: _spin1_chain(4, "obc")),
    "chain-pbc-5": (3, lambda: _spin1_chain(5, "pbc")),
    "chain-00bc-7": (3, lambda: _spin1_chain(7, "00bc")),
    "two-leg-capped": (3, lambda: rydberg_hamiltonian(*FLIP_CASES["two-leg"](max_excited=1))),
    "three-leg-capped": (4, lambda: rydberg_hamiltonian(*FLIP_CASES["three-leg"](max_excited=1))),
    "three-leg-00bc-capped": (7, lambda: rydberg_hamiltonian(*FLIP_CASES["three-leg-00bc"](max_excited=2))),
    "prism-capped": (7, lambda: rydberg_hamiltonian(*FLIP_CASES["prism"](max_excited=2))),
    "two-leg-capped-no-drive": (3, lambda: rydberg_hamiltonian(*FLIP_CASES["two-leg-no-drive"](max_excited=1))),
}


@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_grouped_product_equals_the_csr(case):
    """The grouped-matmul product, for a real and a complex vector, and the CSR that
    ``matrix`` assembles from the same groups both equal diag + sum_s I (x) hop (x) I,
    built one site at a time by ``scipy.sparse.kron`` and so sharing no group matrix
    with them; the 1-norm and the preconditioner floor, taken from the diagonal and
    the hop alone, equal the reference's."""
    d, build = PRODUCT_CASES[case]
    op = build()
    assert isinstance(op, FlipOperator) and len(op.hop) == d and op.dim == d**op.n_sites
    n = op.n_sites
    ref = SparseOperator(sum((sp.kron(sp.identity(d ** (n - 1 - s)), sp.kron(op.hop, sp.identity(d**s)))
                              for s in range(n)), sp.diags(op.diag)).tocsr())
    rng = np.random.default_rng(1)
    real = rng.standard_normal(op.dim)
    for x in (real, real + 1j * rng.standard_normal(op.dim)):
        expected = ref @ x
        assert np.linalg.norm(op @ x - expected) <= 1e-12 * np.linalg.norm(expected)
    assert (op.matrix != ref.matrix).nnz == 0   # every element, exactly
    assert op.norm1() == pytest.approx(ref.norm1(), rel=1e-12)
    assert op.max_off_diagonal() == ref.max_off_diagonal()


def test_rydberg_hamiltonian_rejects_a_basis_that_is_no_rung_product():
    atoms, omega, delta, c6, *_ = FLIP_CASES["two-leg"]()
    basis = RydbergBasis(atoms.n_atoms, np.arange(5))
    with pytest.raises(BasisError, match="product"):
        rydberg_hamiltonian(atoms, omega, delta, c6, basis)


def _brute_force_effective(coeffs, n_sites, bc):
    """Independent dense construction by explicit loops over basis states.

    Every pair of sites is coupled by the term of its distance: j - i on an
    open chain, the ring distance min(j - i, n - j + i) under PBC.  Edge D
    overrides act on an open chain only, each as its shift from D, so a lone
    site takes both; each nearest-neighbour pair adds ``const_bond`` to the constant.
    """
    ring = bc is BoundaryCondition.PBC
    basis = Spin1Basis(n_sites)
    dim = basis.dim
    digits = basis.digits().astype(float)
    h = np.zeros((dim, dim))
    d_site = [coeffs.D] * n_sites
    if coeffs.d_first is not None and not ring:
        d_site[0] += coeffs.d_first - coeffs.D
    if coeffs.d_last is not None and not ring:
        d_site[-1] += coeffs.d_last - coeffs.D
    terms = {1: (coeffs.R, coeffs.Rp), **{k: (r, rp) for k, r, rp in coeffs.longrange}}
    bonds = []
    for i, j in itertools.combinations(range(n_sites), 2):
        dist = min(j - i, n_sites - j + i) if ring else j - i
        if dist in terms:
            bonds.append((i, j, *terms[dist], dist))
    const = n_sites * coeffs.const_site + sum(coeffs.const_bond for *_, dist in bonds if dist == 1)
    if bc is BoundaryCondition.ZERO_ZERO:
        d_site[0] += coeffs.bc_lz2_edge
        d_site[-1] += coeffs.bc_lz2_edge
        const += coeffs.bc_const
    for k in range(dim):
        m = digits[k]
        e = const + sum(d_site[s] * m[s] ** 2 for s in range(n_sites))
        for i, j, r, rp, _ in bonds:
            e += r * m[i] * m[j] + rp * m[i] ** 2 * m[j] ** 2
        h[k, k] = e
    for k in range(dim):
        m = digits[k]
        for s in range(n_sites):
            for dm in (+1, -1):
                if -1 <= m[s] + dm <= 1:
                    m2 = m.copy()
                    m2[s] += dm
                    k2 = basis.index_of([int(x) for x in m2])
                    h[k, k2] += -coeffs.J
                if m[s] == -dm:   # the |-1> <-> |+1> element
                    m2 = m.copy()
                    m2[s] = dm
                    k2 = basis.index_of([int(x) for x in m2])
                    h[k, k2] += -coeffs.J2
    return h


@pytest.mark.parametrize("bc", list(BoundaryCondition))
@pytest.mark.parametrize("j2", [pytest.param(0.0, id="U"), pytest.param(0.2, id="C"),
                                pytest.param(-0.35, id="J2")])
def test_effective_chain_matches_brute_force(bc, j2):
    """J2 = 0 is the ladder operator, J2 = J the clock, and any other J2 a free
    |-1> <-> |+1> amplitude; five sites add a range-2 term, whose open-chain
    pairs (i, i + 2) meet the unequal edge D of both ends, and one open site
    takes both edge shifts."""
    coeffs = EffectiveCoefficients(
        D=0.7, R=-0.3, Rp=0.45, J=0.2, J2=j2,
        const_site=0.1, const_bond=-0.05, d_first=0.6, d_last=0.8,
        bc_lz2_edge=0.15, bc_const=0.25,
    )
    lone = () if bc is BoundaryCondition.PBC else ((1, ()),)
    for n_sites, longrange in ((4, ()), (5, ((2, 0.03, 0.07),)), *lone):
        chain = replace(coeffs, longrange=longrange)
        h = effective_spin1_hamiltonian(chain, n_sites, bc)
        ref = _brute_force_effective(chain, n_sites, bc)
        assert np.allclose(h.matrix.toarray(), ref, atol=1e-13)


@pytest.mark.parametrize("zero_zero", [False, True], ids=["obc", "00bc"])
@pytest.mark.parametrize("kind", ["three-leg", "prism"])
def test_one_rung_chain_has_the_ladder_diagonal(kind, zero_zero):
    """Without drive the spin-1 sector of one rung is diagonal, and the one-site
    chain must reproduce it: its D takes both edge shifts, d_first + d_last - D,
    and under 00BC both frozen sources' corrections.  With d_last alone it was
    off by V2 - V1 between m = 0 and m = +-1."""
    atoms, omega, delta, c6, basis, cutoff, sources = _flip_case(kind, 1, omega=0.0, zero_zero=zero_zero)
    ladder = rydberg_hamiltonian(atoms, omega, delta, c6, basis, cutoff, sources).diagonal()
    sector = basis.index_of(StateDictionary.for_kind(kind).configs([[-1], [0], [1]]))
    drive = (c6, delta, atoms.detuning_offset.max(), omega, 1.0 / 3.0)   # V0 = c6 at a_y = 1
    coeffs = coeffs_three_leg(2, *drive) if kind == "three-leg" else coeffs_prism(*drive)
    assert coeffs.d_first + coeffs.d_last - coeffs.D != coeffs.d_last
    bc = BoundaryCondition.ZERO_ZERO if zero_zero else BoundaryCondition.OBC
    chain = effective_spin1_hamiltonian(coeffs, 1, bc).diagonal()
    np.testing.assert_allclose(chain, ladder[sector], rtol=0, atol=1e-12 * np.abs(ladder[sector]).max())


def test_longrange_terms_and_warning():
    coeffs = EffectiveCoefficients(D=0.5, R=0.1, Rp=0.2, J=0.0)
    h2 = effective_spin1_hamiltonian(replace(coeffs, longrange=((2, 0.03, 0.07),)), 3)
    base = effective_spin1_hamiltonian(coeffs, 3)
    basis = Spin1Basis(3)
    digits = basis.digits().astype(float)
    extra = 0.03 * digits[:, 0] * digits[:, 2] + 0.07 * digits[:, 0] ** 2 * digits[:, 2] ** 2
    assert np.allclose(h2.matrix.diagonal() - base.matrix.diagonal(), extra)
    # a range given twice adds up: a range-1 entry shifts R and R'
    again = effective_spin1_hamiltonian(replace(coeffs, longrange=((1, 0.03, 0.07),)), 3)
    shifted = effective_spin1_hamiltonian(replace(coeffs, R=0.13, Rp=0.27), 3)
    assert np.allclose(again.matrix.toarray(), shifted.matrix.toarray())
    with pytest.warns(UserWarning):
        effective_spin1_hamiltonian(replace(coeffs, longrange=((3, 0.1, 0.1),)), 3)
    # on a ring of 5 sites range 3 is ring distance 2, already the range-2 term's
    with pytest.warns(UserWarning):
        effective_spin1_hamiltonian(replace(coeffs, longrange=((3, 0.1, 0.1),)), 5, BoundaryCondition.PBC)


@pytest.mark.parametrize("n_sites", [4, 5, 6, 7])
def test_periodic_range_k_chain_is_translation_invariant(n_sites):
    """Under PBC each pair at ring distance k is coupled once, so a cyclic site
    shift leaves H unchanged."""
    coeffs = coeffs_two_leg(1000.0, 1.0, 0.5, 0.5, k_max=n_sites // 2)
    h = effective_spin1_hamiltonian(coeffs, n_sites, BoundaryCondition.PBC).matrix.toarray()
    ref = _brute_force_effective(coeffs, n_sites, BoundaryCondition.PBC)
    assert np.abs(h - ref).max() <= 1e-13 * np.abs(ref).max()
    basis = Spin1Basis(n_sites)
    shift = np.array([basis.index_of(np.roll(m, 1)) for m in basis.digits()])
    assert np.abs(h[np.ix_(shift, shift)] - h).max() <= 1e-13 * np.abs(h).max()


# (v0, delta, delta0, omega, rho) of a three-atom rung: V0 = 2 Delta = 40 x 2pi MHz
RUNG_DRIVE = (40 * 2 * np.pi, 20 * 2 * np.pi, 0.2 * 2 * np.pi, 2 * 2 * np.pi, 1.0 / 3.0)
THREE_ATOM_RUNGS = {
    "three-leg-1": lambda: coeffs_three_leg(1, *RUNG_DRIVE),
    "three-leg-2": lambda: coeffs_three_leg(2, *RUNG_DRIVE),
    "prism": lambda: coeffs_prism(*RUNG_DRIVE),
    "in-plane": lambda: coeffs_in_plane(*RUNG_DRIVE),
}


@pytest.mark.parametrize("n_sites", [4, 5, 6])
@pytest.mark.parametrize("rung", list(THREE_ATOM_RUNGS))
def test_periodic_three_atom_rung_chain_is_translation_invariant(rung, n_sites):
    """A ring has no edge: the open chain's edge D overrides do not apply, so
    every site keeps the bulk D and a cyclic site shift leaves H unchanged."""
    coeffs = THREE_ATOM_RUNGS[rung]()
    assert coeffs.d_first != coeffs.D and coeffs.d_last != coeffs.D
    h = effective_spin1_hamiltonian(coeffs, n_sites, BoundaryCondition.PBC).matrix.toarray()
    ref = _brute_force_effective(coeffs, n_sites, BoundaryCondition.PBC)
    assert np.abs(h - ref).max() <= 1e-13 * np.abs(ref).max()
    basis = Spin1Basis(n_sites)
    shift = np.array([basis.index_of(np.roll(m, 1)) for m in basis.digits()])
    assert np.abs(h[np.ix_(shift, shift)] - h).max() <= 1e-13 * np.abs(h).max()


@pytest.mark.parametrize("n_sites", [3, 4, 5])
def test_ring_constant_counts_one_bond_per_site(n_sites):
    """A ring of n >= 3 sites couples n nearest-neighbour pairs, so its all-zero
    state, on which only the constant acts, has energy n (const_site + const_bond)."""
    coeffs = THREE_ATOM_RUNGS["three-leg-2"]()
    h = effective_spin1_hamiltonian(coeffs, n_sites, BoundaryCondition.PBC)
    zero = Spin1Basis(n_sites).index_of([0] * n_sites)
    assert h.diagonal()[zero] == pytest.approx(n_sites * (coeffs.const_site + coeffs.const_bond), rel=1e-13)


@pytest.mark.parametrize("n_sites", [1, 2])
def test_ring_of_fewer_than_three_sites_is_rejected(n_sites):
    """Two sites have one bond, not the two that every site's bulk D counts,
    and one site has none: neither is a ring, while the open chain is defined."""
    coeffs = THREE_ATOM_RUNGS["three-leg-2"]()
    with pytest.raises(ValueError, match=">= 3 on a ring"):
        effective_spin1_hamiltonian(coeffs, n_sites, BoundaryCondition.PBC)
    assert effective_spin1_hamiltonian(coeffs, n_sites).dim == 3**n_sites


def _target_chain(model, t, n_sites, bc=BoundaryCondition.OBC):
    return effective_spin1_hamiltonian(target_coefficients(model, t, bc), n_sites, bc)


def test_charge_kernel_formula():
    c = charge_kernel(4)
    j = np.arange(1, 5)
    for a in range(4):
        for b in range(4):
            assert c[a, b] == 4 + 1 - max(j[a], j[b])


def test_charge_representation_sector():
    t = TargetCouplings(U=1.3, X=0.4, Y=-0.2, Yp=0.0)
    op, cfg = sqed_charge_hamiltonian(t, 3)
    # zero-total-charge spin-1 configs on n_sites+1 links
    assert cfg.shape[1] == 4
    assert np.all(cfg.sum(axis=1) == 0)
    assert op.dim == len(cfg)
    assert _is_symmetric(op)
    # hopping moves one unit between neighboring links: column sums preserved
    m = op.matrix.toarray()
    np.fill_diagonal(m, 0.0)
    for a, b in zip(*np.nonzero(m)):
        diff = cfg[a] - cfg[b]
        nz = np.nonzero(diff)[0]
        assert len(nz) == 2 and abs(nz[0] - nz[1]) == 1
        assert sorted(diff[nz]) == [-1, 1]


def _brute_force_charge(t, n_sites):
    """Dense charge Hamiltonian from explicit loops over zero-charge link configurations."""
    configs = [q for q in itertools.product((-1, 0, 1), repeat=n_sites + 1) if sum(q) == 0]
    index = {q: k for k, q in enumerate(configs)}
    c = charge_kernel(n_sites)
    h = np.zeros((len(configs), len(configs)))
    for k, q in enumerate(configs):
        h[k, k] = 0.5 * t.U * sum(c[i, j] * q[i] * q[j] for i in range(n_sites) for j in range(n_sites))
        h[k, k] += 0.5 * t.Y * sum(x * x for x in q)
        for i in range(n_sites):
            for step in (+1, -1):   # one unit of charge from link i+1 to link i, or back
                moved = list(q)
                moved[i] += step
                moved[i + 1] -= step
                if max(abs(x) for x in moved) <= 1:
                    h[k, index[tuple(moved)]] += -0.5 * t.X
    return h, np.array(configs)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_charge_representation_matches_brute_force(n_sites):
    """Every single-unit move between neighbouring links at -X/2, and nothing else."""
    t = TargetCouplings(U=1.3, X=0.4, Y=-0.2, Yp=0.0)
    op, cfg = sqed_charge_hamiltonian(t, n_sites)
    ref, ref_cfg = _brute_force_charge(t, n_sites)
    assert np.array_equal(cfg, ref_cfg)
    h = op.matrix.toarray()
    assert np.allclose(np.diag(h), np.diag(ref), rtol=1e-12, atol=1e-12)
    np.fill_diagonal(h, 0.0)
    np.fill_diagonal(ref, 0.0)
    assert np.array_equal(h, ref)


def test_field_representation_expansion():
    """(U/2) sum (L^z)^2 - Y sum L^z L^z rewritten with the Y' penalty.

    At Y' = 0 and uniform boundary handling the 00BC field Hamiltonian equals
    the direct expansion (U/2 + Y) sum (L^z)^2 - Y sum L^z L^z term by term.
    """
    t = TargetCouplings(U=0.9, X=0.3, Y=0.25, Yp=0.0)
    h = _target_chain("sqed-field", t, 3, BoundaryCondition.ZERO_ZERO)
    basis = Spin1Basis(3)
    m = basis.digits().astype(float)
    diag = (0.5 * t.U + t.Y) * (m**2).sum(axis=1)
    for i in range(2):
        diag -= t.Y * m[:, i] * m[:, i + 1]
    assert np.allclose(h.matrix.diagonal(), diag)


def test_field_representation_obc_edges():
    t = TargetCouplings(U=0.9, X=0.0, Y=0.25, Yp=0.1)
    h = _target_chain("sqed-field", t, 2, BoundaryCondition.OBC)
    basis = Spin1Basis(2)
    m = basis.digits().astype(float)
    edge = 0.5 * t.U + 0.5 * t.Y
    diag = edge * (m**2).sum(axis=1)
    diag -= (t.Y + t.Yp) * m[:, 0] * m[:, 1]
    diag += t.Yp * m[:, 0] ** 2 * m[:, 1] ** 2
    assert np.allclose(h.matrix.diagonal(), diag)
    with pytest.raises(ValueError):
        target_coefficients("sqed-field", t, BoundaryCondition.PBC)
    # the clock flavor adds only the |-1> <-> |+1> element, at the hopping amplitude X/2
    clock = target_coefficients("sqed-field", t, BoundaryCondition.OBC, clock=True)
    assert clock == replace(target_coefficients("sqed-field", t, BoundaryCondition.OBC), J2=0.5 * t.X)


def test_cahm_definition():
    t = TargetCouplings(U=1.1, X=0.6, Y=-0.4, Yp=0.0)
    h = _target_chain("cahm", t, 3)
    basis = Spin1Basis(3)
    m = basis.digits().astype(float)
    diag = 0.5 * t.U * (m**2).sum(axis=1)
    for i in range(2):
        diag -= t.Y * m[:, i] * m[:, i + 1]
    assert np.allclose(h.matrix.diagonal(), diag)
    # off-diagonal is -(X/2) per ladder flip
    off = h.matrix.toarray()
    np.fill_diagonal(off, 0.0)
    assert np.all(np.unique(off[off != 0]) == [-0.3])


@settings(deadline=None, max_examples=20)
@given(
    d=st.floats(-2, 2), r=st.floats(-1, 1), rp=st.floats(-1, 1), j=st.floats(-1, 1),
    n=st.integers(2, 4),
)
def test_effective_chain_always_symmetric(d, r, rp, j, n):
    coeffs = EffectiveCoefficients(D=d, R=r, Rp=rp, J=j)
    assert _is_symmetric(effective_spin1_hamiltonian(coeffs, n))
