"""Order parameters, entropies, and phase classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydladder import (
    LadderKind,
    LadderSpec,
    Phase,
    RungConstraint,
    Spin1Basis,
    StateDictionary,
    build_ladder,
    classify_phase,
    enumerate_rydberg,
    order_parameters,
    project_to_spin1,
    renyi_entropy,
    site_profiles,
    site_tables,
    susceptibility_peak,
)
from rydladder.basis import BasisError
from rydladder.geometry import LEG_SPINS

from references import reduced_density_matrix


def _basis_state(basis: Spin1Basis, ms):
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index_of(ms)] = 1.0
    return psi


def test_order_parameters_ferromagnet():
    basis = Spin1Basis(4)
    op = order_parameters(_basis_state(basis, [1, 1, 1, 1]), basis)
    assert op.m_fm == pytest.approx(1.0)
    assert op.m_afm == pytest.approx(0.0)
    assert op.m_rdw == pytest.approx(0.0)
    assert classify_phase(op) is Phase.FM


def test_order_parameters_antiferromagnet():
    basis = Spin1Basis(4)
    # staggering sign is (-1)^i with i = 1..L, so [-1, 1, -1, 1] aligns with it
    op = order_parameters(_basis_state(basis, [-1, 1, -1, 1]), basis)
    assert op.m_afm == pytest.approx(1.0)
    assert op.m_fm == pytest.approx(0.0)
    assert op.m_rdw == pytest.approx(0.0)
    assert classify_phase(op) is Phase.AFM


def test_order_parameters_density_waves():
    basis = Spin1Basis(4)
    # paramagnetic density wave: alternating (L^z)^2 with random-sign sublattice
    frdw = _basis_state(basis, [0, 1, 0, 1])
    op = order_parameters(frdw, basis)
    assert op.m_rdw == pytest.approx(0.5)
    assert classify_phase(op) is Phase.FRDW  # one sublattice fully polarized
    prdw = (_basis_state(basis, [0, 1, 0, -1]) + _basis_state(basis, [0, -1, 0, 1])) / math.sqrt(2)
    op = order_parameters(prdw, basis)
    assert op.m_rdw_abs == pytest.approx(0.5)
    assert op.m_fm_abs == pytest.approx(0.0)
    assert classify_phase(op) is Phase.PRDW


def test_order_parameters_disorder():
    basis = Spin1Basis(4)
    op = order_parameters(_basis_state(basis, [0, 0, 0, 0]), basis)
    assert classify_phase(op) is Phase.DISORDER


def test_susceptibility_is_scaled_variance():
    basis = Spin1Basis(2)
    psi = (_basis_state(basis, [1, 1]) + _basis_state(basis, [-1, -1])) / math.sqrt(2)
    op = order_parameters(psi, basis)
    # m_fm takes values +-1 with equal weight: variance 1, chi = L * 1
    assert op.m_fm == pytest.approx(0.0)
    assert op.chi_fm == pytest.approx(2.0)


def test_site_profile_spin_basis():
    basis = Spin1Basis(3)
    psi = (_basis_state(basis, [1, 0, 0]) + _basis_state(basis, [0, 0, -1])) / math.sqrt(2)
    prof = site_profiles([psi], site_tables(basis))[0]
    assert np.allclose(prof.lz, [0.5, 0.0, -0.5])
    assert np.allclose(prof.lz2, [0.5, 0.0, 0.5])


def test_site_profile_rydberg_matches_spin_on_sector_states():
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 3, 6.0, 3.0))
    basis = enumerate_rydberg(atoms.n_atoms)
    d = StateDictionary.for_kind(LadderKind.TWO_LEG)
    sector, spins = project_to_spin1(basis, d)
    sb = Spin1Basis(3)
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(sb.dim) + 1j * rng.standard_normal(sb.dim)
    amps /= np.linalg.norm(amps)
    psi_full = np.zeros(basis.dim, dtype=complex)
    psi_full[sector] = amps
    full = site_profiles([psi_full], site_tables(basis, atoms))[0]
    spin = site_profiles([amps], site_tables(sb))[0]
    assert np.allclose(full.lz, spin.lz, atol=1e-12)
    assert np.allclose(full.lz2, spin.lz2, atol=1e-12)


@pytest.mark.parametrize("kind, max_excited", [("chain", None), ("two-leg", None), ("three-leg", None),
                                               ("prism", 2), ("in-plane-triangle", 1)])
def test_site_tables_match_the_bits_of_each_state(kind, max_excited):
    """Each Rydberg state's L^z_i and (L^z_i)^2 are the occupations of rung i's
    +1 leg minus and plus those of its -1 leg, read here bit by bit; the chain
    has no outer legs, so both of its tables are zero."""
    atoms = build_ladder(LadderSpec(LadderKind(kind), 3, 6.0, 3.0))
    constraint = None if max_excited is None else RungConstraint(atoms.n_legs, max_excited)
    basis = enumerate_rydberg(atoms.n_atoms, constraint)
    lz, lz2 = site_tables(basis, atoms)
    assert lz.shape == lz2.shape == (basis.dim, 3)
    legs = LEG_SPINS[atoms.spec.kind]
    for i, state in enumerate(basis.states):
        for r in range(3):
            bits = {leg: (int(state) >> (r * len(legs) + b)) & 1 for b, leg in enumerate(legs)}
            up, down = bits.get(+1, 0), bits.get(-1, 0)
            assert (lz[i, r], lz2[i, r]) == (up - down, up + down)
    if kind == "chain":
        assert not lz.any() and not lz2.any()
    with pytest.raises(BasisError, match="need the atom array"):
        site_tables(basis)
    with pytest.raises(BasisError, match="does not match"):
        site_tables(enumerate_rydberg(atoms.n_atoms - 1), atoms)


def test_entropy_product_state_zero():
    basis = Spin1Basis(4)
    psi = _basis_state(basis, [1, 0, -1, 0])
    assert renyi_entropy(psi, 4, 2, 1) == pytest.approx(0.0, abs=1e-12)
    assert renyi_entropy(psi, 4, 2, 2) == pytest.approx(0.0, abs=1e-12)


def test_entropy_maximally_entangled_pair():
    basis = Spin1Basis(2)
    psi = sum(_basis_state(basis, [m, m]) for m in (-1, 0, 1)) / math.sqrt(3)
    assert renyi_entropy(psi, 2, 1, 1) == pytest.approx(math.log(3), rel=1e-12)
    assert renyi_entropy(psi, 2, 1, 2) == pytest.approx(math.log(3), rel=1e-12)


def test_renyi2_equals_trace_of_rho_squared():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    psi /= np.linalg.norm(psi)
    rho = reduced_density_matrix(psi, 3, 1)
    evals = np.linalg.eigvalsh(rho)
    s2_direct = -math.log(float(np.sum(evals**2)))
    assert renyi_entropy(psi, 3, 1, 2) == pytest.approx(s2_direct, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), cut=st.integers(1, 3))
def test_renyi_ordering(seed, cut):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    psi /= np.linalg.norm(psi)
    s1 = renyi_entropy(psi, 4, cut, 1)
    s2 = renyi_entropy(psi, 4, cut, 2)
    assert s2 <= s1 + 1e-10


def test_reduced_density_matrix_properties():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    psi /= np.linalg.norm(psi)
    rho = reduced_density_matrix(psi, 3, 2)
    assert rho.shape == (9, 9)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T)
    with pytest.raises(ValueError):
        reduced_density_matrix(psi, 3, 3)


def test_susceptibility_peak_quadratic_recovery():
    xs = np.linspace(0.0, 2.0, 9)
    chis = -3.0 * (xs - 0.87) ** 2 + 5.0
    xp, yp, interior = susceptibility_peak(xs, chis)
    assert interior
    assert xp == pytest.approx(0.87, abs=1e-12)
    assert yp == pytest.approx(5.0, abs=1e-12)


def test_susceptibility_peak_edge_flag():
    xs = np.array([0.0, 1.0, 2.0])
    chis = np.array([3.0, 2.0, 1.0])
    xp, yp, interior = susceptibility_peak(xs, chis)
    assert not interior
    assert (xp, yp) == (0.0, 3.0)
    with pytest.raises(ValueError):
        susceptibility_peak([0.0, 1.0], [1.0, 2.0])
