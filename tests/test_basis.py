"""Basis enumeration, spin-1 dictionary, and sector projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydladder import (
    LadderKind,
    LadderSpec,
    RungConstraint,
    RydbergBasis,
    Spin1Basis,
    StateDictionary,
    build_ladder,
    enumerate_rydberg,
    project_to_spin1,
)
from rydladder.basis import BasisError, rung_permutations

from references import rung_permutations_by_atoms


def test_full_enumeration_counts():
    basis = enumerate_rydberg(5)
    assert basis.dim == 32
    assert np.array_equal(basis.states, np.arange(32))


@settings(deadline=None, max_examples=50)
@given(n_atoms=st.integers(1, 12), data=st.data())
def test_index_round_trip(n_atoms, data):
    basis = enumerate_rydberg(n_atoms)
    i = data.draw(st.integers(0, basis.dim - 1))
    assert basis.index_of(int(basis.states[i])) == i


def test_index_of_absent_configuration():
    basis = enumerate_rydberg(6, RungConstraint(3, 1))
    # both atoms of rung 1 excited: outside the constrained basis
    assert basis.index_of(0b011) == -1


@pytest.mark.parametrize("n_atoms", [1, 5, 14])
def test_complete_basis_index_matches_lookup(n_atoms):
    """A complete basis indexes each configuration by itself."""
    basis = enumerate_rydberg(n_atoms)
    configs = np.random.default_rng(n_atoms).integers(-3, (1 << n_atoms) + 3, 500)
    inside = (configs >= 0) & (configs < 1 << n_atoms)
    np.testing.assert_array_equal(basis.index_of(configs), np.where(inside, configs, -1))
    assert basis.index_of((1 << n_atoms) - 1) == basis.dim - 1


@pytest.mark.parametrize("n_atoms", [1, 4, 14])
def test_complete_basis_index_rejects_configurations_beyond_it(n_atoms):
    basis = enumerate_rydberg(n_atoms)
    beyond = np.array([1 << n_atoms, (1 << n_atoms) + 1, 1 << (n_atoms + 3)])
    assert basis.index_of(beyond).tolist() == [-1, -1, -1]
    assert basis.index_of(1 << n_atoms) == -1


def test_capped_basis_index_marks_configurations_outside_it():
    """Two two-leg rungs capped at one excitation: 9 of the 16 configurations."""
    basis = enumerate_rydberg(4, RungConstraint(2, 1))
    assert basis.states.tolist() == [0b0000, 0b0001, 0b0010, 0b0100, 0b0101, 0b0110, 0b1000, 0b1001, 0b1010]
    configs = np.array([0b1010, 0b0001, 0b0011, 0b1100, 0b0000, 1 << 4, -1])
    assert basis.index_of(configs).tolist() == [8, 1, -1, -1, 0, -1, -1]
    assert basis.index_of(0b0110) == 5


@pytest.mark.parametrize("n_legs,max_exc,per_rung", [(2, 1, 3), (3, 1, 4), (3, 2, 7)])
def test_constrained_enumeration_counts(n_legs, max_exc, per_rung):
    n_rungs = 3
    basis = enumerate_rydberg(n_legs * n_rungs, RungConstraint(n_legs, max_exc))
    assert basis.dim == per_rung**n_rungs
    # every kept state honors the cap in every rung
    mask = (1 << n_legs) - 1
    for s in basis.states:
        for r in range(n_rungs):
            assert bin((int(s) >> (r * n_legs)) & mask).count("1") <= max_exc


def test_enumeration_limit():
    with pytest.raises(BasisError):
        enumerate_rydberg(27)


@settings(deadline=None, max_examples=50)
@given(n_sites=st.integers(1, 8), data=st.data())
def test_spin1_digit_round_trip(n_sites, data):
    basis = Spin1Basis(n_sites)
    ms = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n_sites, max_size=n_sites))
    idx = basis.index_of(ms)
    assert list(basis.digits()[idx]) == ms


def test_spin1_index_of_reads_its_own_int8_digits():
    """A row of ``digits()`` is int8; the index used to wrap past 127."""
    basis = Spin1Basis(6)
    assert [basis.index_of(row) for row in basis.digits()] == list(range(basis.dim))


def test_spin1_site_order():
    # site 1 is the most significant digit
    basis = Spin1Basis(3)
    assert basis.index_of([1, 0, 0]) == 2 * 9 + 1 * 3 + 1
    assert basis.index_of([0, 0, 1]) == 1 * 9 + 1 * 3 + 2


def test_dictionary_two_leg():
    d = StateDictionary.for_kind(LadderKind.TWO_LEG)
    assert d.pattern_to_spin == {0b00: 0, 0b01: -1, 0b10: +1}
    assert d.configs([-1, +1]) == 0b10_01   # rung 1 is the low bit group
    assert np.array_equal(d.configs([[0, 0], [+1, -1]]), [0b00_00, 0b01_10])


def test_dictionary_one_hot():
    for kind in (LadderKind.THREE_LEG, LadderKind.PRISM, LadderKind.IN_PLANE_TRIANGLE):
        d = StateDictionary.for_kind(kind)
        assert d.pattern_to_spin == {0b001: -1, 0b010: 0, 0b100: +1}


@pytest.mark.parametrize("kind", [LadderKind.TWO_LEG, LadderKind.THREE_LEG, LadderKind.PRISM,
                                  LadderKind.IN_PLANE_TRIANGLE])
def test_dictionary_excites_the_legs_labelled_by_the_spin(kind):
    """Spin m sets bit i of a rung exactly where the atoms' leg label is m."""
    d = StateDictionary.for_kind(kind)
    legs = build_ladder(LadderSpec(kind, 1, a_x=6.0, a_y=3.0)).leg_of
    assert d.n_legs == len(legs)
    for m in (-1, 0, 1):
        assert [(int(d.configs([m])) >> i) & 1 for i in range(len(legs))] == [int(leg == m) for leg in legs]


def test_dictionary_rejects_chain():
    with pytest.raises(BasisError):
        StateDictionary.for_kind(LadderKind.CHAIN)


@pytest.mark.parametrize("kind,n_legs", [(LadderKind.TWO_LEG, 2), (LadderKind.THREE_LEG, 3)])
def test_projection_round_trip(kind, n_legs):
    n_rungs = 3
    basis = enumerate_rydberg(n_legs * n_rungs)
    d = StateDictionary.for_kind(kind)
    sector, spins = project_to_spin1(basis, d)
    assert len(sector) == 3**n_rungs
    assert len(np.unique(sector)) == len(sector)
    # every located config decodes, rung by rung, to its spin labels
    mask = (1 << n_legs) - 1
    for k, idx in enumerate(sector):
        cfg = int(basis.states[idx])
        decoded = [d.pattern_to_spin[(cfg >> (r * n_legs)) & mask] for r in range(n_rungs)]
        assert decoded == list(spins[k])


def test_dictionary_for_atoms():
    atoms = build_ladder(LadderSpec(LadderKind.PRISM, 2, a_x=6.0, a_y=3.0))
    assert StateDictionary.for_kind(atoms.spec.kind).n_legs == 3


def test_rung_permutations_move_bits():
    """Three-leg, two rungs: atom a = rung * 3 + leg."""
    basis = enumerate_rydberg(6)
    perms = rung_permutations(basis, 3)
    # leg 0 of rung 0 -> leg 2 of rung 0 (leg) / leg 0 of rung 1 (mirror)
    assert perms["leg"][0b000001] == 0b000100
    assert perms["mirror"][0b000001] == 0b001000
    assert perms["leg"][0b010010] == 0b010010   # middle legs stay
    for perm in perms.values():
        assert np.array_equal(np.sort(perm), np.arange(basis.dim))
        assert np.array_equal(perm[perm], np.arange(basis.dim))   # involutions


@pytest.mark.parametrize("n_legs", [1, 2, 3])
def test_rung_permutations_match_the_atom_by_atom_maps(n_legs):
    """The digit maps equal the images built bit by bit and looked up, on complete
    and capped bases, and no image is missing."""
    for n_rungs in range(1, 6):
        for cap in (None, *range(n_legs + 1)):
            basis = enumerate_rydberg(n_legs * n_rungs, None if cap is None else RungConstraint(n_legs, cap))
            perms, reference = rung_permutations(basis, n_legs), rung_permutations_by_atoms(basis, n_legs)
            assert perms.keys() == reference.keys()
            for name, perm in perms.items():
                np.testing.assert_array_equal(perm, reference[name], err_msg=f"{n_rungs} rungs, cap {cap}, {name}")
                assert perm.min() >= 0


def test_rung_permutations_reject_a_basis_of_other_rungs():
    for basis in (enumerate_rydberg(4), enumerate_rydberg(6, RungConstraint(2, 1))):
        with pytest.raises(BasisError, match="rungs are not 3 atoms"):
            rung_permutations(basis, 3)


def test_basis_checks_its_rungs_and_builds_states_on_first_read():
    with pytest.raises(BasisError, match="multiple of the rung size"):
        RydbergBasis(5, RungConstraint(2, 1))
    basis = RydbergBasis(12, RungConstraint(3, 1))
    assert basis.dim == 4**4 and "states" not in vars(basis)
    assert len(basis.states) == basis.dim and "states" in vars(basis)
