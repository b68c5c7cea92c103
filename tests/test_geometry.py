"""Geometry construction and van der Waals couplings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydladder import (
    DEFAULT_C6,
    GeometryError,
    LadderKind,
    LadderSpec,
    blockade_radius,
    build_ladder,
    ladder_couplings,
    pairwise_couplings,
)

ALL_KINDS = list(LadderKind)


def test_blockade_radius_definition():
    # at r = R_b the pair energy equals the Rabi frequency
    c6, omega = 858386.0, 2.0
    rb = blockade_radius(c6, omega)
    assert c6 / rb**6 == pytest.approx(omega, rel=1e-14)


def test_blockade_radius_rejects_nonpositive_omega():
    with pytest.raises(GeometryError):
        blockade_radius(DEFAULT_C6, 0.0)


@pytest.mark.parametrize("kind,n_legs", [
    (LadderKind.CHAIN, 1),
    (LadderKind.TWO_LEG, 2),
    (LadderKind.THREE_LEG, 3),
    (LadderKind.PRISM, 3),
    (LadderKind.IN_PLANE_TRIANGLE, 3),
])
def test_atom_counts_and_rung_labels(kind, n_legs):
    spec = LadderSpec(kind, n_rungs=4, a_x=6.0, a_y=3.0)
    atoms = build_ladder(spec)
    assert atoms.n_atoms == 4 * n_legs
    assert atoms.n_legs == n_legs
    # rung-major layout: atom a belongs to rung a // n_legs + 1
    assert np.array_equal(atoms.rung_of, np.arange(atoms.n_atoms) // n_legs + 1)
    # rung spacing along x
    for r in range(1, 5):
        assert np.allclose(atoms.positions[atoms.atoms_of_rung(r), 0].min(),
                           (r - 1) * 6.0, atol=3.0)


def test_two_leg_positions():
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 2, a_x=5.0, a_y=2.0))
    expect = np.array([
        [0.0, 0.0, 0.0], [0.0, 2.0, 0.0],
        [5.0, 0.0, 0.0], [5.0, 2.0, 0.0],
    ])
    assert np.allclose(atoms.positions, expect)
    assert list(atoms.leg_of) == [-1, 1, -1, 1]


def test_three_leg_positions_and_offsets():
    atoms = build_ladder(LadderSpec(LadderKind.THREE_LEG, 2, a_x=5.0, a_y=2.0), delta0=0.7)
    assert np.allclose(atoms.positions[:3, 1], [0.0, 2.0, 4.0])
    assert list(atoms.leg_of[:3]) == [-1, 0, 1]
    # only middle-leg atoms carry the detuning offset
    assert np.allclose(atoms.detuning_offset, [0, 0.7, 0, 0, 0.7, 0])


def test_prism_is_equilateral_by_default():
    ay = 3.0
    atoms = build_ladder(LadderSpec(LadderKind.PRISM, 1, a_x=6.0, a_y=ay))
    d01 = np.linalg.norm(atoms.positions[0] - atoms.positions[1])
    d12 = np.linalg.norm(atoms.positions[1] - atoms.positions[2])
    d02 = np.linalg.norm(atoms.positions[0] - atoms.positions[2])
    assert d01 == pytest.approx(ay, rel=1e-12)
    assert d12 == pytest.approx(ay, rel=1e-12)
    assert d02 == pytest.approx(ay, rel=1e-12)
    assert atoms.positions[1, 2] > 0  # middle atom out of plane


def test_in_plane_middle_shifted_left():
    ay = 3.0
    atoms = build_ladder(LadderSpec(LadderKind.IN_PLANE_TRIANGLE, 1, a_x=6.0, a_y=ay))
    assert atoms.positions[1, 0] == pytest.approx(-math.sqrt(3.0) / 2.0 * ay)
    assert np.allclose(atoms.positions[:, 2], 0.0)


def test_spec_validation():
    with pytest.raises(GeometryError):
        LadderSpec(LadderKind.TWO_LEG, 0, a_x=1.0, a_y=1.0)
    with pytest.raises(GeometryError):
        LadderSpec(LadderKind.TWO_LEG, 2, a_x=-1.0, a_y=1.0)
    with pytest.raises(GeometryError):
        LadderSpec(LadderKind.TWO_LEG, 2, a_x=1.0, a_y=1.0, shift=0.5)
    with pytest.raises(GeometryError):
        LadderSpec(LadderKind.THREE_LEG, 2, a_x=1.0, a_y=1.0, prism_height=0.5)


@settings(deadline=None, max_examples=50)
@given(
    kind=st.sampled_from(ALL_KINDS),
    n_rungs=st.integers(1, 5),
    a_x=st.floats(0.5, 20.0),
    a_y=st.floats(0.5, 20.0),
)
def test_coupling_matrix_symmetric_positive(kind, n_rungs, a_x, a_y):
    atoms = build_ladder(LadderSpec(kind, n_rungs, a_x, a_y))
    v = pairwise_couplings(atoms.positions, c6=100.0)
    assert np.allclose(v, v.T)
    assert np.all(np.diag(v) == 0.0)
    off = ~np.eye(len(v), dtype=bool)
    assert np.all(v[off] > 0.0)


@settings(deadline=None, max_examples=50)
@given(a_x=st.floats(1.0, 20.0), a_y=st.floats(1.0, 20.0))
def test_two_leg_named_couplings_match_both_forms(a_x, a_y):
    """V2 = V0 rho^6 / (1 + rho^2)^3 equals C6 / (a_x^2 + a_y^2)^3 exactly."""
    c6 = 858386.0
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 2, a_x, a_y))
    named = ladder_couplings(atoms.spec, c6)
    rho = a_y / a_x
    v0 = c6 / a_y**6
    assert named["V0"] == pytest.approx(v0, rel=1e-12)
    assert named["V1"] == pytest.approx(v0 * rho**6, rel=1e-12)
    assert named["V2"] == pytest.approx(v0 * rho**6 / (1 + rho**2) ** 3, rel=1e-12)


def test_three_leg_named_couplings():
    c6 = 100.0
    atoms = build_ladder(LadderSpec(LadderKind.THREE_LEG, 2, a_x=6.0, a_y=2.0))
    named = ladder_couplings(atoms.spec, c6)
    assert named["V0"] == pytest.approx(c6 / 2.0**6)
    assert named["V0p"] == pytest.approx(c6 / 4.0**6)
    assert named["V1"] == pytest.approx(c6 / 6.0**6)
    assert named["V2"] == pytest.approx(c6 / (36.0 + 4.0) ** 3)
    assert named["V3"] == pytest.approx(c6 / (36.0 + 16.0) ** 3)


def test_named_couplings_appear_in_matrix():
    """Every named coupling equals an actual pair entry of the matrix."""
    for kind in (LadderKind.TWO_LEG, LadderKind.THREE_LEG, LadderKind.PRISM,
                 LadderKind.IN_PLANE_TRIANGLE):
        atoms = build_ladder(LadderSpec(kind, 3, a_x=6.0, a_y=2.5))
        vals = pairwise_couplings(atoms.positions, c6=77.0)[~np.eye(atoms.n_atoms, dtype=bool)]
        for name, val in ladder_couplings(atoms.spec, 77.0).items():
            assert np.min(np.abs(vals - val)) < 1e-9 * val, name


def test_coincident_atoms_rejected():
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 2, a_x=5.0, a_y=2.0))
    bad = atoms.positions.copy()
    bad[2] = bad[0]
    with pytest.raises(GeometryError):
        pairwise_couplings(bad, c6=1.0)
