"""Effective coefficients, perturbation theory, and parameter matching."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydladder import (
    LadderKind,
    LadderSpec,
    MatchingError,
    ResonanceError,
    TargetCouplings,
    build_ladder,
    coeffs_in_plane,
    coeffs_prism,
    coeffs_three_leg,
    coeffs_two_leg,
    ladder_couplings,
    match_forward,
    match_inverse,
    rung_rabi_j,
)
from rydladder import effective

from references import diagonal_expansion_oracle, ising_reduction, ising_reduction_critical_delta


def test_two_leg_coefficients_form():
    v0, delta, omega, rho = 640.0, 3.0, 1.2, 0.5
    coeffs = coeffs_two_leg(v0, delta, omega, rho)
    v1 = v0 * rho**6
    v2 = v0 * rho**6 / (1 + rho**2) ** 3
    assert coeffs.D == pytest.approx(-delta)
    assert coeffs.R == pytest.approx((v1 - v2) / 2)
    assert coeffs.Rp == pytest.approx((v1 + v2) / 2)
    assert coeffs.J == pytest.approx(-omega / 2)
    assert (coeffs.J2, coeffs.longrange) == (0.0, ())


def test_two_leg_longrange_tail_decays():
    coeffs = coeffs_two_leg(640.0, 3.0, 1.2, 0.5, k_max=4)
    assert [k for k, _, _ in coeffs.longrange] == [2, 3, 4]
    rps = [coeffs.Rp] + [rpk for _, _, rpk in coeffs.longrange]
    assert all(a > b > 0 for a, b in zip(rps, rps[1:]))
    # range-k couplings scale as 1/k^6 on the same leg
    v1_2 = ladder_couplings(LadderSpec(LadderKind.TWO_LEG, 1, 2 / 0.5, 1.0), 640.0)["V1"]
    v1_1 = ladder_couplings(LadderSpec(LadderKind.TWO_LEG, 1, 1 / 0.5, 1.0), 640.0)["V1"]
    assert v1_2 == pytest.approx(v1_1 / 64.0)


def test_three_leg_case1_pt_diagonal():
    """Case 1 hops with the clock operator at Omega^2 / (4 Delta) and adds the
    second-order diagonal (B - A) Omega^2 / 4 to the on-rung Delta_0."""
    v0, delta, delta0, omega, rho = 100.0, 40.0, 0.3, 2.0, 0.4
    c = coeffs_three_leg(1, v0, delta, delta0, omega, rho)
    v = ladder_couplings(LadderSpec(LadderKind.THREE_LEG, 1, 1 / rho, 1.0), v0)
    v0p = v["V0p"]
    assert v0p == pytest.approx(v0 / 64.0)
    a = 1 / (v0 - delta - delta0) + 1 / (v0p - delta) + 1 / delta
    b = 2 / (v0 - delta) + 1 / (delta + delta0)
    assert c.J == pytest.approx(omega**2 / (4 * delta))
    assert c.J2 == c.J
    assert c.D == pytest.approx(delta0 + (b - a) * omega**2 / 4 + 2 * (v["V2"] - v["V1"]))


def test_rabi_pt_resonance_detection():
    for case in (1, 2):
        with pytest.raises(ResonanceError, match="denominator: Delta = 0"):
            coeffs_three_leg(case, 100.0, 0.0, 0.1, 1.0, 0.4)
        with pytest.raises(ResonanceError, match="denominator: V0-Delta = 0"):
            coeffs_three_leg(case, 100.0, 100.0, 0.0, 1.0, 0.4)


@pytest.mark.parametrize("coeffs", [coeffs_prism, coeffs_in_plane])
def test_triangular_rung_resonances_raise_resonance_error(coeffs):
    """The blockaded triangular rung divides by V0 - Delta and Delta + Delta_0;
    at Delta_0 = -Delta it used to end in a bare ZeroDivisionError."""
    with pytest.raises(ResonanceError, match=r"denominator: Delta\+Delta_0 = 0"):
        coeffs(100.0, 40.0, -40.0, 1.0, 0.4)
    with pytest.raises(ResonanceError, match="denominator: V0-Delta = 0"):
        coeffs(100.0, 100.0, 0.3, 1.0, 0.4)


def test_three_leg_rabi_cases():
    v0, delta, delta0, omega = 100.0, 40.0, 0.0, 2.0
    c = coeffs_three_leg(2, v0, delta, delta0, omega, 0.4)
    gamma = 0.5 * (1 / delta + 1 / (v0 - delta) + 1 / (delta + delta0) + 1 / (v0 - delta - delta0))
    assert c.J2 == 0.0
    assert c.J == pytest.approx(omega**2 * gamma / 4)
    with pytest.raises(ValueError):
        coeffs_three_leg(3, v0, delta, delta0, omega, 0.4)


def test_rung_rabi_closed_form_equals_pt_sum_without_offset():
    """Omega^2 V0 / [4 Delta (V0-Delta)] equals Omega^2 Gamma / 4 at Delta_0 = 0."""
    v0, delta, delta0, omega = 100.0, 37.0, 0.0, 1.7
    gamma = 0.5 * (1 / delta + 1 / (v0 - delta) + 1 / (delta + delta0) + 1 / (v0 - delta - delta0))
    assert rung_rabi_j(v0, delta, omega) == pytest.approx(omega**2 * gamma / 4, rel=1e-12)


def test_staggered_flips_only_r():
    c = coeffs_three_leg(2, 100.0, 50.0, 0.2, 1.0, 0.4)
    cs = coeffs_three_leg(2, 100.0, 50.0, 0.2, 1.0, 0.4, staggered=True)
    assert cs.R == -c.R
    assert (cs.D, cs.Rp, cs.J) == (c.D, c.Rp, c.J)


def _oracle_case(kind, case, v0, delta, delta0, rho, shift=None, height=None):
    """Closed-form coefficients vs brute-force two-rung fit at Omega = 0."""
    ay = 1.0
    ax = ay / rho
    spec_kw = {}
    if kind is LadderKind.IN_PLANE_TRIANGLE and shift is not None:
        spec_kw["shift"] = shift * ay
    if kind is LadderKind.PRISM and height is not None:
        spec_kw["prism_height"] = height * ay
    atoms = build_ladder(LadderSpec(kind, 2, ax, ay, **spec_kw), delta0=delta0)
    oracle, residual = diagonal_expansion_oracle(atoms, v0 * ay**6, delta)
    if kind is LadderKind.TWO_LEG:
        closed = coeffs_two_leg(v0, delta, 0.0, rho)
    elif kind is LadderKind.THREE_LEG:
        closed = coeffs_three_leg(case, v0, delta, delta0, 0.0, rho)
    elif kind is LadderKind.PRISM:
        closed = coeffs_prism(v0, delta, delta0, 0.0, rho, height)
    else:
        closed = coeffs_in_plane(v0, delta, delta0, 0.0, rho, shift)
    return oracle, residual, closed


GEOMETRY_CASES = [
    (LadderKind.TWO_LEG, 0),
    (LadderKind.THREE_LEG, 1),
    (LadderKind.THREE_LEG, 2),
    (LadderKind.PRISM, 0),
    (LadderKind.IN_PLANE_TRIANGLE, 0),
]


@pytest.mark.parametrize("kind,case", GEOMETRY_CASES)
def test_oracle_matches_closed_form(kind, case):
    _assert_oracle_matches(kind, case)


@pytest.mark.parametrize("height", [0.5, 2.0])
def test_prism_oracle_at_height(height):
    """The prism diagonal follows prism_height, not the equilateral couplings."""
    _assert_oracle_matches(LadderKind.PRISM, 0, height=height)


def _assert_oracle_matches(kind, case, height=None):
    delta0 = 0.4
    oracle, residual, closed = _oracle_case(kind, case, v0=200.0, delta=35.0,
                                            delta0=delta0, rho=0.45, height=height)
    assert residual < 1e-10
    scale = max(1.0, abs(closed.D), abs(closed.Rp))
    assert oracle.D == pytest.approx(closed.D, abs=1e-10 * scale)
    assert oracle.R == pytest.approx(closed.R, abs=1e-10 * scale)
    assert oracle.Rp == pytest.approx(closed.Rp, abs=1e-10 * scale)
    assert oracle.const_site == pytest.approx(closed.const_site, abs=1e-10 * scale)
    assert oracle.const_bond == pytest.approx(closed.const_bond, abs=1e-10 * scale)
    if closed.d_first is not None:
        # The in-plane closed form halves the edge detuning offset
        # (Delta_0/2 + V - V1) to minimize boundary effects; the oracle fits
        # the literal diagonal, which carries the full Delta_0.
        edge_shift = delta0 / 2 if kind is LadderKind.IN_PLANE_TRIANGLE else 0.0
        assert oracle.d_first == pytest.approx(closed.d_first + edge_shift, abs=1e-10 * scale)
        assert oracle.d_last == pytest.approx(closed.d_last + edge_shift, abs=1e-10 * scale)


def test_oracle_requires_two_rungs():
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 3, 4.0, 2.0))
    with pytest.raises(ValueError):
        diagonal_expansion_oracle(atoms, 100.0, 1.0)


def test_ising_reduction_residual_root():
    v1, v2 = 15.625, 8.0
    root = ising_reduction_critical_delta(v1, v2)
    j_eff, transverse, resid = ising_reduction(root, v1, v2)
    assert abs(resid) < 1e-9
    assert j_eff == pytest.approx(transverse, rel=1e-9)
    # the residual changes sign across the root
    assert ising_reduction(root * 0.9, v1, v2)[2] * ising_reduction(root * 1.1, v1, v2)[2] < 0


def test_match_forward_three_leg_consistency():
    """Targets recomputed independently from the coupling formulas."""
    v0, delta, delta0, omega, rho = 100.0, 40.0, 0.3, 1.0, 0.43
    t, const_site, const_offset = match_forward("three-leg-00bc", v0, delta, delta0, omega, rho)
    v = ladder_couplings(LadderSpec(LadderKind.THREE_LEG, 1, 1 / rho, 1.0), v0)
    v1, v2, v3 = v["V1"], v["V2"], v["V3"]
    x = omega**2 * v0 / (2 * delta * (v0 - delta))
    assert t.X == pytest.approx(x, rel=1e-12)
    assert t.U == pytest.approx(2 * delta0 + 2 * v3 - 2 * v1 + x, rel=1e-12)
    assert t.Y == pytest.approx(2 * v2 - v1 - v3, rel=1e-12)
    assert t.Y + t.Yp == pytest.approx((v1 - v3) / 2, rel=1e-12)
    assert const_offset == pytest.approx(v1)


def test_match_forward_two_leg():
    v0, rho = 640.0, 0.5
    v = ladder_couplings(LadderSpec(LadderKind.TWO_LEG, 1, 1 / rho, 1.0), v0)
    v1, v2 = v["V1"], v["V2"]
    t, _, _ = match_forward("two-leg", v0, 3.0, 0.0, 1.2, rho)
    assert t.U == pytest.approx(-6.0 + 2 * v2)
    assert t.X == pytest.approx(1.2)
    assert t.Y == pytest.approx(-v2)
    assert t.Yp == pytest.approx((v1 + v2) / 2)


def test_match_forward_unknown_case():
    with pytest.raises(MatchingError):
        match_forward("nonsense", 1.0, 1.0, 0.0, 1.0, 0.5)


@settings(deadline=None, max_examples=25)
@given(
    v0=st.floats(50.0, 500.0),
    frac=st.floats(0.05, 0.95),
    delta0=st.floats(-0.5, 0.5),
    omega=st.floats(0.2, 2.0),
    rho=st.floats(0.1, 0.9),
)
def test_three_leg_match_round_trip(v0, frac, delta0, omega, rho):
    delta = frac * v0
    t, _, _ = match_forward("three-leg-00bc", v0, delta, delta0, omega, rho)
    params = match_inverse(t, "three-leg-00bc", omega=omega)
    t2, _, _ = match_forward(
        "three-leg-00bc", params["v0"], params["delta"], params["delta0"],
        params["omega"], params["rho"],
    )
    scale = max(abs(t.U), abs(t.X), abs(t.Y), abs(t.Yp), 1e-6)
    assert abs(t2.U - t.U) < 1e-8 * scale
    assert abs(t2.X - t.X) < 1e-8 * scale
    assert abs(t2.Y - t.Y) < 1e-8 * scale
    assert abs(t2.Yp - t.Yp) < 1e-8 * scale


def test_two_leg_match_round_trip():
    t = TargetCouplings(U=-4.0, X=1.1, Y=-8.0, Yp=12.0)
    params = match_inverse(t, "two-leg")
    t2, _, _ = match_forward(
        "two-leg", params["v0"], params["delta"], params["delta0"],
        params["omega"], params["rho"],
    )
    assert t2.U == pytest.approx(t.U, rel=1e-10)
    assert t2.X == pytest.approx(t.X, rel=1e-10)
    assert t2.Y == pytest.approx(t.Y, rel=1e-10)
    assert t2.Yp == pytest.approx(t.Yp, rel=1e-10)


def test_match_inverse_rejections():
    with pytest.raises(MatchingError):
        match_inverse(TargetCouplings(U=0, X=1, Y=0.5, Yp=0.1), "two-leg")  # Y >= 0
    with pytest.raises(MatchingError):
        match_inverse(TargetCouplings(U=0, X=1, Y=0.1, Yp=-0.5), "three-leg-00bc")  # Y+Y' <= 0
    with pytest.raises(MatchingError):
        match_inverse(TargetCouplings(U=0, X=-1, Y=0.1, Yp=0.5), "three-leg-00bc")  # X <= 0
    with pytest.raises(MatchingError):
        match_inverse(TargetCouplings(U=0, X=1, Y=-0.1, Yp=0.2), "clock-00bc")  # Y' != -3Y/2
    with pytest.raises(MatchingError, match="underdetermined"):
        match_inverse(TargetCouplings(U=0, X=1, Y=-0.2, Yp=0.3), "clock-00bc")


def test_match_inverse_reduces_drive_at_the_degenerate_point():
    """When X sits below the minimum reachable at the requested drive, the
    inverse pins Delta = V0/2 and returns the reduced drive amplitude."""
    t, _, _ = match_forward("three-leg-00bc", 100.0, 50.0, 0.3, 1.0, 0.43)
    params = match_inverse(t, "three-leg-00bc", omega=2.0)
    assert params["omega"] == pytest.approx(1.0, rel=1e-9)
    assert params["delta"] == pytest.approx(0.5 * params["v0"], rel=1e-12)


def test_match_inverse_checks_its_round_trip(monkeypatch):
    """A device point that misses the targets is refused, not returned."""
    t, _, _ = match_forward("three-leg-00bc", 100.0, 40.0, 0.3, 1.0, 0.43)
    assert match_inverse(t, "three-leg-00bc")["rho"] == pytest.approx(0.43, rel=1e-12)
    solve = effective._three_leg_rho_from_ratio
    monkeypatch.setattr(effective, "_three_leg_rho_from_ratio", lambda ratio: solve(ratio) * (1.0 + 1e-6))
    with pytest.raises(MatchingError, match="misses the targets"):
        match_inverse(t, "three-leg-00bc")


def test_clock_forward_constraint():
    t, _, _ = match_forward("clock-00bc", 100.0, 40.0, 0.3, 1.0, 0.5)
    assert t.Yp == pytest.approx(-1.5 * t.Y, rel=1e-12)
    assert t.Y < 0


def test_in_plane_coupling_shift_dependence():
    kind = LadderKind.IN_PLANE_TRIANGLE
    # equilateral default: the middle leg leans toward the previous rung
    v = ladder_couplings(LadderSpec(kind, 1, 1 / 0.4, 1.0), 100.0)
    v1, v2, v3, v4 = v["V1"], v["V2"], v["V3"], v["V4"]
    assert v2 > v4  # closer behind than ahead
    assert v1 > v3
    # zero shift restores the symmetric column: V2 = V4
    v = ladder_couplings(LadderSpec(kind, 1, 1 / 0.4, 1.0, shift=0.0), 100.0)
    v1s, v2s, v3s, v4s = v["V1"], v["V2"], v["V3"], v["V4"]
    assert v2s == pytest.approx(v4s, rel=1e-12)
