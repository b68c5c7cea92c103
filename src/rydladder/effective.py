"""Effective spin-1 coefficients, perturbation theory, and parameter matching.

Sign convention: the closed forms return the coefficients produced by direct
expansion of the simulator diagonal (repulsive interactions give a positive
antiferromagnetic R for the two-leg ladder).  The ferromagnetic convention of
the target model corresponds to the staggered redefinition
L^z_{2i+1} -> -L^z_{2i+1}, which flips the sign of R and nothing else; pass
``staggered=True`` to apply it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .geometry import LadderKind, LadderSpec, ladder_couplings


class MatchingError(ValueError):
    pass


class ResonanceError(ZeroDivisionError):
    pass


class BoundaryCondition(str, Enum):
    OBC = "obc"
    PBC = "pbc"
    ZERO_ZERO = "00bc"


@dataclass(frozen=True)
class TargetCouplings:
    """Couplings (U, X, Y, Y') of the compact-scalar-QED target family."""

    U: float
    X: float
    Y: float
    Yp: float = 0.0


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Coefficients of the generic effective spin-1 chain.

    ``J`` is the amplitude of the spin-1 hopping m -> m +- 1 and ``J2`` that of
    the |-1> <-> |+1> element, equal to J for the three-state clock operator
    and 0 for the ladder operator.  ``longrange`` lists (k, R_k, R'_k), the
    range-k counterparts of (R, R') for k >= 2.  The chain's constant, one
    ``const_site`` per site and one ``const_bond`` per nearest-neighbour bond
    (n - 1 open, n on a ring), is on its diagonal (``effective_spin1_hamiltonian``).
    ``bc_lz2_edge``/``bc_const`` hold the 00-boundary-condition corrections
    where they are known.
    """

    D: float
    R: float
    Rp: float
    J: float
    J2: float = 0.0
    const_site: float = 0.0
    const_bond: float = 0.0
    d_first: float | None = None
    d_last: float | None = None
    bc_lz2_edge: float = 0.0
    bc_const: float = 0.0
    longrange: tuple = ()
    validity: dict = field(default_factory=dict)


def _check_denominators(named: dict):
    for name, val in named.items():
        if val == 0.0:
            raise ResonanceError(f"vanishing denominator: {name} = 0")


def _ladder_v(kind: LadderKind, v0: float, rho: float, **shape) -> dict:
    """Geometry's named couplings in units a_y = 1 (so c6 = V0) at a_x = 1/rho."""
    return ladder_couplings(LadderSpec(kind, 1, 1.0 / rho, 1.0, **shape), v0)


def coeffs_two_leg(
    v0: float,
    delta: float,
    omega: float,
    rho: float,
    k_max: int = 1,
    staggered: bool = False,
) -> EffectiveCoefficients:
    """Effective chain for the two-leg ladder, with the range-k tail
    (k, R_k, R'_k) for 2 <= k <= k_max in ``longrange``."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    sgn = -1.0 if staggered else 1.0
    terms = []   # (k, R_k, R'_k): range-k pairs see the same table at k times the rung spacing
    for k in range(1, k_max + 1):
        v = _ladder_v(LadderKind.TWO_LEG, v0, rho / k)
        terms.append((k, sgn * (v["V1"] - v["V2"]) / 2.0, (v["V1"] + v["V2"]) / 2.0))
    (_, r, rp), *longrange = terms
    return EffectiveCoefficients(
        D=-delta,
        R=r,
        Rp=rp,
        J=-omega / 2.0,
        longrange=tuple(longrange),
        validity={
            "rabi_leakage": omega**2 / (4.0 * v0) if v0 else math.inf,
            "detuning_ratio": abs(delta) / v0 if v0 else math.inf,
            "nnn_ratio": 1.0 / 64.0 * (1 + rho**2) ** 3,
        },
    )


def _rung_b(v0: float, delta: float, delta0: float) -> float:
    """The second-order sum B = 2 / (V0 - Delta) + 1 / (Delta + Delta_0) of the three-atom rung."""
    _check_denominators({"V0-Delta": v0 - delta, "Delta+Delta_0": delta + delta0})
    return 2.0 / (v0 - delta) + 1.0 / (delta + delta0)


def _rung_constant(v0: float, delta: float, delta0: float, omega: float) -> float:
    """Per-rung constant -(Delta + Delta_0) - Omega^2 B / 4 of a three-atom rung."""
    return -(delta + delta0) - omega**2 * _rung_b(v0, delta, delta0) / 4.0


def rung_rabi_j(v0: float, delta: float, omega: float) -> float:
    """Clock coupling for a fully blockaded symmetric rung (prism, in-plane)."""
    _check_denominators({"Delta": delta, "V0-Delta": v0 - delta})
    return omega**2 * v0 / (4.0 * delta * (v0 - delta))


def _three_leg_validity(case, v0, v0p, delta, delta0, omega):
    out = {
        "rabi_leakage": omega**2 / (4.0 * v0) if v0 else math.inf,
        "nnn_rung_ratio": 1.0 / 64.0,
    }
    if case == 1:
        out["blockade_ratio"] = max(abs(delta0), abs(omega)) / delta if delta else math.inf
        out["rung_gap_ratio"] = delta / min(v0, v0p) if min(v0, v0p) else math.inf
    else:
        scale = min(v0, abs(delta), abs(v0 - delta))
        out["band_gap_ratio"] = (
            max(v0p, abs(delta0), abs(omega)) / scale if scale else math.inf
        )
    return out


def _clock_rung(v: dict, v0, delta, delta0, omega) -> dict:
    """J, constant and validity of a blockaded triangular rung.  J and the
    constant assume V0 = V0'; ``rung_asymmetry`` = |V0' - V0| / V0 flags it."""
    validity = _three_leg_validity(1, v0, v["V0p"], delta, delta0, omega)
    validity["rung_asymmetry"] = abs(v["V0p"] - v0) / v0 if v0 else math.inf
    j = rung_rabi_j(v0, delta, omega)
    return dict(J=j, J2=j, validity=validity, const_site=_rung_constant(v0, delta, delta0, omega))


def _three_atom_rung_diagonal(v: dict, d_site: float, staggered: bool) -> dict:
    """Three-atom-rung diagonal coefficients atop the on-rung (L^z)^2 term ``d_site``."""
    v1, v2, v3 = v["V1"], v["V2"], v["V3"]
    sgn = -1.0 if staggered else 1.0
    return dict(
        D=d_site + 2.0 * (v2 - v1),
        R=sgn * (v1 - v3) / 2.0,
        Rp=(3.0 * v1 + v3) / 2.0 - 2.0 * v2,
        const_bond=v1,
        d_first=d_site + (v2 - v1),
        d_last=d_site + (v2 - v1),
        bc_lz2_edge=v2 - v1,
        bc_const=2.0 * v1,
    )


def coeffs_three_leg(
    case: int,
    v0: float,
    delta: float,
    delta0: float,
    omega: float,
    rho: float,
    staggered: bool = False,
) -> EffectiveCoefficients:
    """Effective chain for the rectangular three-leg ladder, second order in Omega.

    Case 1 (whole rung blockaded): clock operator, J = Omega^2 / (4 Delta), and the PT
    diagonal (B - A) Omega^2 / 4 with A = 1/(V0 - Delta - Delta_0) + 1/(V0' - Delta) + 1/Delta.
    Case 2 (spin-1 sector above the |r.r> band): ladder operator and the Delta_0-independent
    J = Omega^2 V0 / [4 Delta (V0 - Delta)], which also enters D; it equals Omega^2 Gamma / 4
    at Delta_0 = 0, Gamma = [1/Delta + 1/(V0-Delta) + 1/(Delta+Delta_0) + 1/(V0-Delta-Delta_0)] / 2.
    The bulk (L^z)^2 coefficient absorbs the nearest-neighbor edge term as 2 (V2 - V1); the
    per-rung edge values are exposed through ``d_first``/``d_last``.
    """
    v = _ladder_v(LadderKind.THREE_LEG, v0, rho)
    v0p = v["V0p"]
    _check_denominators({"Delta": delta, "Delta+Delta_0": delta + delta0, "V0-Delta": v0 - delta,
                         "V0'-Delta": v0p - delta, "V0-Delta-Delta_0": v0 - delta - delta0})
    if case == 1:
        a = 1.0 / (v0 - delta - delta0) + 1.0 / (v0p - delta) + 1.0 / delta
        j = j2 = omega**2 / (4.0 * delta)
        pt_diag = (_rung_b(v0, delta, delta0) - a) * omega**2 / 4.0
    elif case == 2:
        j = pt_diag = rung_rabi_j(v0, delta, omega)
        j2 = 0.0
    else:
        raise ValueError(f"case must be 1 or 2, got {case}")
    return EffectiveCoefficients(
        J=j,
        J2=j2,
        const_site=_rung_constant(v0, delta, delta0, omega),
        validity=_three_leg_validity(case, v0, v0p, delta, delta0, omega),
        **_three_atom_rung_diagonal(v, delta0 + pt_diag, staggered),
    )


def coeffs_prism(
    v0: float,
    delta: float,
    delta0: float,
    omega: float,
    rho: float,
    height: float | None = None,
    staggered: bool = False,
) -> EffectiveCoefficients:
    """Effective chain for the triangular prism, middle leg at ``height``.

    ``height`` is in units where a_y = 1; ``None`` selects the equilateral
    sqrt(3)/2.  J and the Omega^2 constant assume V0 = V0' (see ``_clock_rung``).
    """
    v = _ladder_v(LadderKind.PRISM, v0, rho, prism_height=height)
    return EffectiveCoefficients(
        **_clock_rung(v, v0, delta, delta0, omega), **_three_atom_rung_diagonal(v, delta0, staggered)
    )


def coeffs_in_plane(
    v0: float,
    delta: float,
    delta0: float,
    omega: float,
    rho: float,
    shift: float | None = None,
    staggered: bool = False,
) -> EffectiveCoefficients:
    """Effective chain for in-plane triangles with a shifted middle leg.

    ``shift`` is the leftward middle-leg displacement in units where a_y = 1;
    ``None`` selects the equilateral triangle sqrt(3)/2; see ``_clock_rung``.
    """
    v = _ladder_v(LadderKind.IN_PLANE_TRIANGLE, v0, rho, shift=shift)
    v1, v2, v3, v4 = v["V1"], v["V2"], v["V3"], v["V4"]
    sgn = -1.0 if staggered else 1.0
    return EffectiveCoefficients(
        D=delta0 + v2 + v4 - 2.0 * v1,
        R=sgn * (v1 - v3) / 2.0,
        Rp=(3.0 * v1 + v3) / 2.0 - v2 - v4,
        const_bond=v1,
        d_first=delta0 / 2.0 + v2 - v1,
        d_last=delta0 / 2.0 + v4 - v1,
        **_clock_rung(v, v0, delta, delta0, omega),
    )


def target_coefficients(
    model: str,
    t: TargetCouplings,
    bc: BoundaryCondition = BoundaryCondition.OBC,
    clock: bool = False,
) -> EffectiveCoefficients:
    """The chain of a target model as effective spin-1 coefficients.

    ``"cahm"``: the open compact Abelian Higgs chain
    (U/2) sum (L^z)^2 - Y sum L^z L^z - X sum U^x, i.e. D = U/2, R = -Y,
    R' = 0, J = X/2; only the spin-1 truncation is exercised, and Y' and
    ``clock`` are not read.

    ``"sqed-field"``: the field representation with the quartic Y' penalty,
    (U/2 + Y) sum (L^z)^2 - (Y + Y') sum L^z L^z + Y' sum (L^z)^2 (L^z)^2
    - (X/2) sum (U+ + U-).  Under 00BC the boundary fields are fixed to zero;
    their bonds contribute no cross terms, so the chain keeps a uniform D.
    Under OBC the edge (L^z)^2 coefficients drop to U/2 + Y/2.  ``clock``
    adds the |-1> <-> |+1> element at J2 = X/2.
    """
    bc = BoundaryCondition(bc)
    if model == "cahm":
        if bc is not BoundaryCondition.OBC:
            raise ValueError("the CAHM chain is open")
        return EffectiveCoefficients(D=0.5 * t.U, R=-t.Y, Rp=0.0, J=0.5 * t.X)
    if model == "sqed-field":
        if bc is BoundaryCondition.PBC:
            raise ValueError("field representation supports OBC and 00BC only")
        edge = 0.5 * t.U + 0.5 * t.Y if bc is BoundaryCondition.OBC else None
        return EffectiveCoefficients(D=0.5 * t.U + t.Y, R=-(t.Y + t.Yp), Rp=t.Yp, J=0.5 * t.X,
                                     J2=0.5 * t.X if clock else 0.0, d_first=edge, d_last=edge)
    raise ValueError(f"no coefficient map for target model {model!r}")


# ---------------------------------------------------------------------------
# Matching to the compact-scalar-QED target couplings

MATCH_RTOL = 1e-10   # round-trip error of (U, X, Y, Y'), relative to the largest, that inverse matching accepts
# the routes of match_forward and match_inverse, each with the ladder it describes
MATCH_CASES = {"three-leg-00bc": LadderKind.THREE_LEG, "two-leg": LadderKind.TWO_LEG, "clock-00bc": LadderKind.PRISM}


def _three_leg_y(v: dict) -> tuple[float, float]:
    """Three-leg Y = 2 V2 - V1 - V3 and Y + Y' = (V1 - V3) / 2 of a coupling table."""
    v1, v2, v3 = v["V1"], v["V2"], v["V3"]
    return 2.0 * v2 - v1 - v3, (v1 - v3) / 2.0


def match_forward(
    case: str,
    v0: float,
    delta: float,
    delta0: float,
    omega: float,
    rho: float,
    height: float | None = None,
):
    """Device parameters -> target couplings (U, X, Y, Y') and constant.

    Returns ``(targets, const_site, const_offset)``; the identity coefficient
    of the matched model is ``n_sites * const_site + const_offset``.

    ``case`` selects the matching route:

    * ``"three-leg-00bc"`` -- three-leg ladder, two-rung matching, 00BC;
    * ``"two-leg"``        -- two-leg ladder (reaches only Y < 0);
    * ``"clock-00bc"``     -- clock variant on the prism at ``height`` (equilateral: Y' = -3Y/2).

    The targets invert ``target_coefficients("sqed-field")`` on the route's staggered chain:
    Y' = R', Y = -(R + R'), U = 2 (D - Y), X = 2 J (two-leg: X = -2 J = Omega, the bare drive).
    """
    if case not in MATCH_CASES:
        raise MatchingError(f"unknown matching case {case!r}")
    if case == "two-leg":
        c = coeffs_two_leg(v0, delta, omega, rho, staggered=True)
    elif case == "three-leg-00bc":
        c = coeffs_three_leg(2, v0, delta, delta0, omega, rho, staggered=True)
    else:
        c = coeffs_prism(v0, delta, delta0, omega, rho, height, staggered=True)
    y = -(c.R + c.Rp)
    t = TargetCouplings(U=2.0 * (c.D - y), X=(-2.0 if case == "two-leg" else 2.0) * c.J, Y=y, Yp=c.Rp)
    if case == "two-leg":
        return t, 0.0, 0.0
    # the paper's drive constant keeps 1/Delta where the chain's const_site has 1/(Delta + Delta_0)
    drive = omega**2 / 4.0 * (2.0 / (delta - v0) - 1.0 / delta)
    return t, -(delta + delta0) + c.const_bond + drive, c.const_bond


def _three_leg_rho_from_ratio(ratio: float) -> float:
    """Solve Y / (Y + Y') = g(rho) for the three-leg ladder by bisection."""
    from scipy.optimize import brentq   # lazy: importing scipy.optimize costs ~15 MB of peak RSS

    def g(rho):
        y, s = _three_leg_y(_ladder_v(LadderKind.THREE_LEG, 1.0, rho))
        return y / s

    lo, hi = 1e-3, 0.999
    glo, ghi = g(lo), g(hi)
    if not (min(glo, ghi) <= ratio <= max(glo, ghi)):
        raise MatchingError(
            f"Y/(Y+Y') ratio {ratio:.4g} is outside the reachable range "
            f"({min(glo, ghi):.4g}, {max(glo, ghi):.4g}) of the three-leg geometry"
        )
    return float(brentq(lambda r: g(r) - ratio, lo, hi, xtol=1e-14))


def match_inverse(target, case: str = "three-leg-00bc", omega: float = 1.0):
    """Target couplings -> device parameters (v0, delta, delta0, omega, rho), in closed form.

    ``match_forward`` at the returned point must reproduce (U, X, Y, Y') to
    ``MATCH_RTOL`` times the largest of them, or :class:`MatchingError` is
    raised, as it is for unreachable targets, naming the violated constraint.
    """
    u, x, y, yp = target.U, target.X, target.Y, target.Yp
    if case == "three-leg-00bc":
        s = y + yp  # = (V1 - V3) / 2 > 0 for any geometry
        if s <= 0:
            raise MatchingError("three-leg matching requires Y + Y' > 0 (V1 > V3)")
        if x <= 0:
            raise MatchingError("three-leg matching requires X > 0")
        rho = _three_leg_rho_from_ratio(y / s)
        v0 = s / _three_leg_y(_ladder_v(LadderKind.THREE_LEG, 1.0, rho))[1]
        v = _ladder_v(LadderKind.THREE_LEG, v0, rho)
        # X = Omega^2 V0 / (2 Delta (V0 - Delta)) attains its minimum
        # 2 Omega^2 / V0 at Delta = V0 / 2.  With (V0, rho) pinned by (Y, Y')
        # a smaller X is unreachable at the requested drive, so the drive
        # amplitude is reduced to make the degenerate point exact; otherwise
        # the smaller quadratic root is taken at the requested Omega.
        disc = v0**2 - 2.0 * omega**2 * v0 / x
        if disc < 0.0:
            omega, delta = math.sqrt(0.5 * x * v0), 0.5 * v0
        else:
            delta = (v0 - math.sqrt(disc)) / 2.0
        delta0 = (u - 2.0 * v["V3"] + 2.0 * v["V1"] - x) / 2.0
        params = {"v0": v0, "delta": delta, "delta0": delta0, "omega": omega, "rho": rho}
    elif case == "two-leg":
        if y >= 0:
            raise MatchingError("the two-leg ladder can only simulate negative Y")
        v2 = -y
        v1 = 2.0 * yp - v2
        if v1 <= v2:
            raise MatchingError("two-leg matching requires Y' > -Y (V1 > V2 > 0)")
        rho = math.sqrt((v1 / v2) ** (1.0 / 3.0) - 1.0)
        params = {"v0": v1 / rho**6, "delta": v2 - u / 2.0, "delta0": 0.0, "omega": x, "rho": rho}
    elif case == "clock-00bc":
        if abs(yp + 1.5 * y) > 1e-12 * max(1.0, abs(y)):
            raise MatchingError("the equilateral clock variant is constrained to Y' = -3Y/2")
        if y >= 0:
            raise MatchingError("the clock variant can only simulate negative Y")
        raise MatchingError(
            "clock-variant inverse matching is underdetermined (V0, rho trade off); "
            "fix the geometry and use match_forward"
        )
    else:
        raise MatchingError(f"unknown matching case {case!r}")
    t, _, _ = match_forward(case, **params)
    miss = max(abs(t.U - u), abs(t.X - x), abs(t.Y - y), abs(t.Yp - yp))
    if not miss <= MATCH_RTOL * max(abs(u), abs(x), abs(y), abs(yp)):
        raise MatchingError(f"the matched device misses the targets by {miss:.3e}")
    return params
