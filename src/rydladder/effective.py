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

import numpy as np

from .basis import StateDictionary
from .geometry import AtomArray, CouplingMatrix, LadderKind, LadderSpec, ladder_couplings


class MatchingError(ValueError):
    pass


class ResonanceError(ZeroDivisionError):
    pass


class Flavor(str, Enum):
    LADDER_U = "U"   # spin-1 raising/lowering, no |+1> <-> |-1> channel
    CLOCK_C = "C"    # three-state clock, adds the |+1> <-> |-1> element


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

    The identity coefficient scales with the chain length as
    ``n * const_site + (n - 1) * const_bond``.  ``bc_lz2_edge``/``bc_const``
    hold the 00-boundary-condition corrections where they are known.
    """

    D: float
    R: float
    Rp: float
    J: float
    flavor: Flavor = Flavor.LADDER_U
    const_site: float = 0.0
    const_bond: float = 0.0
    d_first: float | None = None
    d_last: float | None = None
    bc_lz2_edge: float = 0.0
    bc_const: float = 0.0
    validity: dict = field(default_factory=dict)

    def const_total(self, n_sites: int) -> float:
        return n_sites * self.const_site + (n_sites - 1) * self.const_bond


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
):
    """Effective chain for the two-leg ladder, plus long-range tail.

    Returns ``(coeffs, longrange)`` where ``longrange`` lists
    (k, R_k, R'_k) for 2 <= k <= k_max.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    v = _ladder_v(LadderKind.TWO_LEG, v0, rho)
    v1, v2 = v["V1"], v["V2"]
    sgn = -1.0 if staggered else 1.0
    coeffs = EffectiveCoefficients(
        D=-delta,
        R=sgn * (v1 - v2) / 2.0,
        Rp=(v1 + v2) / 2.0,
        J=-omega / 2.0,
        validity={
            "rabi_leakage": omega**2 / (4.0 * v0) if v0 else math.inf,
            "detuning_ratio": abs(delta) / v0 if v0 else math.inf,
            "nnn_ratio": 1.0 / 64.0 * (1 + rho**2) ** 3,
        },
    )
    longrange = []
    for k in range(2, k_max + 1):
        # range-k pairs see the same table at k times the rung spacing
        vk = _ladder_v(LadderKind.TWO_LEG, v0, rho / k)
        v1k, v2k = vk["V1"], vk["V2"]
        longrange.append((k, sgn * (v1k - v2k) / 2.0, (v1k + v2k) / 2.0))
    return coeffs, longrange


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
    return dict(J=rung_rabi_j(v0, delta, omega), flavor=Flavor.CLOCK_C, validity=validity,
                const_site=_rung_constant(v0, delta, delta0, omega))


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
        j, flavor = omega**2 / (4.0 * delta), Flavor.CLOCK_C
        pt_diag = (_rung_b(v0, delta, delta0) - a) * omega**2 / 4.0
    elif case == 2:
        j = pt_diag = rung_rabi_j(v0, delta, omega)
        flavor = Flavor.LADDER_U
    else:
        raise ValueError(f"case must be 1 or 2, got {case}")
    return EffectiveCoefficients(
        J=j,
        flavor=flavor,
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


def diagonal_expansion_oracle(
    atoms: AtomArray,
    couplings: CouplingMatrix,
    delta: float,
):
    """Brute-force fit of the diagonal effective coefficients.

    Evaluates the exact interaction + detuning diagonal of the simulator on
    the 9 spin-sector configurations of a two-rung block and least-squares
    fits const + d1 m1^2 + d2 m2^2 + R m1 m2 + R' m1^2 m2^2.  Returns
    ``(coeffs, residual)``; the residual vanishes up to rounding when only
    nearest-rung pairs contribute.
    """
    if atoms.n_rungs != 2:
        raise ValueError("the oracle expects a two-rung block")
    dictionary = StateDictionary.for_kind(atoms.spec.kind)
    det = delta + atoms.detuning_offset
    v = couplings.v

    energies = np.empty(9)
    design = np.empty((9, 5))
    k = 0
    for m1 in (-1, 0, 1):
        for m2 in (-1, 0, 1):
            config = int(dictionary.configs([m1, m2]))
            occ = np.array([(config >> a) & 1 for a in range(atoms.n_atoms)], float)
            energies[k] = -occ @ det + 0.5 * occ @ v @ occ
            design[k] = (1.0, m1 * m1, m2 * m2, m1 * m2, m1 * m1 * m2 * m2)
            k += 1
    fit, _, rank, _ = np.linalg.lstsq(design, energies, rcond=None)
    if rank < 5:
        raise RuntimeError("singular oracle fit")
    residual = float(np.max(np.abs(design @ fit - energies)))
    const, d1, d2, r, rp = (float(x) for x in fit)
    # Bulk D combines the on-rung part with the bond contribution seen by
    # both edges of the block; the isolated-rung values separate the two.
    # On one rung e(m) = const + d * m^2 over the three spin states.
    e = _single_rung_energies(atoms, delta, dictionary.spin_to_pattern)
    single_d = 0.5 * (e[1] + e[-1]) - e[0]
    single_c = e[0]
    coeffs = EffectiveCoefficients(
        D=d1 + d2 - single_d,
        R=r,
        Rp=rp,
        J=0.0,
        const_site=single_c,
        const_bond=const - 2.0 * single_c,
        d_first=d1,
        d_last=d2,
    )
    return coeffs, residual


def _single_rung_energies(atoms: AtomArray, delta: float, spin_to_pattern: dict) -> dict:
    """Detuning energy of each spin state of one isolated rung (no inter-rung pairs)."""
    rung = atoms.atoms_of_rung(1)
    det = delta + atoms.detuning_offset
    return {
        m: -sum(det[rung[b]] for b in range(len(rung)) if (pat >> b) & 1)
        for m, pat in spin_to_pattern.items()
    }


def ising_reduction(delta: float, v1: float, v2: float):
    """Degenerate-PT Ising couplings inside the density-wave phase.

    Returns (J_eff, transverse coefficient 1/Delta, residual J_eff - 1/Delta).
    The sign change of the residual in Delta locates the small-drive boundary
    between the ferro- and para-ordered density-wave phases.
    """
    _check_denominators({"Delta-V1-V2": delta - v1 - v2, "2Delta-4V2": 2 * delta - 4 * v2,
                         "2Delta-4V1": 2 * delta - 4 * v1, "Delta": delta})
    j_eff = (
        1.0 / (delta - v1 - v2)
        - 1.0 / (2 * delta - 4 * v2)
        - 1.0 / (2 * delta - 4 * v1)
    )
    transverse = 1.0 / delta
    return j_eff, transverse, j_eff - transverse


def ising_reduction_critical_delta(v1: float, v2: float):
    """Root of the Ising-reduction residual in Delta, by bracketed bisection."""
    from scipy.optimize import brentq   # lazy: importing scipy.optimize costs ~15 MB of peak RSS

    lo = 1e-6 * max(v1, v2)
    hi = 2.0 * min(v1, v2) * (1.0 - 1e-9)

    def f(d):
        return ising_reduction(d, v1, v2)[2]

    if f(lo) * f(hi) > 0:
        raise MatchingError(f"no sign change of the residual on ({lo}, {hi})")
    return float(brentq(f, lo, hi, xtol=1e-12))


# ---------------------------------------------------------------------------
# Matching to the compact-scalar-QED target couplings

NEWTON_TOL = 1e-12   # max |residual| of the target couplings at which inverse matching stops
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

    Returns ``(targets, const_site, const_offset)`` with the identity
    coefficient of the matched model given by
    ``n_sites * const_site + const_offset``.

    ``case`` selects the matching route:

    * ``"three-leg-00bc"`` -- three-leg ladder, two-rung matching, 00BC;
    * ``"two-leg"``        -- two-leg ladder (reaches only Y < 0);
    * ``"clock-00bc"``     -- clock variant (Y' = -3Y/2) on the prism at ``height``.
    """
    if case not in MATCH_CASES:
        raise MatchingError(f"unknown matching case {case!r}")
    if case == "two-leg":
        v = _ladder_v(LadderKind.TWO_LEG, v0, rho)
        v1, v2 = v["V1"], v["V2"]
        t = TargetCouplings(U=-2.0 * delta + 2.0 * v2, X=omega, Y=-v2, Yp=(v1 + v2) / 2.0)
        return t, 0.0, 0.0
    # both 00BC routes hop by twice the rung's Rabi coupling and share its drive constant
    x = 2.0 * rung_rabi_j(v0, delta, omega)
    drive = omega**2 / 4.0 * (2.0 / (delta - v0) - 1.0 / delta)
    if case == "three-leg-00bc":
        v = _ladder_v(LadderKind.THREE_LEG, v0, rho)
        v1, v3 = v["V1"], v["V3"]
        y, s = _three_leg_y(v)
        t = TargetCouplings(U=2.0 * delta0 + 2.0 * v3 - 2.0 * v1 + x, X=x, Y=y, Yp=s - y)
    else:
        v = _ladder_v(LadderKind.PRISM, v0, rho, prism_height=height)
        v1, y = v["V1"], v["V2"] - v["V1"]
        t = TargetCouplings(U=2.0 * delta0 + 2.0 * y, X=x, Y=y, Yp=-1.5 * y)
    return t, -(delta + delta0) + v1 + drive, v1


def _damped_newton(f, x0):
    """Damped Newton with a forward-difference Jacobian, to max |f| < NEWTON_TOL."""
    x = np.asarray(x0, dtype=float)
    fx = np.asarray(f(x), dtype=float)
    for _ in range(100):
        if np.max(np.abs(fx)) < NEWTON_TOL:
            return x
        n = len(x)
        jac = np.empty((len(fx), n))
        for k in range(n):
            h = 1e-7 * max(1.0, abs(x[k]))
            xk = x.copy()
            xk[k] += h
            jac[:, k] = (np.asarray(f(xk)) - fx) / h
        try:
            step = np.linalg.solve(jac, fx)
        except np.linalg.LinAlgError as exc:
            raise MatchingError("singular Jacobian in inverse matching") from exc
        lam = 1.0
        base = np.max(np.abs(fx))
        accepted = False
        while lam > 1e-10:
            xn = x - lam * step
            try:
                fn = np.asarray(f(xn), dtype=float)
            except (ResonanceError, FloatingPointError, ValueError):
                lam *= 0.5
                continue
            if np.max(np.abs(fn)) < base:
                x, fx = xn, fn
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
    if np.max(np.abs(fx)) >= NEWTON_TOL:
        raise MatchingError(f"inverse matching did not converge, residual {np.max(np.abs(fx)):.3e}")
    return x


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
    """Target couplings -> device parameters (v0, delta, delta0, rho).

    Uses closed-form seeds followed by a damped-Newton polish so that
    ``match_forward`` round-trips to 1e-10.  Unreachable targets raise
    :class:`MatchingError` naming the violated constraint.
    """
    u, x, y, yp = target.U, target.X, target.Y, target.Yp
    if case == "three-leg-00bc":
        s = y + yp  # = (V1 - V3) / 2 > 0 for any geometry
        if s <= 0:
            raise MatchingError("three-leg matching requires Y + Y' > 0 (V1 > V3)")
        if x <= 0:
            raise MatchingError("three-leg matching requires X > 0")
        rho = _three_leg_rho_from_ratio(y / s)
        unit = _ladder_v(LadderKind.THREE_LEG, 1.0, rho)
        v0 = s / _three_leg_y(unit)[1]
        v = _ladder_v(LadderKind.THREE_LEG, v0, rho)
        v1, v3 = v["V1"], v["V3"]
        delta0_of = lambda xx: (u - 2.0 * v3 + 2.0 * v1 - xx) / 2.0
        # X = Omega^2 V0 / (2 Delta (V0 - Delta)) attains its minimum
        # 2 Omega^2 / V0 at Delta = V0 / 2.  With (V0, rho) pinned by (Y, Y')
        # a smaller X is unreachable at the requested drive, so the drive
        # amplitude is reduced to make the degenerate point exact; otherwise
        # the smaller quadratic root is taken at the requested Omega.
        disc = v0**2 - 2.0 * omega**2 * v0 / x
        if disc < 0.0:
            omega = math.sqrt(0.5 * x * v0)
            delta = 0.5 * v0

            def f(p):
                t, _, _ = match_forward(case, p[0], 0.5 * p[0], p[1], p[3], p[2])
                return [t.U - u, t.X - x, t.Y - y, t.Yp - yp]

            v0, delta0, rho, omega = _damped_newton(f, [v0, delta0_of(x), rho, omega])
            delta = 0.5 * v0
        else:
            delta = (v0 - math.sqrt(disc)) / 2.0

            def f(p):
                t, _, _ = match_forward(case, p[0], p[1], p[2], omega, p[3])
                return [t.U - u, t.X - x, t.Y - y, t.Yp - yp]

            v0, delta, delta0, rho = _damped_newton(f, [v0, delta, delta0_of(x), rho])
        return {"v0": v0, "delta": delta, "delta0": delta0, "omega": omega, "rho": rho}
    if case == "two-leg":
        if y >= 0:
            raise MatchingError("the two-leg ladder can only simulate negative Y")
        v2 = -y
        v1 = 2.0 * yp - v2
        if v1 <= v2:
            raise MatchingError("two-leg matching requires Y' > -Y (V1 > V2 > 0)")
        rho = math.sqrt((v1 / v2) ** (1.0 / 3.0) - 1.0)
        v0 = v1 / rho**6
        delta = v2 - u / 2.0
        return {"v0": v0, "delta": delta, "delta0": 0.0, "omega": x, "rho": rho}
    if case == "clock-00bc":
        if abs(yp + 1.5 * y) > 1e-12 * max(1.0, abs(y)):
            raise MatchingError("the clock variant is constrained to Y' = -3Y/2")
        if y >= 0:
            raise MatchingError("the clock variant can only simulate negative Y")
        raise MatchingError(
            "clock-variant inverse matching is underdetermined (V0, rho trade off); "
            "fix the geometry and use match_forward"
        )
    raise MatchingError(f"unknown matching case {case!r}")
