"""Atom-array geometries for Rydberg ladders and their van der Waals couplings.

All lengths are in micrometers.  Energies and frequencies are stored in
rad/us internally; the command-line layer converts from the conventional
"units of 2pi MHz" on ingestion.  The functions here are unit-agnostic:
they return couplings in whatever unit ``c6 / length**6`` comes out in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi

# Default C6 coefficient for 87Rb, in (2pi MHz) um^6 before the 2pi factor.
DEFAULT_C6 = 858386.0 * TWO_PI


class LadderKind(str, Enum):
    CHAIN = "chain"
    TWO_LEG = "two-leg"
    THREE_LEG = "three-leg"
    PRISM = "prism"
    IN_PLANE_TRIANGLE = "in-plane-triangle"


# Spin label of each leg of a rung, bottom to top; its length is the rung size.
LEG_SPINS = {
    LadderKind.CHAIN: (0,),
    LadderKind.TWO_LEG: (-1, +1),
    LadderKind.THREE_LEG: (-1, 0, +1),
    LadderKind.PRISM: (-1, 0, +1),
    LadderKind.IN_PLANE_TRIANGLE: (-1, 0, +1),
}


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class LadderSpec:
    """Geometry parameters of a ladder of rungs along x.

    ``shift`` is the leftward in-plane displacement of the middle leg and is
    only meaningful for the in-plane-triangle kind; ``None`` selects the
    equilateral triangle, shift = sqrt(3)/2 * a_y.
    """

    kind: LadderKind
    n_rungs: int
    a_x: float
    a_y: float
    shift: float | None = None
    prism_height: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", LadderKind(self.kind))
        if self.n_rungs < 1:
            raise GeometryError(f"n_rungs must be >= 1, got {self.n_rungs}")
        if self.a_x <= 0 or self.a_y <= 0:
            raise GeometryError(
                f"lattice spacings must be positive, got a_x={self.a_x}, a_y={self.a_y}"
            )
        if self.shift is not None and self.kind is not LadderKind.IN_PLANE_TRIANGLE:
            raise GeometryError(f"shift is only valid for in-plane-triangle, not {self.kind.value}")
        if self.prism_height is not None and self.kind is not LadderKind.PRISM:
            raise GeometryError(f"prism_height is only valid for prism, not {self.kind.value}")

    @property
    def n_legs(self) -> int:
        return len(LEG_SPINS[self.kind])

    @property
    def rho(self) -> float:
        return self.a_y / self.a_x


@dataclass(frozen=True)
class AtomArray:
    """Concrete atom positions with rung/leg bookkeeping.

    Atom index ``a`` belongs to rung ``rung_of[a]`` (1-based) and leg
    ``leg_of[a]``.  Legs carry the spin labels they encode: for the two-leg
    ladder legs are -1 (bottom) and +1 (top); for three-atom rungs the middle
    leg is 0.  ``detuning_offset`` holds the extra detuning Delta_0 applied
    to middle-leg atoms (zero elsewhere).
    """

    spec: LadderSpec
    positions: np.ndarray          # (n_atoms, 3)
    rung_of: np.ndarray            # (n_atoms,) int, 1..n_rungs
    leg_of: np.ndarray             # (n_atoms,) int spin label of the leg
    detuning_offset: np.ndarray    # (n_atoms,)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @property
    def n_rungs(self) -> int:
        return self.spec.n_rungs

    @property
    def n_legs(self) -> int:
        return self.spec.n_legs


# Per-rung local coordinates (x, y, z) for each kind, ordered bottom -> top
# as the legs of LEG_SPINS, so that atom index = (rung - 1) * n_legs + leg.
def _rung_template(spec: LadderSpec) -> list[tuple[float, float, float]]:
    ay = spec.a_y
    if spec.kind is LadderKind.CHAIN:
        return [(0.0, 0.0, 0.0)]
    if spec.kind is LadderKind.TWO_LEG:
        return [(0.0, 0.0, 0.0), (0.0, ay, 0.0)]
    if spec.kind is LadderKind.THREE_LEG:
        return [(0.0, 0.0, 0.0), (0.0, ay, 0.0), (0.0, 2 * ay, 0.0)]
    if spec.kind is LadderKind.PRISM:
        # Equilateral triangle of side a_y; the middle atom sits out of plane.
        h = spec.prism_height if spec.prism_height is not None else math.sqrt(3.0) / 2.0 * ay
        return [(0.0, 0.0, 0.0), (0.0, ay / 2.0, h), (0.0, ay, 0.0)]
    if spec.kind is LadderKind.IN_PLANE_TRIANGLE:
        # Same triangle flattened into the plane; the middle atom is shifted
        # to the left (negative x) by `shift`.
        s = spec.shift if spec.shift is not None else math.sqrt(3.0) / 2.0 * ay
        return [(0.0, 0.0, 0.0), (-s, ay / 2.0, 0.0), (0.0, ay, 0.0)]
    raise GeometryError(f"unknown kind {spec.kind}")


def build_ladder(spec: LadderSpec, delta0: float = 0.0) -> AtomArray:
    """Place atoms for the given ladder.  Rung i sits at x = (i-1) * a_x.

    ``delta0`` is the middle-leg detuning offset applied uniformly.
    """
    template = _rung_template(spec)
    positions = np.array([(i * spec.a_x + dx, y, z) for i in range(spec.n_rungs) for dx, y, z in template],
                         dtype=float)
    rung_of = np.repeat(np.arange(1, spec.n_rungs + 1), len(template))
    leg_of = np.array(LEG_SPINS[spec.kind] * spec.n_rungs)
    if len(np.unique(positions, axis=0)) != len(positions):
        raise GeometryError("atom positions are not distinct")
    offsets = np.where((leg_of == 0) & (spec.n_legs == 3), delta0, 0.0)
    return AtomArray(spec, positions, rung_of, leg_of, offsets)


# The two atoms of each named coupling, indexed over two adjacent rungs
# (atom a of the second rung is n_legs + a).  The in-plane middle atom leans
# toward the previous rung, so its coupling to the outer atoms behind it (V2)
# is stronger than to those ahead of it (V4).
_NAMED_PAIRS = {
    LadderKind.CHAIN: {"V1": (0, 1)},
    LadderKind.TWO_LEG: {"V0": (0, 1), "V1": (0, 2), "V2": (0, 3)},
    LadderKind.THREE_LEG: {"V0": (0, 1), "V0p": (0, 2), "V1": (0, 3), "V2": (0, 4), "V3": (0, 5)},
    LadderKind.PRISM: {"V0": (0, 2), "V0p": (0, 1), "V1": (0, 3), "V2": (1, 3), "V3": (0, 5)},
    LadderKind.IN_PLANE_TRIANGLE: {"V0": (0, 2), "V0p": (0, 1), "V1": (0, 3), "V2": (0, 4),
                                   "V3": (0, 5), "V4": (1, 3)},
}


def ladder_couplings(spec: LadderSpec, c6: float) -> dict:
    """Named couplings (V0, V0p, V1, ...) of the ladder figures for ``spec``:
    the ``pairwise_couplings`` of the named atoms of two template rungs a_x apart.

    This table is the one source of the closed-form ladder couplings; the
    effective coefficients read it in units a_y = 1, a_x = 1/rho, c6 = V0.
    """
    template = np.array(_rung_template(spec))
    table = pairwise_couplings(np.vstack([template, template + [spec.a_x, 0.0, 0.0]]), c6)
    return {name: float(table[a, b]) for name, (a, b) in _NAMED_PAIRS[spec.kind].items()}


def pairwise_couplings(positions: np.ndarray, c6: float, range_cutoff: float | None = None) -> np.ndarray:
    """Symmetric matrix of the pair energies c6 / r^6 of the (n, 3) ``positions``,
    zero on the diagonal and beyond ``range_cutoff`` when it is set; the named
    couplings of the ladder figures are read off it by ``ladder_couplings``."""
    if range_cutoff is not None and range_cutoff <= 0:
        raise GeometryError(f"range_cutoff must be positive, got {range_cutoff}")
    diff = positions[:, None, :] - positions[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    off = ~np.eye(len(positions), dtype=bool)
    if np.any(r2[off] == 0.0):
        raise GeometryError("coincident atoms have infinite coupling")
    v = np.zeros_like(r2)
    v[off] = c6 / r2[off] ** 3
    if range_cutoff is not None:
        v[np.sqrt(r2) > range_cutoff] = 0.0
    return v


def blockade_radius(c6: float, omega: float) -> float:
    """Distance at which the pair energy equals the Rabi frequency."""
    if omega <= 0 or c6 <= 0:
        raise GeometryError(f"c6 and omega must be positive, got c6={c6}, omega={omega}")
    return (c6 / omega) ** (1.0 / 6.0)
