"""Computational bases for Rydberg arrays and spin-1 chains.

Rydberg configurations are stored as integers with bit ``a`` set when atom
``a`` is in the excited state.  Atoms are laid out rung-major,
``a = (rung - 1) * n_legs + local_leg`` with legs ordered bottom to top, so
each rung occupies a contiguous bit group.  Spin-1 configurations are base-3
integers with site 1 as the most significant digit and digit values
``m + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import LEG_SPINS, LadderKind

MAX_ATOMS = 26


class BasisError(ValueError):
    pass


@dataclass(frozen=True)
class RungConstraint:
    """Cap on the number of excited atoms in each rung."""

    n_legs: int
    max_excited: int

    def patterns(self) -> np.ndarray:
        """The admissible rung bit patterns, ascending."""
        return np.array([p for p in range(1 << self.n_legs) if p.bit_count() <= self.max_excited],
                        dtype=np.int64)


@dataclass(frozen=True)
class RydbergBasis:
    n_atoms: int
    states: np.ndarray          # sorted configuration integers
    constraint: RungConstraint | None = None

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, config: int | np.ndarray) -> np.ndarray:
        """Position of configuration(s) in the enumeration; -1 if absent."""
        cfg = np.atleast_1d(config)
        if self.dim == 1 << self.n_atoms:   # complete basis: each configuration is its own index
            out = np.where((cfg >= 0) & (cfg < self.dim), cfg, -1)
        else:
            idx = np.searchsorted(self.states, cfg)
            ok = (idx < self.dim) & (self.states[np.minimum(idx, self.dim - 1)] == cfg)
            out = np.where(ok, idx, -1)
        return out if np.ndim(config) else int(out[0])


def enumerate_rydberg(n_atoms: int, constraint: RungConstraint | None = None) -> RydbergBasis:
    if n_atoms > MAX_ATOMS:
        raise BasisError(f"{n_atoms} atoms exceeds the {MAX_ATOMS}-atom enumeration limit")
    if constraint is None:
        states = np.arange(1 << n_atoms, dtype=np.int64)
        return RydbergBasis(n_atoms, states)
    nl = constraint.n_legs
    if n_atoms % nl != 0:
        raise BasisError("n_atoms is not a multiple of the rung size")
    n_rungs = n_atoms // nl
    # Admissible per-rung bit patterns, then a mixed-radix product over rungs.
    patterns = constraint.patterns()
    states = np.zeros(1, dtype=np.int64)
    for r in range(n_rungs):
        shifted = patterns << (r * nl)
        states = (states[:, None] | shifted[None, :]).ravel()
    states.sort()
    return RydbergBasis(n_atoms, states, constraint)


@dataclass(frozen=True)
class Spin1Basis:
    n_sites: int

    @property
    def dim(self) -> int:
        return 3**self.n_sites

    def digits(self) -> np.ndarray:
        """(dim, n_sites) array of m values in {-1, 0, +1}, site 1 first."""
        idx = np.arange(self.dim)
        out = np.empty((self.dim, self.n_sites), dtype=np.int8)
        for s in range(self.n_sites - 1, -1, -1):
            out[:, s] = idx % 3
            idx = idx // 3
        return out - 1

    def index_of(self, ms) -> int:
        idx = 0
        for m in ms:
            if m not in (-1, 0, 1):
                raise BasisError(f"invalid spin projection {m}")
            idx = idx * 3 + int(m) + 1   # a Python int: numpy's int8 digits would wrap
        return idx


@dataclass(frozen=True)
class StateDictionary:
    """Map between per-rung Rydberg patterns (bottom leg = bit 0) and spin-1 labels."""

    n_legs: int
    pattern_to_spin: dict

    @classmethod
    def for_kind(cls, kind: LadderKind | str) -> "StateDictionary":
        """Spin m excites the legs labelled m in ``LEG_SPINS``; on the two-leg
        rung, whose legs carry no 0, m = 0 leaves the rung empty."""
        kind = LadderKind(kind)
        legs = LEG_SPINS[kind]
        patterns = {sum(1 << i for i, leg in enumerate(legs) if leg == m): m for m in (-1, 0, 1)}
        if len(patterns) != 3:
            raise BasisError(f"no spin-1 dictionary for geometry kind {kind}")
        return cls(len(legs), patterns)

    @property
    def spin_to_pattern(self) -> dict:
        """Inverse map: spin label -> per-rung bit pattern."""
        return {m: p for p, m in self.pattern_to_spin.items()}

    def configs(self, spins) -> np.ndarray:
        """Rydberg configuration integers of rows of spin labels, site 1 first."""
        spins = np.asarray(spins, dtype=np.int64)
        pattern = np.array([self.spin_to_pattern[m] for m in (-1, 0, 1)], dtype=np.int64)
        return np.sum(pattern[spins + 1] << (self.n_legs * np.arange(spins.shape[-1])), axis=-1)


def project_to_spin1(basis: RydbergBasis, dictionary: StateDictionary):
    """Locate the spin-1 sector inside a Rydberg basis.

    Returns ``(sector_indices, spins)`` where ``sector_indices[k]`` is the
    Rydberg-basis index of the k-th Spin1Basis state and ``spins`` the
    corresponding (3^n_rungs, n_rungs) array of m values.
    """
    nl = dictionary.n_legs
    if basis.n_atoms % nl != 0:
        raise BasisError("basis does not match the dictionary rung size")
    spins = Spin1Basis(basis.n_atoms // nl).digits()
    sector_indices = basis.index_of(dictionary.configs(spins))
    if np.any(sector_indices < 0):
        raise BasisError("spin-1 sector states missing from the Rydberg basis")
    return sector_indices, spins


def rung_permutations(basis: RydbergBasis, n_legs: int) -> dict[str, np.ndarray]:
    """Index maps of the two rung-level bit permutations on a basis.

    ``"leg"`` reverses each rung's bit pattern (leg reflection) and
    ``"mirror"`` reverses the rung order.  ``perm[i]`` is the index of the
    image of state ``i``, or -1 when the image is not in the basis.
    """
    if basis.n_atoms % n_legs != 0:
        raise BasisError("basis does not match the rung size")
    rung, leg = np.divmod(np.arange(basis.n_atoms), n_legs)
    targets = {
        "leg": rung * n_legs + (n_legs - 1 - leg),
        "mirror": (basis.n_atoms // n_legs - 1 - rung) * n_legs + leg,
    }
    out = {}
    for name, target in targets.items():
        images = np.zeros_like(basis.states)
        for a, b in enumerate(target):
            images |= ((basis.states >> a) & 1) << b
        out[name] = basis.index_of(images)
    return out

