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
from functools import cached_property

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
    """The product over rungs of the bit patterns ``constraint`` admits (of all
    2^n_atoms configurations without one), rung 1 the least significant digit of
    the mixed-radix index, so that the configurations ascend with it."""

    n_atoms: int
    constraint: RungConstraint | None = None

    def __post_init__(self):
        if self.n_atoms > MAX_ATOMS:
            raise BasisError(f"{self.n_atoms} atoms exceeds the {MAX_ATOMS}-atom enumeration limit")
        if self.constraint is not None and self.n_atoms % self.constraint.n_legs != 0:
            raise BasisError("n_atoms is not a multiple of the rung size")

    @property
    def dim(self) -> int:
        rungs = self.constraint or RungConstraint(1, 1)   # no cap: single atoms, either state
        return len(rungs.patterns()) ** (self.n_atoms // rungs.n_legs)

    @cached_property
    def states(self) -> np.ndarray:
        """The configuration integers, ascending, built on first read."""
        if self.constraint is None:
            return np.arange(1 << self.n_atoms, dtype=np.int64)
        nl, states = self.constraint.n_legs, np.zeros(1, dtype=np.int64)
        for r in reversed(range(self.n_atoms // nl)):   # rung 1 last: the least significant digit
            states = (states[:, None] | (self.constraint.patterns() << (r * nl))[None, :]).ravel()
        return states

    def index_of(self, config: int | np.ndarray) -> np.ndarray:
        """Position of configuration(s) in the enumeration; -1 if absent."""
        cfg = np.atleast_1d(config)
        idx = np.minimum(np.searchsorted(self.states, cfg), len(self.states) - 1)
        out = np.where(self.states[idx] == cfg, idx, -1)
        return out if np.ndim(config) else int(out[0])


def enumerate_rydberg(n_atoms: int, constraint: RungConstraint | None = None) -> RydbergBasis:
    return RydbergBasis(n_atoms, constraint)


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


def rung_symmetries(basis: RydbergBasis, n_legs: int) -> dict[str, tuple[np.ndarray, bool]]:
    """The two rung-level bit permutations of a basis as maps of the index's digits.

    Each is ``(local, reverse)``: every digit (the position of a rung's pattern)
    p becomes ``local[p]``, and ``reverse`` reverses the digit order.  ``"leg"``
    reverses each rung's bit pattern (leg reflection), which keeps a popcount
    cap, so every image is in the basis; ``"mirror"`` reverses the rung order.
    Both are involutions, and they commute.
    """
    rungs = basis.constraint or RungConstraint(n_legs, n_legs)   # no cap: every pattern
    if basis.n_atoms % n_legs != 0 or rungs.n_legs != n_legs:
        raise BasisError(f"the basis's rungs are not {n_legs} atoms")
    patterns = rungs.patterns()
    reverse = sum(((patterns >> b) & 1) << (n_legs - 1 - b) for b in range(n_legs))
    return {"leg": (np.searchsorted(patterns, reverse), False), "mirror": (np.arange(len(patterns)), True)}


def digit_images(local: np.ndarray, reverse: bool, n_digits: int) -> np.ndarray:
    """Index of the image of every index of base-D digits, D = len(local), under
    a digit map of ``rung_symmetries``: built most significant digit first, as
    the basis's ``states`` are, so that no (dim, n_digits) table is held."""
    image, d = np.zeros(1, dtype=np.int64), len(local)
    for k in range(n_digits):   # digit n_digits - 1 - k moves to digit k under reverse
        image = (image[:, None] + local * d ** (k if reverse else n_digits - 1 - k)).ravel()
    return image


def rung_permutations(basis: RydbergBasis, n_legs: int) -> dict[str, np.ndarray]:
    """Index maps of the two rung-level bit permutations on a basis: ``perm[i]``
    is the index of the image of state i under each of ``rung_symmetries``.
    Digit arithmetic alone: no configuration is read."""
    n_rungs = basis.n_atoms // n_legs
    return {name: digit_images(local, reverse, n_rungs)
            for name, (local, reverse) in rung_symmetries(basis, n_legs).items()}
