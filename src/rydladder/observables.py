"""Local spin measurements, order parameters, entropies, phase labels."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import BasisError, Spin1Basis
from .geometry import AtomArray

PHASE_THRESHOLD = 0.1   # absolute order parameter above which an order counts as present


class Phase(str, Enum):
    FM = "FM"
    AFM = "AFM"
    FRDW = "FRDW"
    PRDW = "PRDW"
    DISORDER = "Disorder"
    UNCLASSIFIED = "unclassified"


@dataclass
class SiteProfile:
    lz: np.ndarray    # per-site <L^z_i>
    lz2: np.ndarray   # per-site <(L^z_i)^2>


@dataclass
class OrderParameters:
    m_fm: float
    m_afm: float
    m_rdw: float
    chi_fm: float
    chi_afm: float
    chi_rdw: float
    # absolute-value variants, nonzero in symmetric finite-size ground states
    m_fm_abs: float
    m_afm_abs: float
    m_rdw_abs: float


def site_tables(basis, atoms: AtomArray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The (dim, n_sites) tables of L^z_i and (L^z_i)^2 over the states of ``basis``.

    On a spin-1 basis they are m and m^2.  On a Rydberg basis they are read off
    each state's bits: L^z_i = n_{i,+1} - n_{i,-1} and (L^z_i)^2 = n_{i,+1} + n_{i,-1}
    over the outer legs of rung i, so a rung without outer legs has zero columns.
    """
    if isinstance(basis, Spin1Basis):
        m = basis.digits().astype(float)
        return m, m * m
    if atoms is None:
        raise BasisError("Rydberg-state profiles need the atom array")
    if basis.n_atoms != atoms.n_atoms:
        raise BasisError("basis does not match the atom array")
    tables = np.zeros((2, basis.dim, atoms.n_rungs))
    for a in np.flatnonzero(atoms.leg_of):   # the outer legs, +1 and -1
        tables[:, :, atoms.rung_of[a] - 1] += np.outer([atoms.leg_of[a], 1], (basis.states >> a) & 1)
    return tables[0], tables[1]


def site_profiles(states, tables) -> list[SiteProfile]:
    """Per-site <L^z_i> and <(L^z_i)^2> of each state of ``states``: |psi|^2 @ the
    ``site_tables`` pair ``tables``.  ``states`` may be a generator, read one
    state at a time; on a Rydberg basis the profile is that of the full state."""
    lz, lz2 = tables
    return [SiteProfile(lz=w @ lz, lz2=w @ lz2) for w in (np.abs(psi) ** 2 for psi in states)]


def order_parameters(psi: np.ndarray, basis: Spin1Basis) -> OrderParameters:
    """FM / AFM / RDW order parameters and their fluctuation susceptibilities.

    All three operators are diagonal in the L^z basis, so moments are plain
    weighted sums.  chi_O = L (<O^2> - <O>^2); the staggering sign is
    (-1)^i with i = 1..L.
    """
    L = basis.n_sites
    w = np.abs(psi) ** 2
    sums = np.zeros((3, basis.dim))   # the fm, afm and rdw site sums, digit by digit: no (dim, L) table
    idx = np.arange(basis.dim)
    for i in range(L, 0, -1):   # site L is the least significant digit
        m = idx % 3 - 1
        idx //= 3
        sums[0] += m
        sums[1] += (-1) ** i * m
        sums[2] += (-1) ** i * m * m
    sums /= L
    diag = dict(zip(("fm", "afm", "rdw"), sums))
    means = {k: float(w @ v) for k, v in diag.items()}
    seconds = {k: float(w @ (v * v)) for k, v in diag.items()}
    abs_means = {k: float(w @ np.abs(v)) for k, v in diag.items()}
    chi = {k: L * (seconds[k] - means[k] ** 2) for k in diag}
    return OrderParameters(
        m_fm=means["fm"],
        m_afm=means["afm"],
        m_rdw=means["rdw"],
        chi_fm=chi["fm"],
        chi_afm=chi["afm"],
        chi_rdw=chi["rdw"],
        m_fm_abs=abs_means["fm"],
        m_afm_abs=abs_means["afm"],
        m_rdw_abs=abs_means["rdw"],
    )


def renyi_entropy(psi: np.ndarray, n_sites: int, cut: int, order: int = 2) -> float:
    """Entanglement entropy of sites 1..cut, in nats.

    order 1 is the von Neumann entropy, order 2 the second Renyi entropy.
    """
    a = np.asarray(psi).reshape(3**cut, 3 ** (n_sites - cut))
    s = np.linalg.svd(a, compute_uv=False)
    p = s * s
    p = p[p > 1e-15]
    if order == 1:
        return float(-np.sum(p * np.log(p)))
    if order == 2:
        return float(-np.log(np.sum(p * p)))
    raise ValueError("order must be 1 or 2")


def classify_phase(op: OrderParameters) -> Phase:
    """Pattern of the absolute order parameters above ``PHASE_THRESHOLD``.

    The absolute-value variants are used so that symmetric finite-size
    ground states classify correctly.
    """
    fm = op.m_fm_abs > PHASE_THRESHOLD
    afm = op.m_afm_abs > PHASE_THRESHOLD
    rdw = op.m_rdw_abs > PHASE_THRESHOLD
    pattern = (fm, afm, rdw)
    table = {
        (True, False, False): Phase.FM,
        (False, True, False): Phase.AFM,
        (True, True, True): Phase.FRDW,
        (False, False, True): Phase.PRDW,
        (False, False, False): Phase.DISORDER,
    }
    return table.get(pattern, Phase.UNCLASSIFIED)


def susceptibility_peak(xs, chis):
    """Quadratic interpolation of the peak through the three points around
    the sampled maximum.  Returns (x_peak, chi_peak, interior_flag)."""
    xs = np.asarray(xs, dtype=float)
    chis = np.asarray(chis, dtype=float)
    if len(xs) < 3:
        raise ValueError("need at least three scan points")
    k = int(np.argmax(chis))
    if k == 0 or k == len(xs) - 1:
        return float(xs[k]), float(chis[k]), False
    x0, x1, x2 = xs[k - 1 : k + 2]
    y0, y1, y2 = chis[k - 1 : k + 2]
    coef = np.polyfit([x0, x1, x2], [y0, y1, y2], 2)
    if coef[0] >= 0:
        return float(x1), float(y1), False
    xp = -coef[1] / (2 * coef[0])
    yp = np.polyval(coef, xp)
    return float(xp), float(yp), True
