"""Independent references that only the tests compare the library against:
a brute-force fit of the diagonal effective coefficients, the small-drive
Ising reduction of the two-leg density-wave phase and the reduced density
matrix of a spin-1 chain; the rung permutations of a Rydberg basis built
atom by atom; and ``trajectory``, which collects the windows of
``krylov_evolve`` into one array for the tests that read every sample."""

import numpy as np
from scipy.optimize import brentq

from rydladder import EffectiveCoefficients, MatchingError, ResonanceError, StateDictionary, krylov_evolve


def diagonal_expansion_oracle(atoms, c6, delta):
    """Brute-force fit of the diagonal effective coefficients.

    Evaluates the exact interaction + detuning diagonal of the simulator, with
    pair energies c6 / r^6 computed here from the positions, on the 9
    spin-sector configurations of a two-rung block and least-squares fits
    const + d1 m1^2 + d2 m2^2 + R m1 m2 + R' m1^2 m2^2.  Returns
    ``(coeffs, residual)``; the residual vanishes up to rounding when only
    nearest-rung pairs contribute.
    """
    if atoms.n_rungs != 2:
        raise ValueError("the oracle expects a two-rung block")
    dictionary = StateDictionary.for_kind(atoms.spec.kind)
    det = delta + atoms.detuning_offset
    r2 = np.sum((atoms.positions[:, None] - atoms.positions[None]) ** 2, axis=2)
    np.fill_diagonal(r2, np.inf)
    v = c6 / r2**3

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


def _single_rung_energies(atoms, delta, spin_to_pattern):
    """Detuning energy of each spin state of one isolated rung (no inter-rung pairs)."""
    rung = np.flatnonzero(atoms.rung_of == 1)
    det = delta + atoms.detuning_offset
    return {
        m: -sum(det[rung[b]] for b in range(len(rung)) if (pat >> b) & 1)
        for m, pat in spin_to_pattern.items()
    }


def ising_reduction(delta, v1, v2):
    """Degenerate-PT Ising couplings inside the density-wave phase.

    Returns (J_eff, transverse coefficient 1/Delta, residual J_eff - 1/Delta).
    The sign change of the residual in Delta locates the small-drive boundary
    between the ferro- and para-ordered density-wave phases.
    """
    denominators = {"Delta-V1-V2": delta - v1 - v2, "2Delta-4V2": 2 * delta - 4 * v2,
                    "2Delta-4V1": 2 * delta - 4 * v1, "Delta": delta}
    for name, val in denominators.items():
        if val == 0.0:
            raise ResonanceError(f"vanishing denominator: {name} = 0")
    j_eff = (
        1.0 / (delta - v1 - v2)
        - 1.0 / (2 * delta - 4 * v2)
        - 1.0 / (2 * delta - 4 * v1)
    )
    transverse = 1.0 / delta
    return j_eff, transverse, j_eff - transverse


def ising_reduction_critical_delta(v1, v2):
    """Root of the Ising-reduction residual in Delta, by bracketed bisection."""
    lo = 1e-6 * max(v1, v2)
    hi = 2.0 * min(v1, v2) * (1.0 - 1e-9)

    def f(d):
        return ising_reduction(d, v1, v2)[2]

    if f(lo) * f(hi) > 0:
        raise MatchingError(f"no sign change of the residual on ({lo}, {hi})")
    return float(brentq(f, lo, hi, xtol=1e-12))


def reduced_density_matrix(psi, n_sites, cut):
    """Reduced density matrix of sites 1..cut of a spin-1 chain state."""
    if not 1 <= cut < n_sites:
        raise ValueError(f"cut must lie strictly inside the chain, got {cut}")
    a = np.asarray(psi).reshape(3**cut, 3 ** (n_sites - cut))
    return a @ a.conj().T


def trajectory(h, psi, t_total, dt):
    """All samples of ``krylov_evolve(h, psi, t_total, dt)`` at once:
    ``(times, states, report)``, the report that of the last window."""
    times, states, reports = zip(*krylov_evolve(h, psi, t_total, dt))
    return np.concatenate(times), np.concatenate(states), reports[-1]


def rung_permutations_by_atoms(basis, n_legs):
    """The index maps of ``rung_permutations``, built atom by atom: each image
    configuration is assembled bit by bit from ``basis.states`` and looked up,
    -1 marking an image outside the basis."""
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
