"""Regenerate the stored reference results.

Usage: python3 perfbench/refs.py [WORKLOAD ...]

Each reference solves the workload's Hamiltonian, as ``cli.build_model``
assembles it, with a method the program does not use:

- gs-lanczos: ``scipy.sparse.linalg.eigsh`` (ARPACK), lowest eigenvalue;
- sweep-dense: ``scipy.linalg.eigvalsh`` on each grid point, for every
  offset class of the seed-dependent grid;
- evolve-quench: ``scipy.sparse.linalg.expm_multiply`` at every 25th sample
  time, reduced to per-rung <L^z> and <(L^z)^2> by bit arithmetic;
- spectrum-band: ``numpy.linalg.eigh`` (LAPACK syevd), with the spin-1 band
  found from one-hot rung patterns by bit arithmetic.

The results are written to perfbench/refs/<workload>.json and committed, so a
later change to the Hamiltonian or the solvers is checked against numbers it
cannot have influenced.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import SWEEP_OFFSET_CLASSES, WORKLOADS, config_text  # noqa: E402

REFS = HERE / "refs"
EVOLVE_SAMPLE_EVERY = 25   # steps of dt between reference samples
N_LEGS = 3                 # three-leg ladders: bit 0 = leg -1, bit 2 = leg +1


def load_config(cli, workload: str, seed: int):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = Path(tmp) / "config.ini"
        path.write_text(config_text(workload, seed))
        return cli.parse_config(path)


def rung_patterns(n_rungs: int) -> np.ndarray:
    """(2^(3 n), n) array of each configuration's per-rung bit pattern."""
    configs = np.arange(1 << (N_LEGS * n_rungs))
    return np.stack([(configs >> (N_LEGS * r)) & 0b111 for r in range(n_rungs)], axis=1)


def ref_gs_lanczos(cli) -> dict:
    cfg = load_config(cli, "gs-lanczos", 0)
    h = cli.build_model(cfg).op.matrix
    vals = spla.eigsh(h, k=1, which="SA", tol=0.0)[0]
    return {"dim": h.shape[0], "E0": float(vals[0])}


def ref_sweep_dense(cli) -> dict:
    grids = {}
    for offset_class in range(SWEEP_OFFSET_CLASSES):
        cfg = load_config(cli, "sweep-dense", offset_class)
        points = []
        for omega in np.linspace(cfg.start, cfg.stop, cfg.steps):
            cfg.omega = float(omega)
            h = cli.build_model(cfg).op.matrix.toarray()
            e0 = sla.eigvalsh(h, subset_by_index=[0, 0])[0]
            points.append({"omega": float(omega), "E0": float(e0)})
        grids[str(offset_class)] = points
    return {"offset_classes": SWEEP_OFFSET_CLASSES, "grids": grids}


def ref_evolve_quench(cli) -> dict:
    cfg = load_config(cli, "evolve-quench", 0)
    h = cli.build_model(cfg).op.matrix
    n_rungs = cfg.n_rungs
    start = sum(0b010 << (N_LEGS * r) for r in range(n_rungs))   # every rung m = 0
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[start] = 1.0
    n_steps = int(round(cfg.t_total / cfg.dt))
    steps = list(range(0, n_steps + 1, EVOLVE_SAMPLE_EVERY))
    states = spla.expm_multiply(
        -1j * h, psi0, start=0.0, stop=steps[-1] * cfg.dt, num=len(steps), endpoint=True
    )
    patterns = rung_patterns(n_rungs)
    up = (patterns >> 2) & 1
    down = patterns & 1
    samples = []
    for step, psi in zip(steps, states):
        w = np.abs(psi) ** 2
        samples.append({
            "step": step,
            "lz": (w @ (up - down)).tolist(),
            "lz2": (w @ (up + down)).tolist(),
        })
    return {"dt": cfg.dt, "n_steps": n_steps, "n_sites": n_rungs, "samples": samples}


def ref_spectrum_band(cli) -> dict:
    cfg = load_config(cli, "spectrum-band", 0)
    h = cli.build_model(cfg).op.matrix.toarray()
    vals, vecs = np.linalg.eigh(h)
    patterns = rung_patterns(cfg.n_rungs)
    in_sector = np.all(np.isin(patterns, (0b001, 0b010, 0b100)), axis=1)
    overlaps = np.sum(np.abs(vecs[in_sector]) ** 2, axis=0)
    order = np.argsort(-overlaps, kind="stable")
    band = np.sort(order[: cfg.k])
    n_rows = max(cfg.k, int(band.max()) + 1)
    return {
        "k": cfg.k,
        "energies": vals[:n_rows].tolist(),
        "band": band.tolist(),
        # overlap gap at the band edge: how clearly the band is defined
        "band_edge_margin": float(overlaps[order[cfg.k - 1]] - overlaps[order[cfg.k]]),
    }


BUILDERS = {
    "gs-lanczos": ref_gs_lanczos,
    "sweep-dense": ref_sweep_dense,
    "evolve-quench": ref_evolve_quench,
    "spectrum-band": ref_spectrum_band,
}


def main(argv: list[str]) -> int:
    from rydladder import cli

    names = argv or list(WORKLOADS)
    unknown = [n for n in names if n not in BUILDERS]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {list(BUILDERS)}", file=sys.stderr)
        return 2
    REFS.mkdir(exist_ok=True)
    for name in names:
        ref = BUILDERS[name](cli)
        (REFS / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {REFS / (name + '.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
