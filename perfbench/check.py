"""Check a run's CSV outputs against the stored references.

Tolerances are the acceptance suite's: energies to 1e-9 relative (criterion
08, Lanczos against dense), profiles to 1e-8 absolute (criterion 08, the
driven two-level closed form), band membership exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from workloads import SWEEP_OFFSET_CLASSES

REFS = Path(__file__).resolve().parent / "refs"
ENERGY_RTOL = 1e-9
PROFILE_ATOL = 1e-8


class MissingReference(RuntimeError):
    pass


def load_reference(workload: str, seed: int) -> dict:
    """The stored reference for ``workload``; sweep grids are keyed by seed class."""
    path = REFS / f"{workload}.json"
    if not path.exists():
        raise MissingReference(f"{path} is missing; run python3 perfbench/refs.py {workload}")
    ref = json.loads(path.read_text())
    if workload == "sweep-dense":
        if ref["offset_classes"] != SWEEP_OFFSET_CLASSES:
            raise MissingReference(f"{path} has another seed grid; regenerate it")
        return {"points": ref["grids"][str(seed % SWEEP_OFFSET_CLASSES)]}
    return ref


def attempts(workload: str, ref: dict) -> int:
    """Operations one run attempts: sweep points for a sweep, else the run."""
    return len(ref["points"]) if workload == "sweep-dense" else 1


def _energy_ok(value: float, expected: float) -> bool:
    return abs(value - expected) <= ENERGY_RTOL * max(1.0, abs(expected))


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def check_outputs(workload: str, outdir: Path, ref: dict) -> tuple[int, list[str]]:
    """Number of attempts that miss the reference, with one note per miss."""
    try:
        return CHECKS[workload](outdir, ref)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return attempts(workload, ref), [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_gs(outdir: Path, ref: dict):
    e0 = float(_rows(outdir / "gs.csv")[0]["E0"])
    if _energy_ok(e0, ref["E0"]):
        return 0, []
    return 1, [f"E0 {e0!r} vs reference {ref['E0']!r}"]


def _check_sweep(outdir: Path, ref: dict):
    rows = _rows(outdir / "scan.csv")
    points = ref["points"]
    notes = []
    if len(rows) != len(points):
        notes.append(f"{len(rows)} sweep rows for {len(points)} points")
    failed = max(0, len(points) - len(rows))
    for row, point in zip(rows, points):
        omega = float(row["omega"])
        if row["error"]:
            notes.append(f"omega {omega!r}: {row['error']}")
        elif abs(omega - point["omega"]) > 1e-12 * abs(point["omega"]):
            notes.append(f"omega {omega!r} vs grid {point['omega']!r}")
        elif not _energy_ok(float(row["E0"]), point["E0"]):
            notes.append(f"omega {omega!r}: E0 {row['E0']} vs reference {point['E0']!r}")
        else:
            continue
        failed += 1
    return failed, notes


def _check_evolve(outdir: Path, ref: dict):
    rows = _rows(outdir / "timeseries.csv")
    n_sites = ref["n_sites"]
    if len(rows) != (ref["n_steps"] + 1) * n_sites:
        return 1, [f"{len(rows)} time-series rows, expected {(ref['n_steps'] + 1) * n_sites}"]
    notes = []
    for sample in ref["samples"]:
        step = sample["step"]
        for s in range(n_sites):
            row = rows[step * n_sites + s]
            if abs(float(row["t"]) - step * ref["dt"]) > 1e-12 or int(row["site"]) != s + 1:
                notes.append(f"row {step * n_sites + s} is t={row['t']} site={row['site']}")
            for key in ("lz", "lz2"):
                if abs(float(row[key]) - sample[key][s]) > PROFILE_ATOL:
                    notes.append(f"step {step} site {s + 1} {key} {row[key]} vs {sample[key][s]!r}")
    return int(bool(notes)), notes


def _check_spectrum(outdir: Path, ref: dict):
    rows = _rows(outdir / "spectrum.csv")
    energies = ref["energies"]
    if len(rows) != len(energies):
        return 1, [f"{len(rows)} spectrum rows, expected {len(energies)}"]
    notes = [
        f"level {j}: energy {row['energy']} vs {energies[j]!r}"
        for j, row in enumerate(rows)
        if not _energy_ok(float(row["energy"]), energies[j])
    ]
    band = [int(row["level"]) for row in rows if row["in_band"] == "1"]
    if band != ref["band"]:
        notes.append(f"band {band} vs reference {ref['band']}")
    return int(bool(notes)), notes


CHECKS = {
    "gs-lanczos": _check_gs,
    "sweep-dense": _check_sweep,
    "evolve-quench": _check_evolve,
    "spectrum-band": _check_spectrum,
}
