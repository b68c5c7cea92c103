"""The benchmark's four workloads and the configs generated from a seed.

Each workload is one CLI task on a fixed model.  The seed becomes the
config's ``seed`` (the Lanczos start vector) and, for ``sweep-dense``, an
offset of the drive grid within one grid step.  The program only ever sees
the generated INI text.
"""

from __future__ import annotations

SWEEP_OFFSET_CLASSES = 16   # seeds map onto this many sweep-grid offsets

# Rydberg parameters of the acceptance suite's criterion 05 (two-leg) and
# criterion 06 (three-leg), in units of 2pi MHz and um.
_TWO_LEG_C6 = 858386.0
_TWO_LEG_V0 = 1000.0
_THREE_LEG = """\
[geometry]
kind = three-leg
n_rungs = 4
a_y = 1.0
rho = 0.3333333333333333

[drive]
units = two-pi-mhz
c6 = 40.0
omega = 2.0
delta = 20.0
delta0 = 0.2

[model]
hamiltonian = rydberg
"""

WORKLOADS = {
    "gs-lanczos": (
        "14-atom two-leg ladder (dim 16384) above the dense limit: the time "
        "goes to Lanczos matvecs and full reorthogonalisation"
    ),
    "sweep-dense": (
        "8-point drive sweep of the 7-site effective chain (dim 2187): one full "
        "dense eigh per point, of whose eigenvectors one is used"
    ),
    "evolve-quench": (
        "500 Krylov steps of the 12-atom three-leg ladder with a site profile "
        "per sample and a 2004-row CSV; no eigensolver runs"
    ),
    "spectrum-band": (
        "all 4096 eigenpairs of the 12-atom three-leg ladder and a spin-1 "
        "sector projection per eigenvector"
    ),
}


def sweep_offset(seed: int) -> float:
    """Shift of the sweep-dense drive grid, as a fraction of one grid step."""
    return (seed % SWEEP_OFFSET_CLASSES) / SWEEP_OFFSET_CLASSES


def config_text(workload: str, seed: int) -> str:
    """INI config of ``workload`` for ``seed``."""
    if workload == "gs-lanczos":
        a_y = (_TWO_LEG_C6 / _TWO_LEG_V0) ** (1.0 / 6.0)
        body = f"""\
[geometry]
kind = two-leg
n_rungs = 7
a_y = {a_y!r}
rho = 0.5

[drive]
units = two-pi-mhz
c6 = {_TWO_LEG_C6!r}
omega = 0.2
delta = 1.0

[model]
hamiltonian = rydberg

[task]
task = gs
"""
    elif workload == "sweep-dense":
        step = 0.5
        start = 0.5 + sweep_offset(seed) * step
        body = f"""\
[geometry]
kind = three-leg
n_rungs = 7
a_y = 1.0
rho = 0.3333333333333333

[drive]
units = two-pi-mhz
c6 = 40.0
omega = {start!r}
delta = 20.0
delta0 = 0.2

[model]
hamiltonian = effective
case = 2

[task]
task = sweep
axis = omega
start = {start!r}
stop = {start + 7 * step!r}
steps = 8
"""
    elif workload == "evolve-quench":
        body = _THREE_LEG + """
[task]
task = evolve
initial = spin:0000
dt = 0.002
t_total = 1.0
"""
    elif workload == "spectrum-band":
        body = _THREE_LEG + """
[task]
task = spectrum
k = 81
"""
    else:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return body + f"""
[output]
seed = {int(seed)}
threads = 1
"""
