"""One measured run of one workload, in a fresh process.

Usage: python3 perfbench/child.py JOB.json

The job names the config file, the output directory, the result file and
the mode.  Untraced, the child times one ``cli.run``, then ``parse_config``
plus ``build_model`` (set-up) repeatedly.  In set-up mode it only times the
set-up, after one untimed set-up.  Traced, it installs the tracer and times
one ``parse_config`` and one ``cli.run``.
The result JSON also carries the peak RSS of this process and the
provenance of the numeric stack.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

SETUP_MIN_REPS = 10
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 200


def blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy load, by library."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(lib).name] = fn()
                    break
    return found


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def time_setup(cli, config: str) -> list[float]:
    """Repeated parse_config + build_model: at least SETUP_MIN_REPS and SETUP_MIN_S."""
    times = []
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S):
        t0 = time.perf_counter()
        cli.build_model(cli.parse_config(config))
        times.append(time.perf_counter() - t0)
    return times


def untraced(cli, job: dict) -> dict:
    cfg = cli.parse_config(job["config"])
    t0 = time.perf_counter()
    exit_code = cli.run(cfg, job["outdir"])
    wall = time.perf_counter() - t0
    # Set-up is timed after the run, once first-call costs (lazy imports
    # inside the package and scipy) are paid, like import time, by the run.
    setup = time_setup(cli, job["config"])
    return {"setup_s": statistics.median(setup), "setup_reps": len(setup),
            "wall_s": wall, "exit_code": exit_code}


def setup_only(cli, job: dict) -> dict:
    # One untimed set-up pays the first-call costs that a run would have paid.
    cli.build_model(cli.parse_config(job["config"]))
    setup = time_setup(cli, job["config"])
    return {"setup_s": statistics.median(setup), "setup_reps": len(setup)}


def traced(job: dict) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    cli = tracer.install()
    cfg = cli.parse_config(job["config"])
    t0 = time.perf_counter()
    exit_code = cli.run(cfg, job["outdir"])
    wall = time.perf_counter() - t0
    layers = tracer.layer_metrics()
    Path(job["spans"]).write_text(json.dumps(tracer.dump()))
    return {"wall_s": wall, "exit_code": exit_code, "layers": layers}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    t_import = time.perf_counter()
    from rydladder import cli

    result = {"import_s": time.perf_counter() - t_import}
    try:
        if job["mode"] == "traced":
            result.update(traced(job))
        elif job["mode"] == "setup":
            result.update(setup_only(cli, job))
        else:
            result.update(untraced(cli, job))
    except Exception:   # a failed run is a result: the parent counts it
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = provenance()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
