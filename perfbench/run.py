"""rydladder benchmark: CLI workloads end to end, and per layer when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload gs-lanczos --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The load is a closed loop with one client: each measured run is a fresh
child process (perfbench/child.py), started after the previous one ended,
so its peak RSS is its own.  Runs repeat until the next one would end after
``--seconds``; at least one untraced run (``--trace 0``), or two traced runs
around one untraced run (``--trace 1``) are made.  Untraced, set-up-only
children then bring the set-up samples to SETUP_SAMPLES.  Every run's outputs are
checked against perfbench/refs.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics traced.
A full record with provenance goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import MissingReference, attempts, check_outputs, load_reference  # noqa: E402
from tracer import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

OUT = HERE / "out"
RUN_LIMIT_S = 170.0        # the whole invocation must end within 180 s
# Set-up samples per untraced invocation, one per process: millisecond
# set-ups vary more between processes than within one.
SETUP_SAMPLES = 5
ACCOUNTING_TOLERANCE = 0.05
# Layer self times that, with cli.task_self_s, partition a traced cli.run.
SELF_TIMES = (
    "geometry.s", "basis.s", "hamiltonians.assemble_s", "effective.coeffs_s",
    "solvers.s", "observables.s", "cli.derived_quantities_s", "cli.task_self_s",
)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str | None:
    # Only this checkout's own repository: git would otherwise search the
    # directories above it.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def spawn(work: Path, index: int, mode: str, deadline: float) -> tuple[dict, Path]:
    """One child process in ``mode`` (untraced, traced or setup); returns its
    result record and output directory."""
    outdir = work / f"run{index}"
    job = {
        "config": str(work / "config.ini"),
        "outdir": str(outdir),
        "result": str(work / f"result{index}.json"),
        "spans": str(work / "spans.json"),
        "mode": mode,
    }
    job_path = work / f"job{index}.json"
    job_path.write_text(json.dumps(job))
    try:
        done = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "run exceeded the time limit and was killed"}, outdir
    result_path = Path(job["result"])
    if done.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {done.returncode}: {done.stderr[-2000:]}"}, outdir
    return json.loads(result_path.read_text()), outdir


def output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = load_reference(workload, seed)
    work = OUT / "work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.ini").write_text(config_text(workload, seed))

    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    runs = {"untraced": [], "traced": [], "setup": []}
    attempted = failed = 0
    notes: list[str] = []
    provenance = None
    for index in itertools.count():
        # traced: T U T U T ...; untraced: U U U ...
        traced = trace and index % 2 == 0
        t0 = time.monotonic()
        result, outdir = spawn(work, index, "traced" if traced else "untraced", hard_deadline)
        attempted += attempts(workload, ref)
        if "error" in result or result.get("exit_code") != 0:
            failed += attempts(workload, ref)
            notes.append(f"run {index}: {result.get('error') or 'exit code ' + str(result.get('exit_code'))}")
        else:
            missed, why = check_outputs(workload, outdir, ref)
            failed += missed
            notes += [f"run {index}: {w}" for w in why]
            if traced:
                result["layers"]["cli.output_bytes"] = output_bytes(outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        provenance = result.pop("provenance", None) or provenance
        runs["traced" if traced else "untraced"].append(result)
        now = time.monotonic()
        enough = len(runs["untraced"]) >= 1 and (not trace or len(runs["traced"]) >= 2)
        if failed or now >= hard_deadline or (enough and now + (now - t0) > start + seconds):
            break

    while not (trace or failed) and len(runs["untraced"]) + len(runs["setup"]) < SETUP_SAMPLES:
        index += 1
        result, _ = spawn(work, index, "setup", hard_deadline)
        if "error" in result:
            notes.append(f"set-up run {index}: {result['error']}")
            break
        result.pop("provenance", None)
        runs["setup"].append(result)

    ok = {k: [r for r in v if "error" not in r] for k, v in runs.items()}
    metrics = {}
    if ok["untraced"] and (ok["traced"] or not trace):
        metrics = traced_metrics(ok, notes) if trace else untraced_metrics(ok)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "metrics": metrics,
        "runs": runs,
        "provenance": {**(provenance or {}), "git_commit": git_commit(), "seed": seed},
    }


def untraced_metrics(runs: dict) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs["untraced"]),
        "setup_s": statistics.median(r["setup_s"] for r in runs["untraced"] + runs["setup"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs["untraced"]),
    }


def traced_metrics(runs: dict, notes: list[str]) -> dict:
    layers = [r["layers"] for r in runs["traced"]]
    for key in EXACT_COUNTS:
        values = sorted({layer[key] for layer in layers})
        if len(values) > 1:
            notes.append(f"count {key} varies between traced runs: {values}")
    metrics = {
        key: layers[0][key] if key in EXACT_COUNTS else statistics.median(layer[key] for layer in layers)
        for key in layers[0]
    }
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in runs["traced"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        r["wall_s"] for r in runs["untraced"]
    )
    ratios = [sum(layer[k] for k in SELF_TIMES) / r["wall_s"] for layer, r in zip(layers, runs["traced"])]
    metrics["trace.accounted_ratio"] = statistics.median(ratios)
    if any(abs(x - 1.0) > ACCOUNTING_TOLERANCE for x in ratios):
        notes.append(f"layer self times account for {ratios} of the traced wall time")
    return metrics


def report(record: dict, declared: dict) -> dict:
    """Print the human-readable lines and return the contract's JSON object."""
    workload = record["workload"]
    attempted, failed = record["attempted"], record["failed"]
    correct = failed == 0 and not record["notes"]
    missing = set(declared) - set(record["metrics"])
    if correct and missing:
        raise RuntimeError(f"metrics {sorted(missing)} were not measured")
    metrics = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in declared.items()
        if name in record["metrics"]
    }
    for note in record["notes"]:
        print(f"{workload}: {note}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    if not (ROOT / "src" / "rydladder" / "__init__.py").is_file():
        print(f"no rydladder sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    all_correct = True
    for workload in names:
        try:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except MissingReference as exc:
            print(exc, file=sys.stderr)
            return 2
        summary = report(record, declared)
        record["summary"] = summary
        (results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
        nproc = len(os.sched_getaffinity(0))
        for lib, threads in record["provenance"].get("blas_threads", {}).items():
            if threads > nproc:
                print(f"warning: {lib} uses {threads} threads on {nproc} CPUs", file=sys.stderr)
        all_correct &= summary["correct"]
        print(json.dumps(summary))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
