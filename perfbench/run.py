"""Benchmark of saext: four workloads, timed end to end and, in a separate
traced run, layer by layer.

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload fem-ring --seed 3 --seconds 20 --trace 0

For each workload this driver generates the inputs from ``--seed``
(untimed, with the FEM reference the oracle checks need), then starts
fresh worker processes one after another: SETUP_SAMPLES - 1 that only set
up, and one that sets up and then runs jobs for ``--seconds`` (see
``worker.py``).  ``setup_s`` is measured here, from starting a worker to
its READY line.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything else goes to ``result.json`` in the run directory.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import source

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
SMOKE_SETUP_SAMPLES = 2
# A run must end within 180 s; workers still running at this point are
# killed and the run fails.
RUN_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"job_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "cpu_ref_s": "s"}
LOAD_MODEL = ("closed loop, one client in one process; each workload in "
              "fresh worker processes started one after another; BLAS threads "
              "at their default; SAEXT_THREADS unset")


class WorkerFailed(RuntimeError):
    pass


def _await_ready(proc: subprocess.Popen, deadline: float) -> float:
    """perf_counter() at which the worker printed READY."""
    fd = proc.stdout.fileno()
    seen = b""
    while b"READY\n" not in seen:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed("worker not ready before the run's deadline")
        readable, _, _ = select.select([fd], [], [], remaining)
        if readable:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise WorkerFailed(f"worker exited during set-up "
                                   f"(code {proc.wait()})")
            seen += chunk
    return time.perf_counter()


def _run_worker(run_dir: Path, seconds: float, trace: int, setup_only: bool,
                deadline: float) -> float:
    """Start one worker, wait for it to end, and return its set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--run-dir", str(run_dir),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env.pop("SAEXT_THREADS", None)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            cwd=source.ROOT)
    try:
        setup_s = _await_ready(proc, deadline) - start
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker still running at the run's deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return setup_s


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool, out_root: Path) -> dict:
    import tracing
    import workloads

    deadline = time.monotonic() + RUN_TIMEOUT_S
    run_dir = out_root / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = workloads.generate(name, seed, run_dir, smoke)
    (run_dir / "inputs.json").write_text(json.dumps(spec, indent=1))

    samples = SMOKE_SETUP_SAMPLES if smoke else SETUP_SAMPLES
    setups = [_run_worker(run_dir, seconds, trace, k < samples - 1, deadline)
              for k in range(samples)]
    worker = json.loads((run_dir / "worker.json").read_text())
    jobs = worker["jobs"]
    untraced = [job for job in jobs if not job["traced"]]
    traced = [job for job in jobs if job["traced"]]
    failed = sum(not job["ok"] for job in jobs)

    def median(key):
        return statistics.median(job[key] for job in untraced)

    end_to_end = {
        "job_ref_s": median("wall_ref_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": worker["peak_rss_mib"],
        "cpu_ref_s": median("cpu_ref_s"),
    }
    # As measured, before rescaling to the reference speed.
    raw = {"job_s": median("wall_s"), "cpu_s": median("cpu_s")}
    if spec["rescale"]:
        raw["cal_s"] = median("cal_s")
    if trace:
        values, counts_repeat = tracing.summarize(
            [job["layers"] for job in traced],
            [job["wall_s"] for job in untraced],
            [job["wall_s"] for job in traced])
        metrics = {k: {"value": v, "unit": tracing.unit(k)}
                   for k, v in values.items()}
    else:
        counts_repeat = None
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}
    result = {
        "workload": name, "why": workloads.WORKLOADS[name], "seed": seed,
        "seconds": seconds, "trace": trace, "smoke": smoke,
        "load_model": LOAD_MODEL,
        "environment": worker["environment"],
        "inputs": spec["inputs"],
        "setup_s_samples": setups,
        "end_to_end": end_to_end,
        "raw": raw,
        "job_samples": len(untraced), "traced_job_samples": len(traced),
        "metrics": metrics,
        "counts_repeat": counts_repeat,
        "untraced_functions": worker["untraced_functions"],
        "correct": failed == 0, "attempted": len(jobs), "failed": failed,
        "checks": sorted({job["check"] for job in jobs}),
        "jobs": jobs,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _report(result: dict) -> None:
    """Human-readable summary of one workload's run."""
    print(f"== {result['workload']}  seed {result['seed']}  trace "
          f"{result['trace']}  ({result['why']})")
    n_setup = len(result["setup_s_samples"])
    jobs = f"median of {result['job_samples']} jobs"
    samples = {"job_ref_s": jobs, "cpu_ref_s": jobs,
               "setup_s": f"median of {n_setup} set-ups"}
    for name, value in result["end_to_end"].items():
        print(f"  {name:<32} {value:>14.6g} {END_TO_END_UNITS[name]:<6} "
              f"{samples.get(name, '')}")
    for name, value in result["raw"].items():
        print(f"  {name:<32} {value:>14.6g} s      {jobs}, as measured")
    if result["trace"]:
        print(f"  per layer, {result['traced_job_samples']} traced jobs "
              f"(counts repeat: {result['counts_repeat']}):")
        for name, metric in result["metrics"].items():
            print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  operations: attempted {result['attempted']}, failed "
          f"{result['failed']}; checks {'pass' if result['correct'] else 'FAIL'}: "
          + " | ".join(result["checks"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="length of the timed loop of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for testing the benchmark")
    parser.add_argument("--out", type=Path,
                        default=source.ROOT / ".perfbench_out",
                        help="directory for run inputs, outputs and results")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        source.import_saext()
    except source.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.smoke, args.out)
        except WorkerFailed as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        _report(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
