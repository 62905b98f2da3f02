"""One workload in one fresh process: set up, then time jobs back to back.

``run.py`` starts this script after writing the run's inputs (config files
and ``inputs.json``) into the run directory.  Set-up is: interpreter start,
``import saext``, loading the inputs and one tiny warm-up job, which pays
the lazy BLAS/LAPACK set-up.  The worker then prints ``READY`` and, unless
``--setup-only``, runs the workload's job in a closed loop (one client, the
next job starts when the previous one ends) until about ``--seconds`` have
passed.  A job is one in-process ``saext.cli.main(argv)`` call; its output
is checked after its timer stops.  With ``--trace 1`` traced and untraced
jobs alternate, so the run also measures the tracing overhead.  On the
oracle workloads a calibration loop is timed around and during each job,
to rescale its times to a reference core speed (see ``run_jobs``).

Results go to ``worker.json`` in the run directory, spans to
``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import source


# Seconds a CAL_STEPS-step calibration loop takes on the 2-core host the
# benchmark was written on, in a quiet phase.  A job's *_ref_s times are
# rescaled to that speed.
CAL_REF_S = 0.10
CAL_STEPS = 4000
# While an untraced job runs, a SIGALRM handler times PROBE_STEPS steps of
# the loop every PROBE_PERIOD_S (about 2 ms of every 200).
PROBE_STEPS = 80
PROBE_PERIOD_S = 0.2
_CAL_X = tuple(0.25 * k for k in range(13))
_CAL_V = tuple((0.5 * k) ** 0.5 for k in range(13))


def _cal_loop(steps: int) -> float:
    """Seconds of ``steps`` RK4 steps of psi'' = (V(x) - 3) psi, for a 2x2
    complex fundamental system and a tabulated V: the benchmark's own fixed
    copy of the kind of work the jobs do, small-array arithmetic driven by
    the interpreter."""
    import numpy as np

    h = 3.0 / steps
    state = np.eye(2, dtype=complex)

    def deriv(x, s):
        q = float(np.interp(x, _CAL_X, _CAL_V)) - 3.0
        return np.array([s[1], q * s[0]])

    t0 = time.perf_counter()
    x = 0.0
    for _ in range(steps):
        k1 = deriv(x, state)
        k2 = deriv(x + h / 2, state + (h / 2) * k1)
        k3 = deriv(x + h / 2, state + (h / 2) * k2)
        k4 = deriv(x + h, state + h * k3)
        state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds of the CAL_STEPS-step loop right now.

    On a shared host the speed of a core drifts by up to half, over seconds
    to minutes; the loop slows with it, a job's time divided by the loop's
    time while it ran does not.
    """
    return _cal_loop(CAL_STEPS)


class SpeedProbe:
    """Samples the calibration loop while a job runs, from a SIGALRM
    handler, which Python runs in the main thread between bytecodes.

    Each sample is scaled to CAL_STEPS steps.  ``seconds`` is the time
    spent in the handler, to be taken off the job's wall and CPU time.  An
    inactive probe takes no samples.
    """

    def __init__(self, active: bool):
        self.active = active
        self.samples: list[float] = []
        self.seconds = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_cal_loop(PROBE_STEPS) * CAL_STEPS / PROBE_STEPS)
        self.seconds += time.perf_counter() - t0

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def _call(cli_main, argv):
    """Run one job; an exception counts as a failed operation."""
    try:
        return cli_main(argv), None
    except Exception:
        return None, traceback.format_exc()


def _csv_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.glob("*.csv"))


def run_jobs(cli_main, spec: dict, seconds: float, tracer) -> list[dict]:
    """Closed loop of jobs for about ``seconds`` (at least one job, and with
    a tracer at least one traced and one untraced job).

    A job starts only while more than half of a typical job is left, so the
    run ends within about half a job of ``seconds``, and slow jobs do not
    stretch a run, and with it the whole benchmark, by a whole job.

    On a rescaled workload (``spec["rescale"]``) the calibration loop runs
    before the first job and after each job, outside the timers, and a
    SpeedProbe samples it during each untraced job; a job's ``cal_s`` is
    the mean of those samples and the two runs around it, and its
    ``*_ref_s`` times are scaled by CAL_REF_S / ``cal_s``.  Elsewhere the
    scale is 1.  Traced jobs are not probed, so that the probe shows in no
    span.
    """
    import workloads

    out = Path(spec["job_out"])
    argv = spec["job_argv"]
    jobs: list[dict] = []
    rescale = spec["rescale"]
    start = time.perf_counter()
    cal_before = calibrate() if rescale else None
    while True:
        traced_jobs = sum(job["traced"] for job in jobs)
        untraced_jobs = len(jobs) - traced_jobs
        done = untraced_jobs and (tracer is None or traced_jobs)
        if done:
            typical = statistics.median(job["wall_s"] for job in jobs)
            if time.perf_counter() - start + typical / 2 >= seconds:
                return jobs
        traced = tracer is not None and traced_jobs < untraced_jobs
        index = len(jobs)
        shutil.rmtree(out, ignore_errors=True)
        probe = SpeedProbe(rescale and not traced)
        cpu0 = time.process_time()
        if traced:
            (code, error), wall = tracer.run_job(index, _call, cli_main, argv)
        else:
            with probe:
                t0 = time.perf_counter()
                code, error = _call(cli_main, argv)
                wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0 - probe.seconds
        wall -= probe.seconds
        if rescale:
            cal_after = calibrate()
            cal = statistics.fmean([cal_before, *probe.samples, cal_after])
            cal_before = cal_after
            scale = CAL_REF_S / cal
        else:
            cal, scale = None, 1.0
        if code == 0:
            ok, message = workloads.check(spec["check"], out)
        else:
            ok, message = False, error or f"exit code {code}"
        job = {"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu,
               "cal_s": cal, "probe_samples": len(probe.samples),
               "wall_ref_s": wall * scale, "cpu_ref_s": cpu * scale,
               "ok": ok, "check": message}
        if traced:
            job["layers"] = dict(tracer.job_metrics(index),
                                 **{"cli.csv_bytes": _csv_bytes(out)})
        jobs.append(job)


def _peak_rss_mib() -> float:
    """Peak resident memory of this process image.

    Linux carries ru_maxrss over fork and exec, so a worker would report
    the driver's peak; VmHWM starts afresh with the new image.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def _blas() -> dict:
    """BLAS vendor from numpy's build record, and the thread count of every
    OpenBLAS library loaded in this process."""
    import numpy as np

    info: dict = {"vendor": None, "version": None, "libraries": []}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        threads = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        info["libraries"].append({"library": Path(path).name, "threads": threads})
    return info


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = source.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "SAEXT_THREADS": os.environ.get("SAEXT_THREADS"),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--run-dir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        saext = source.import_saext()
    except source.SourceMissing as exc:
        print(f"perfbench worker: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((args.run_dir / "inputs.json").read_text())
    if saext.cli.main(spec["warmup_argv"]) != 0:
        print("perfbench worker: the warm-up job failed", file=sys.stderr)
        return 3
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer({name: sys.modules[name] for name in
                                 ("saext.cli", "saext.boundary", "saext.spectral",
                                  "saext.potentials")})
    jobs = run_jobs(saext.cli.main, spec, args.seconds, tracer)
    result = {
        "environment": environment(),
        "jobs": jobs,
        "peak_rss_mib": _peak_rss_mib(),
        "untraced_functions": tracer.missing if tracer else [],
    }
    (args.run_dir / "worker.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        tracer.write(args.run_dir / "spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
