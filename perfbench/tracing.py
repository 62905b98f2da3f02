"""Spans around saext's layers, recorded from outside the program.

The tracer replaces the public function of each layer, for the length of
one job, by a wrapper at the place where its caller looks it up (for
example ``saext.cli.assemble_pencil``, which ``cli`` calls, or
``saext.spectral.fundamental_traces``, which ``find_spectrum`` calls).  A
span records name, start, end, parent span and job.  ``Potential.value``
runs about 25 000 times per RK4 trace evaluation, so it is not a span:
its calls and seconds are summed per job, and charged to the enclosing
span so that self times stay right.  Spans stay in memory until
:meth:`Tracer.write`.

No thread is involved: with ``SAEXT_THREADS`` unset every layer runs in
the calling thread, so one stack of open spans describes the nesting.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# (module, attribute, span name); the module is where the caller looks the
# function up.  boundary.system and boundary.values are wrapped twice: the
# solve path reaches them inside retry_mesh_on_bad_conditioning, the
# stability study calls them from cli directly.
SPAN_TARGETS = (
    ("saext.cli", "retry_mesh_on_bad_conditioning", "boundary.retry"),
    ("saext.boundary", "assemble_boundary_system", "boundary.system"),
    ("saext.cli", "assemble_boundary_system", "boundary.system"),
    ("saext.boundary", "solve_boundary_values", "boundary.values"),
    ("saext.cli", "solve_boundary_values", "boundary.values"),
    ("saext.cli", "assemble_pencil", "fem.assemble"),
    ("saext.cli", "solve_pencil", "eigen.solve"),
    ("saext.cli", "eigenfunction_samples", "eigen.post"),
    ("saext.cli", "find_spectrum", "spectral.find"),
    ("saext.spectral", "fundamental_traces", "spectral.traces"),
    ("saext.spectral", "spectral_matrix", "spectral.matrix"),
)
LEAF = "potentials.value"

# Per-layer metrics that are counts: they must repeat exactly across jobs
# and runs with the same inputs.  All others are seconds.
COUNT_METRICS = (
    "boundary.calls", "boundary.retries",
    "fem.assemble_calls", "fem.pencil_bytes",
    "eigen.solve_calls",
    "potentials.value_calls",
    "spectral.traces_calls", "spectral.scan_points", "spectral.refine_evals",
    "spectral.refine_evals_per_root",
    "cli.csv_bytes",
)
TIME_METRICS = (
    "boundary.s",
    "fem.assemble_s",
    "eigen.solve_s", "eigen.post_s",
    "potentials.value_s",
    "spectral.find_s", "spectral.traces_s", "spectral.matrix_s",
    "spectral.self_s",
    "cli.self_s",
    "trace.overhead_s",
)


def _nbytes(matrix) -> int:
    """Bytes held by a dense or scipy.sparse matrix."""
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    return sum(int(getattr(matrix, part).nbytes)
               for part in ("data", "indices", "indptr", "offsets", "row", "col")
               if hasattr(matrix, part))


def _pencil_bytes(args, kwargs, pencil):
    return _nbytes(pencil.a) + _nbytes(pencil.b)


def _trial_lambda(args, kwargs, traces):
    return float(kwargs["lam"] if "lam" in kwargs else args[2])


def _root_count(args, kwargs, result):
    roots = result[0] if isinstance(result, tuple) else result
    return len(roots)


SPAN_INFO = {"fem.assemble": _pencil_bytes, "spectral.traces": _trial_lambda,
             "spectral.find": _root_count}


@dataclass(slots=True)
class Span:
    name: str
    job: int
    parent: int  # index into Tracer.spans, -1 for a job's root span
    start: float
    end: float = float("nan")
    leaf_s: float = 0.0  # seconds of LEAF calls made directly inside
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the jobs run through :meth:`run_job`."""

    def __init__(self, saext_modules: dict) -> None:
        self.spans: list[Span] = []
        self.leaf_calls: dict[int, list] = {}  # job -> [calls, seconds]
        self._stack: list[int] = []
        self._job = -1
        self._leaf_totals = [0, 0.0]
        self._job_spans: dict[int, range] = {}  # job -> its indices in spans
        self._patches = []
        self.missing = []
        for module, attr, name in SPAN_TARGETS:
            owner = saext_modules[module]
            if hasattr(owner, attr):
                self._patches.append((owner, attr, getattr(owner, attr),
                                      self._span_wrapper(getattr(owner, attr), name)))
            else:
                self.missing.append(f"{module}.{attr}")
        potentials = saext_modules["saext.potentials"]
        for cls in vars(potentials).values():
            if (isinstance(cls, type) and issubclass(cls, potentials.Potential)
                    and "value" in vars(cls)):
                original = vars(cls)["value"]
                self._patches.append((cls, "value", original,
                                      self._leaf_wrapper(original)))

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._job, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def _span_wrapper(self, fn, name: str):
        info = SPAN_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return traced

    def _leaf_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self.spans[self._stack[-1]].leaf_s += seconds
                totals = self._leaf_totals
                totals[0] += 1
                totals[1] += seconds
        return traced

    @contextlib.contextmanager
    def _installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def run_job(self, job: int, fn, *args):
        """Call ``fn(*args)`` as job ``job`` with every layer traced.

        Returns (result, wall seconds of the job span).
        """
        self._leaf_totals = self.leaf_calls[job] = [0, 0.0]
        self._job = job
        first = len(self.spans)
        with self._installed():
            index = self._open("job")
            try:
                result = fn(*args)
            finally:
                span = self._close(index)
        self._job_spans[job] = range(first, len(self.spans))
        return result, span.seconds

    def job_metrics(self, job: int) -> dict:
        """Per-layer metrics of one traced job (all but cli.csv_bytes and
        trace.overhead_s, which need more than the spans)."""
        indices = self._job_spans[job]
        first = indices.start
        spans = [self.spans[i] for i in indices]
        child_s = defaultdict(float)
        for span in spans:
            if span.parent >= 0:
                child_s[span.parent] += span.seconds

        def self_s(index):
            span = self.spans[index]
            return span.seconds - child_s[index] - span.leaf_s

        named = defaultdict(list)  # name -> [(global index, span)]
        outermost_s = defaultdict(float)  # layer -> seconds not nested in itself
        for offset, span in enumerate(spans):
            named[span.name].append((first + offset, span))
            layer = span.name.split(".")[0]
            if span.parent < 0 or self.spans[span.parent].name.split(".")[0] != layer:
                outermost_s[layer] += span.seconds

        def total_s(name):
            return sum(span.seconds for _, span in named[name])

        scan_points = 0
        for index, _ in named["spectral.find"]:
            # The scan visits its grid in increasing lambda; the first trial
            # lambda that does not increase starts root refinement.
            lams = [s.info for _, s in named["spectral.traces"] if s.parent == index]
            run = min(1, len(lams))
            while run < len(lams) and lams[run] > lams[run - 1]:
                run += 1
            scan_points += run
        traces_calls = len(named["spectral.traces"])
        roots = sum(span.info for _, span in named["spectral.find"])
        refine = traces_calls - scan_points
        calls, value_s = self.leaf_calls[job]
        return {
            "boundary.s": outermost_s["boundary"],
            "boundary.calls": len(named["boundary.values"]),
            "boundary.retries": len(named["boundary.system"]) - len(named["boundary.values"]),
            "fem.assemble_s": total_s("fem.assemble"),
            "fem.assemble_calls": len(named["fem.assemble"]),
            "fem.pencil_bytes": max((s.info for _, s in named["fem.assemble"]), default=0),
            "eigen.solve_s": total_s("eigen.solve"),
            "eigen.solve_calls": len(named["eigen.solve"]),
            "eigen.post_s": total_s("eigen.post"),
            "potentials.value_calls": calls,
            "potentials.value_s": value_s,
            "spectral.find_s": total_s("spectral.find"),
            "spectral.traces_s": total_s("spectral.traces"),
            "spectral.traces_calls": traces_calls,
            "spectral.matrix_s": total_s("spectral.matrix"),
            "spectral.self_s": sum(self_s(i) for i, _ in named["spectral.find"]),
            "spectral.scan_points": scan_points,
            "spectral.refine_evals": refine,
            "spectral.refine_evals_per_root": refine / roots if roots else 0.0,
            "cli.self_s": self_s(first),
        }

    def write(self, path: Path) -> None:
        """Write every span, then one record per job for the summed
        ``potentials.value`` calls, as JSON lines.  A span's ``parent`` is
        the line number (from 0) of its parent span, -1 for a job."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "job": span.job, "parent": span.parent,
                    "start": span.start - origin, "end": span.end - origin,
                }) + "\n")
            for job, (calls, seconds) in self.leaf_calls.items():
                fh.write(json.dumps({"name": LEAF, "job": job, "calls": calls,
                                     "seconds": seconds}) + "\n")


def summarize(per_job: list[dict], untraced_s: list[float],
              traced_s: list[float]) -> tuple[dict, bool]:
    """Per-layer metrics of a run: medians of the seconds over the traced
    jobs, and the counts, which must agree between all of them.

    Returns (metrics, whether every count repeated exactly).
    """
    metrics = {}
    repeat = True
    for name in COUNT_METRICS:
        values = [job[name] for job in per_job]
        repeat = repeat and all(v == values[0] for v in values)
        metrics[name] = values[0]
    for name in TIME_METRICS:
        if name != "trace.overhead_s":
            metrics[name] = statistics.median(job[name] for job in per_job)
    metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                   - statistics.median(untraced_s))
    return metrics, repeat


def unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_per_root"):
        return "evals/root"
    return "s" if name in TIME_METRICS else "count"
