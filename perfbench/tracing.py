"""In-process traced run of the aqgrec CLI.

The traced run calls ``aqgrec.cli.run`` in this process, so it takes exactly
the CLI's code path, exit codes and output.  For the traced passes the public
functions that the CLI handlers call are replaced, in the ``aqgrec.cli``
namespace only, by wrappers that record one span per call.  ``reconstruct`` is
split into a ``bundle.validate`` span and an ``aqg.reconstruct`` span run with
``validate=False``, which is what ``reconstruct(validate=True)`` does.

Spans are kept in memory and reduced to per-layer metrics when a pass ends:
self time per span name, the exceptions raised per layer, and for the layers in
PEAK_LAYERS the tracemalloc peak above the start of each span.  tracemalloc
runs only inside those spans: it slows the many small allocations of the
bundle, aqg and braid layers about tenfold.  numpy reports an allocation to
tracemalloc before it can fail, so a MemoryError shows the size asked for.
"""
from __future__ import annotations

import contextlib
import functools
import io
import statistics
import time
import traceback
import tracemalloc
from dataclasses import dataclass

# aqgrec.cli attribute -> (layer, span name).  Names missing from the CLI are
# skipped, so their metrics read 0.
CLI_SPANS = {
    "gen_pointed": ("examples", "gen"),
    "gen_suq2": ("examples", "gen"),
    "gen_finite_group": ("examples", "gen"),
    "serialize_bundle": ("bundle", "serialize"),
    "parse_bundle": ("bundle", "parse"),
    "validate_bundle": ("bundle", "validate"),
    "verify_axioms": ("aqg", "verify_axioms"),
    "modular_data": ("aqg", "modular_data"),
    "dual_hopf": ("dual", "dual_hopf"),
    "universal_corep": ("dual", "universal_corep"),
    "verify_universal": ("dual", "verify_universal"),
    "pontryagin_check": ("dual", "pontryagin"),
    "grouplikes": ("group", "grouplikes"),
    "cocommutative_check": ("group", "cocommutative"),
    "braiding_to_r": ("braid", "braiding_to_r"),
    "verify_quasitriangular": ("braid", "quasitriangular"),
    "triangularity": ("braid", "triangularity"),
    "_report_payload": ("report", "to_json"),
    "_json_payload": ("report", "to_json"),
}
LAYERS = ("bundle", "examples", "aqg", "dual", "group", "braid", "report")
PEAK_LAYERS = ("examples", "dual", "group")


@dataclass
class Span:
    name: str            # "<layer>.<call>"
    layer: str
    start: float
    parent: int | None
    op: int              # index of the CLI op within the pass
    end: float = 0.0
    peak: int = 0        # tracemalloc peak above the traced memory at start, bytes
    error: bool = False


class Tracer:
    """Records nested spans, with a tracemalloc peak per span when tracing."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[tuple[int, int, int]] = []  # (span index, base, running peak)
        self._last_error: BaseException | None = None

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        owner = layer in PEAK_LAYERS and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        base, peak = tracemalloc.get_traced_memory()
        if self._stack:
            i, b, p = self._stack[-1]
            self._stack[-1] = (i, b, max(p, peak))
        tracemalloc.reset_peak()
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(f"{layer}.{name}", layer, time.perf_counter(), parent, self.op))
        self._stack.append((idx, base, base))
        try:
            yield
        except BaseException as exc:
            # count an exception once, in the innermost span it leaves
            if exc is not self._last_error:
                self.spans[idx].error = True
                self._last_error = exc
            raise
        finally:
            s = self.spans[idx]
            s.end = time.perf_counter()
            _, b, p = self._stack.pop()
            top = max(p, tracemalloc.get_traced_memory()[1])
            s.peak = top - b
            if self._stack:
                i, pb, pp = self._stack[-1]
                self._stack[-1] = (i, pb, max(pp, top))
            tracemalloc.reset_peak()
            if owner:
                tracemalloc.stop()

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)
        return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Replace the CLI's public calls by traced wrappers for the duration."""
    from aqgrec import aqg, cli

    saved = {a: getattr(cli, a) for a in CLI_SPANS if hasattr(cli, a)}
    for attr, fn in saved.items():
        setattr(cli, attr, tracer.wrap(*CLI_SPANS[attr], fn))
    original = cli.reconstruct
    validate_bundle = saved.get("validate_bundle", aqg.validate_bundle)

    def reconstruct(b, tol=aqg.DEFAULT_TOL, validate=True):
        if validate:
            with tracer.span("bundle", "validate"):
                rep = validate_bundle(b, tol)
            if not rep.passed:
                raise aqg.InvalidBundle(rep)
        with tracer.span("aqg", "reconstruct"):
            return original(b, tol, validate=False)

    cli.reconstruct = reconstruct
    try:
        yield
    finally:
        cli.reconstruct = original
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def run_inprocess(argv: list[str]) -> tuple[float, int, str, str]:
    """Run one CLI command in this process: (wall, exit code, stdout, stderr).

    An uncaught exception is printed as a traceback with exit code 1, as the
    interpreter does for the real command.
    """
    from aqgrec import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def span_rows(spans: list[Span]) -> list[dict]:
    """The spans of one pass as rows, times relative to the first span."""
    t0 = spans[0].start if spans else 0.0
    return [{"span": s.name, "op": s.op, "parent": s.parent, "start_s": s.start - t0,
             "end_s": s.end - t0, "self_s": own, "error": s.error,
             "peak_mb": s.peak / 2 ** 20 if s.layer in PEAK_LAYERS else None}
            for s, own in zip(spans, self_times(spans))]


def layer_metrics(spans: list[Span]) -> dict:
    """Self time per span name, error count and peak MB per layer, for one pass."""
    m = {f"{layer}.{name}_s": 0.0 for layer, name in CLI_SPANS.values()}
    m["aqg.reconstruct_s"] = 0.0
    m.update({f"{layer}.errors": 0 for layer in LAYERS})
    m.update({f"{layer}.peak_mb": 0.0 for layer in PEAK_LAYERS})
    for s, own in zip(spans, self_times(spans)):
        m[f"{s.name}_s"] += own
        m[f"{s.layer}.errors"] += s.error
        if s.layer in PEAK_LAYERS:
            m[f"{s.layer}.peak_mb"] = max(m[f"{s.layer}.peak_mb"], s.peak / 2 ** 20)
    return m


def combine(passes: list[dict]) -> dict:
    """Median of the times over passes; the largest peak and error count."""
    return {k: (statistics.median if k.endswith("_s") else max)(p[k] for p in passes)
            for k in passes[0]}
