"""Benchmark of the aqgrec command line on three bundle families.

Run from the repository root:

    python3 perfbench/run.py --workload group-d4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` is a closed loop with one client: it runs one ``aqgrec``
subprocess at a time, in the workload's order, for ``--seconds`` seconds, and
reports end-to-end metrics.  ``--trace 1`` runs the same commands inside this
process with a span around each public call the CLI makes, and reports
per-layer metrics.  Every output is checked.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a run header and a row per op.  ``--smoke`` runs tiny
versions of the workloads in both modes and checks every metric name of
BENCHMARK.json.

End-to-end times are scaled to a reference machine speed (see PROBE_REF_S).
A failed op is charged its time plus the per-op cap, so fixing it reads as a
gain.  Failures the program has today are listed in workloads.py: they count
as failed but leave the run correct.  README.md defines every metric.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing as T
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

CAP_S = 15.0          # per-op wall time cap
SETUP_REPS = 3        # `aqgrec --version` runs at the start of each cycle
IMPORT_REPS = 5       # `import aqgrec.cli` runs per traced run
# On a shared 2-core VM, machine speed drifted by up to 2x over tens of
# seconds, for every process alike.  Timed runs therefore time a fixed
# pure-Python loop before every op and scale each cycle's wall times by
# PROBE_REF_S over the cycle's median loop time: the reported seconds are
# seconds at the speed where the loop takes PROBE_REF_S.  Raw times are
# printed beside them.
PROBE_N = 200_000
PROBE_REF_S = 0.014
BLAS_THREADS = "1"
THREAD_ENV = {v: BLAS_THREADS for v in
              ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass
class Result:
    op: str
    wall: float
    code: int
    out: str
    problems: list[str] = field(default_factory=list)
    wrong: bool = False
    rss_mb: float = 0.0

    def charged(self, scale: float = 1.0) -> float:
        """Scaled wall time, plus the cap if the op failed."""
        return self.wall * scale + (CAP_S if self.problems else 0.0)


def probe() -> float:
    """The time of a fixed calibration loop."""
    t = time.perf_counter()
    acc = 0
    for i in range(PROBE_N):
        acc += i * i
    return time.perf_counter() - t


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], work: Path, env: dict) -> tuple[float, float, int, str, str]:
    """Run `python -<args>` to completion or the cap: (wall, peak RSS MB, exit, out, err)."""
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=work)
        timer = threading.Timer(CAP_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, usage.ru_maxrss / 1024, proc.returncode,
                out.read().decode(errors="replace"), err.read().decode(errors="replace"))


class Inputs:
    """The workload's files in the work directory; corruptions follow the first gen."""

    def __init__(self, work: Path, seed: int):
        self.good, self.bad, self.nan = (str(work / f) for f in ("good.json", "bad.json", "nan.json"))
        self.seed = seed
        self.text: str | None = None

    def after_gen(self) -> str | None:
        try:
            text = Path(self.good).read_text()
        except OSError:
            return None
        if self.text is None:
            self.text = text
            bad, nan = W.corrupt(text, self.seed)
            Path(self.bad).write_text(bad)
            Path(self.nan).write_text(nan)
        return text


def run_op(w, op, argv, inputs: Inputs, execute, probes: list | None = None) -> Result:
    """Run one op with `execute(argv) -> (wall, rss, code, out, err)` and check it.

    With `probes`, a calibration time is appended before the op runs.
    """
    if probes is not None:
        probes.append(probe())
    wall, rss, code, out, err = execute(argv)
    text = inputs.after_gen() if op == "gen" else None
    problems, wrong = W.check_output(w, op, code, out, err, text)
    if wall >= CAP_S:
        problems.insert(0, f"hit the {CAP_S:g} s cap")
    return Result(op, wall, code, out, problems, wrong, rss)


def is_correct(w, results: list[Result]) -> bool:
    return all(not r.wrong and (not r.problems or W.known_defect(w.family, r.op))
               for r in results)


def timed_run(w, seed: int, seconds: float, work: Path):
    env = child_env()

    def cli(argv):
        return run_child(["-m", "aqgrec.cli", *argv], work, env)

    def version():
        wall, rss, code, out, err = cli(["--version"])
        ok = code == 0 and out.startswith("aqgrec ") and "Traceback" not in err
        return Result("version", wall, code, out,
                      [] if ok else [f"exit {code}, printed {out[:40]!r}"], rss_mb=rss)

    inputs = Inputs(work, seed)
    rounds = []  # per cycle: (version results, {op: result}, calibration times)
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        probes = []
        versions = [version() for _ in range(SETUP_REPS)]
        ops = {op: run_op(w, op, argv, inputs, cli, probes)
               for op, argv in W.cycle(w, inputs.good, inputs.bad, inputs.nan, seed)}
        probes.append(probe())
        rounds.append((versions, ops, probes))
    setup = [r for vs, _, _ in rounds for r in vs]
    loop = [r for _, ops, _ in rounds for r in ops.values()]
    med = statistics.median
    scales = [PROBE_REF_S / med(p) for _, _, p in rounds]

    def times(scales):
        return {
            "setup_s": med(r.wall * k for (vs, _, _), k in zip(rounds, scales) for r in vs),
            "verdict_s": med(sum(ops[op].charged(k) for op in w.ops)
                             for (_, ops, _), k in zip(rounds, scales)),
            "cycle_s": med(sum(r.charged(k) for r in ops.values())
                           for (_, ops, _), k in zip(rounds, scales)),
        }

    digits = [W.check_digits(ops["check"].out) for _, ops, _ in rounds
              if not ops["check"].problems]
    metrics = {
        **times(scales),
        "peak_rss_mb": max(r.rss_mb for r in setup + loop),
        "ok_ratio": sum(not r.problems for r in loop) / len(loop),
        "check_digits": med(digits) if digits else 0.0,
    }
    speed = {"calibration_s": [med(p) for _, _, p in rounds], "scales": scales,
             "raw": times([1.0] * len(rounds))}
    return setup + loop, metrics, [speed]


def traced_run(w, seed: int, seconds: float, work: Path):
    import aqgrec.cli  # noqa: F401  (the first pass should not pay the import)

    env = child_env()
    probe = "import time; t = time.perf_counter(); import aqgrec.cli; print(time.perf_counter() - t)"
    imports = [float(run_child(["-c", probe], work, env)[3]) for _ in range(IMPORT_REPS)]
    inputs = Inputs(work, seed)

    def inprocess(argv):
        wall, code, out, err = T.run_inprocess(argv)
        return wall, 0.0, code, out, err

    def one_pass(tracer=None):
        results = []
        for op, argv in W.cycle(w, inputs.good, inputs.bad, inputs.nan, seed):
            if tracer:
                tracer.op += 1
            results.append(run_op(w, op, argv, inputs, inprocess))
        return results

    def verdict(results):
        return sum(r.wall for r in results if r.op in w.ops)

    results, plain, traced, layers = [], [], [], []
    t0 = time.perf_counter()
    # an untraced and a traced pass per round, while the next round fits
    while not traced or (time.perf_counter() - t0) * (1 + 1 / len(traced)) <= seconds:
        rs = one_pass()
        plain.append(verdict(rs))
        tracer = T.Tracer()
        with T.instrumented(tracer):
            rt = one_pass(tracer)
        traced.append(verdict(rt))
        layers.append(T.layer_metrics(tracer.spans))
        results += rs + rt
    metrics = T.combine(layers)
    metrics.update(W.describe(inputs.text))
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return results, metrics, T.span_rows(tracer.spans)


def header(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
            "seed": seed, "calibration_s": statistics.median(probe() for _ in range(5)),
            "calibration_ref_s": PROBE_REF_S, "loadavg": os.getloadavg()[0]}


def measure(w, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        results, metrics, extra = (traced_run if trace else timed_run)(w, seed, seconds, Path(tmp))
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    for op in dict.fromkeys(r.op for r in results):
        rs = [r for r in results if r.op == op]
        bad = [r for r in rs if r.problems]
        row = {"op": f"{op}_s", "median": statistics.median(r.wall for r in rs), "unit": "s",
               "samples": [round(r.wall, 4) for r in rs], "failed": len(bad)}
        if bad:
            row["problem"] = "; ".join(bad[0].problems)
            row["known_defect"] = W.known_defect(w.family, op)
        print(json.dumps(row))
    for row in extra:  # calibration, or the spans of the last traced pass
        print(json.dumps(row))
    return {
        "correct": is_correct(w, results),
        "attempted": len(results),
        "failed": sum(bool(r.problems) for r in results),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def smoke(spec: dict) -> int:
    """Both modes on tiny workloads; every metric name and output check must hold."""
    ok = True
    for w in W.SMOKE.values():
        for trace in (False, True):
            res = measure(w, 1, 0, trace, spec)
            vals = [m["value"] for m in res["metrics"].values()]
            good = res["correct"] and all(math.isfinite(v) for v in vals)
            ok &= good
            print(json.dumps({"smoke": w.name, "trace": int(trace), "ok": good,
                              "attempted": res["attempted"], "failed": res["failed"]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, both modes")
    args = p.parse_args(argv)
    if not args.smoke and not args.workload:
        p.error("--workload is required unless --smoke is given")
    if not (SRC / "aqgrec" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: no aqgrec sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: the running child is killed and reaped, the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.update(THREAD_ENV)  # before numpy loads, here and in children
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    print(json.dumps({"header": header(args.seed)}))
    if args.smoke:
        return smoke(spec)
    res = measure(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
