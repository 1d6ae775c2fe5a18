"""The measurement ladder: every CLI row a capped subprocess, in BENCH_ladder.json.

Run from the repository root:

    python3 bench/ladder.py --tag after
    python3 bench/ladder.py --tag before --src ../other-checkout/src
    python3 bench/ladder.py --smoke -o ladder-smoke.json

Each row runs `python -m aqgrec.cli` from --src with an RLIMIT_AS cap and
one BLAS thread, and reads its wall time, its peak RSS (os.wait4), its exit
code and whether its stderr holds a traceback.  A capped, refused or killed
row is recorded like any other.  Beside each row, probe_s is the time of
perfbench/run.py's calibration loop just before it: the machine's speed
drifts between runs, and a row's seconds times PROBE_REF_S / probe_s are
seconds at perfbench's reference speed, which every timed row records as
scaled_s.  The run replaces the run of the same tag in
the output file and keeps the others, so two checkouts share one file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import PROBE_REF_S, probe  # noqa: E402  (perfbench/run.py)
GIB = 1 << 30
LIMIT_S = 900  # a row still running after this long is killed
# (name, gen arguments, labels, N, rows as (op, cap in bytes))
# the windows' rmatrix, dual and group rows are refusals (exit 2)
SUQ2 = [(f"suq2 q=0.9 L={L}", ["suq2", "--q", "0.9", "--L", str(L)], L + 1,
         sum(d * d for d in range(1, L + 2)),
         [("gen", 2 * GIB), ("validate", 4 * GIB), ("check", 4 * GIB), ("rmatrix", 2 * GIB),
          ("dual", 2 * GIB), ("group", 2 * GIB)])
        for L in (12, 16, 20, 24, 30)]
POINTED = [(f"pointed Z/{n} t=1", ["pointed", "--n", str(n), "--t", "1"], n, n,
            [("gen", 2 * GIB), ("validate", 2 * GIB), ("check", 2 * GIB), ("rmatrix", 2 * GIB)])
           for n in (16, 32, 64)]
SMOKE = [("suq2 q=0.9 L=4", ["suq2", "--q", "0.9", "--L", "4"], 5, 55,
          [("gen", 2 * GIB), ("validate", 2 * GIB)])]


def run_row(src: Path, argv: list[str], cap: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "aqgrec.cli", *argv], env=env, stdout=subprocess.DEVNULL,
            stderr=err, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        timer = threading.Timer(LIMIT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        traceback = b"Traceback" in err.read()
    return {"exit": proc.returncode, "seconds": round(seconds, 2),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1), "traceback": traceback,
            "cap_mb": cap >> 20}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tag", default="current", help="name of this run in the output file")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="the package to run")
    p.add_argument("-o", "--output", type=Path, default=ROOT / "BENCH_ladder.json")
    p.add_argument("--smoke", action="store_true", help="one small rung only")
    args = p.parse_args()
    rev = subprocess.run(["git", "-C", str(args.src), "describe", "--always", "--dirty"],
                         capture_output=True, text=True).stdout.strip() or None
    rows = []
    with tempfile.TemporaryDirectory() as work:
        bundle, out = Path(work) / "bundle.json", str(Path(work) / "out.json")
        for name, gen, labels, n, ops in SMOKE if args.smoke else SUQ2 + POINTED:
            for op, cap in ops:
                row = {"bundle": name, "labels": labels, "N": n, "op": op,
                       "probe_s": round(probe(), 4)}
                if op == "gen":
                    row.update(run_row(args.src, ["gen", *gen, "-o", str(bundle)], cap))
                    made = row["exit"] == 0
                    row["file_bytes"] = bundle.stat().st_size if made else None
                elif made:
                    row.update(run_row(args.src, [op, str(bundle), "-o", out], cap))
                else:
                    row["exit"] = "no bundle: gen failed"
                if "seconds" in row:
                    row["scaled_s"] = round(row["seconds"] * PROBE_REF_S / row["probe_s"], 2)
                rows.append(row)
                print(json.dumps(row), flush=True)
    doc = json.loads(args.output.read_text()) if args.output.exists() else {"runs": []}
    doc["runs"] = [r for r in doc["runs"] if r["tag"] != args.tag] + [{
        "tag": args.tag, "revision": rev, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "blas_threads": 1,
        "rows": rows}]
    args.output.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
