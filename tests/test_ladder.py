import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import PROBE_REF_S  # noqa: E402  (perfbench/run.py)


def test_ladder_smoke_records_every_row(tmp_path):
    """bench/ladder.py --smoke runs its one rung as capped subprocesses and
    writes a run with a row per op; a second tag keeps the first run."""
    out = tmp_path / "ladder.json"
    for tag in ("a", "b", "a"):
        subprocess.run([sys.executable, str(ROOT / "bench" / "ladder.py"), "--smoke",
                        "--tag", tag, "-o", str(out)], check=True, capture_output=True)
    runs = json.loads(out.read_text())["runs"]
    assert [r["tag"] for r in runs] == ["b", "a"]
    rows = runs[-1]["rows"]
    assert [r["op"] for r in rows] == ["gen", "validate"]
    for r in rows:
        assert r["exit"] == 0 and r["traceback"] is False and r["peak_rss_mb"] > 0, r
        assert r["probe_s"] > 0, r  # the calibration loop of perfbench/run.py
        # the seconds at perfbench's reference speed
        assert r["scaled_s"] == round(r["seconds"] * PROBE_REF_S / r["probe_s"], 2), r
    assert rows[0]["file_bytes"] > 0
