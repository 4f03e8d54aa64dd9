"""tests/bench_frontier.py writes one record per command whose sha256 is the CLI's own."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_frontier_records_one_command(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["verify-hopf", "kz3"]
    subprocess.run([sys.executable, str(ROOT / "tests" / "bench_frontier.py"), "--out", str(out),
                    "--runs", "1", "--no-tier1", "--command", " ".join(argv)],
                   check=True, capture_output=True)
    report = json.loads(out.read_text())
    assert set(report) == {"commit", "tree_differs_from_commit", "date", "python", "nproc",
                           "pythondontwritebytecode", "bare_child_peak_rss_mb", "tier1",
                           "commands"}
    assert report["tier1"] is None
    (record,) = report["commands"]
    assert set(record) == {"argv", "exit_code", "stdout_sha256", "runs", "wall_s", "peak_rss_mb"}
    assert record["argv"] == argv and record["exit_code"] == 0 and record["runs"] == 1
    assert set(record["wall_s"]) == {"q1", "median", "q3"}
    direct = subprocess.run([sys.executable, "-m", "hopfhomology.cli", *argv], check=True,
                            capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert record["stdout_sha256"] == hashlib.sha256(direct.stdout).hexdigest()
