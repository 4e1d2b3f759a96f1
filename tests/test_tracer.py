"""The benchmark's tracer still runs on the program as it is.

``perfbench/tracer.py`` wraps named functions of every heatcalc layer
before it runs a CLI command, and it fails when one of those names is
gone.  Here it runs, unchanged, on a small ``scan`` and ``wt-scan`` in a
fresh interpreter; each must exit 0 and write the CSV of the same command
run untraced.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heatcalc
from heatcalc.cli import main

ROOT = Path(__file__).resolve().parents[1]
BIMODAL = [{"w": 0.5, "mu": 0.0, "var": 0.1}, {"w": 0.5, "mu": 10.0, "var": 0.1}]
CASES = {
    "scan": {
        "mixture": BIMODAL,
        "t_grid": {"start": 0.05, "stop": 100, "points": 5, "spacing": "log"},
        "max_order": 4,
    },
    "wt-scan": {
        "mixture": BIMODAL,
        "t_grid": {"start": 0.05, "stop": 0.95, "points": 5, "spacing": "linear"},
    },
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_traced_command_writes_the_untraced_csv(command, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CASES[command]))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(heatcalc.__file__).resolve().parents[1]))
    trace = tmp_path / "trace.json"
    tracer = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), "--"]
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "traced")]
    proc = subprocess.run(tracer + args, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    counters = json.loads(trace.read_text())["counters"]
    assert counters["calls:main"] == 1
