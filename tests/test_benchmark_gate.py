"""The benchmark's scan and wt-scan checks, run on the inputs they gate.

``perfbench/workloads.py`` fails a scan row when its verdict lines are
missing, when a row's fd columns differ from ``fd_entropy_deriv_result``
recomputed at that row's t alone, or when a symbolic derivative misses
it by more than 3 (error + 3 tol).  The fd columns and that function
carry the Taylor jet's h^(n) and its quadrature error.  It fails a
wt-scan row when the command's verdict lines are missing or the row's
``txz_ok`` is not 1.  A change to the oracle that trips those checks
fails here, not only under the benchmark.  So does a change that trips
the checks of the ``certify`` workload's commands: ``derive``,
``verify-identities``, the built-in certificates and the searches at
orders 4 and 5.  The checks are imported as they are, never edited.
"""

import sys
from pathlib import Path

from heatcalc.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402


def _scan(tmp_path, capsys, mixture, grid, verdicts):
    cfg = tmp_path / "scan.json"
    workloads._write_config(cfg, mixture, grid, max_order=4)
    prefix = tmp_path / "scan"
    rc = main(["scan", "--config", str(cfg), "--out", str(prefix)])
    out = workloads.Outcome(
        rc, capsys.readouterr().out, "", 0.0, 0.0, 0, (tmp_path / "scan.csv").read_bytes()
    )
    assert workloads.fd_disagreements(str(cfg), out.csv) == []
    assert workloads._check_scan(out, str(cfg), grid["points"], verdicts) == 0


def test_bimodal_scan_passes_the_gate(tmp_path, capsys):
    grid = dict(workloads.BIMODAL_GRID, points=40)
    _scan(tmp_path, capsys, workloads.BIMODAL, grid, workloads.BIMODAL_VERDICTS)


def test_wide_mixture_scan_passes_the_gate(tmp_path, capsys):
    _scan(
        tmp_path,
        capsys,
        workloads.wide_mixture_components(),
        workloads.WIDE_SCAN_GRID,
        workloads.SCAN_VERDICTS,
    )


def test_wide_mixture_wt_scan_passes_the_gate(tmp_path, capsys):
    cfg = tmp_path / "wt.json"
    workloads._write_config(cfg, workloads.wide_mixture_components(), workloads.WIDE_WT_GRID)
    rc = main(["wt-scan", "--config", str(cfg), "--out", str(tmp_path / "wt")])
    out = workloads.Outcome(
        rc, capsys.readouterr().out, "", 0.0, 0.0, 0, (tmp_path / "wt.csv").read_bytes()
    )
    assert workloads._check_wt(out, workloads.WIDE_WT_GRID["points"]) == 0


def test_certify_commands_pass_the_gate(tmp_path, capsys):
    for command in workloads.prepare("certify", 0, tmp_path):
        rc = main(command.args)
        out = workloads.Outcome(rc, capsys.readouterr().out, "", 0.0, 0.0, 0)
        assert command.check(out) == 0, command.label
