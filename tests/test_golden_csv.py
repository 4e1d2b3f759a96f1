"""Byte-for-byte output of the scan commands on the demo and benchmark inputs.

Each case runs one CLI command, which must pass its verdicts, and pins
the SHA-256 of the CSV it writes and its stdout (with the output path
replaced by ``<out>``).  A refactor that means to change no number must leave every
digest as it is; a change that moves a value on purpose updates the
digest and says which columns moved and by how much.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from heatcalc.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402

CONFIGS = ROOT / "demos" / "configs"
SCAN_OUT = (
    "wrote <out>.csv\n"
    "sign checks: ok\n"
    "entropy-power/Fisher checks: ok\n"
    "1/J curvature changes sign: {}\n"
    "log J convexity violations beyond noise: 0 (reported)\n"
)
WT_OUT = (
    "wrote <out>.csv\n"
    "h(W_t) concavity: ok\n"
    "interpolation inequality: ok\n"
    "J(W_t) curvature changes sign: yes (reported)\n"
)


def _demo(name):
    return json.loads((CONFIGS / name).read_text())


def _wide(grid, max_order=None):
    payload = {
        "mixture": [
            {"w": w, "mu": mu, "var": var} for w, mu, var in workloads.wide_mixture_components()
        ],
        "t_grid": grid,
    }
    if max_order is not None:
        payload["max_order"] = max_order
    return payload


# a sharp Gaussian at tiny flow times, where every fd step is clamped to
# 0.9 t / reach
TINY = {
    "mixture": [{"w": 1, "mu": 0, "var": 1e-9}],
    "t_grid": {"start": 1e-9, "stop": 1e-3, "points": 12, "spacing": "log"},
    "max_order": 4,
}

# bimodal at small t, where the 0.9 t / reach clamp gives the orders
# different fd steps
BIMODAL_ORDER_6 = dict(
    _demo("bimodal.json"),
    t_grid={"start": 0.001, "stop": 1.0, "points": 40, "spacing": "log"},
    max_order=6,
)

CASES = {
    "bimodal": (
        "scan",
        _demo("bimodal.json"),
        SCAN_OUT.format("yes (reported)"),
        "1bf96e4879954937b2ceb023e20cfb16ae2204af4114d17d750650bf14bcc956",
    ),
    "gaussian": (
        "scan",
        _demo("gaussian.json"),
        SCAN_OUT.format("no (reported)"),
        "43aecce87394fc3bad112f5ca845986ca70aad255aae0a7bd0069e738c1c7c45",
    ),
    "wt_bimodal": (
        "wt-scan",
        _demo("wt_bimodal.json"),
        WT_OUT,
        "2bed60db3f777d998e35fa21ee587621970240d8dda3823857a06ed24ac8e691",
    ),
    "wide_scan": (
        "scan",
        _wide(workloads.WIDE_SCAN_GRID, 4),
        SCAN_OUT.format("yes (reported)"),
        "9201fe444ae8a982ce82f65487a0cb43ee49f0a147170a948c657e021c515d2c",
    ),
    "wide_wt": (
        "wt-scan",
        _wide(workloads.WIDE_WT_GRID),
        WT_OUT,
        "3589d2fe31ed2ff4cf7374a3e943828444acc4e012116719e1805311db68c707",
    ),
    "tiny": (
        "scan",
        TINY,
        SCAN_OUT.format("no (reported)"),
        "bce61a43266d72d7a17f114b1735725f477cf68d996a18b70ca5a5b61d4a1559",
    ),
    "bimodal_order_6": (
        "scan",
        BIMODAL_ORDER_6,
        SCAN_OUT.format("no (reported)"),
        "931af54c9b544475e8530d53208b0700d43ae61b9b4969c6a3f65aed2c5f9c93",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_output_bytes_are_pinned(name, tmp_path, capsys):
    command, payload, stdout, digest = CASES[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    prefix = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(prefix)]) == 0
    out = capsys.readouterr().out.replace(str(prefix), "<out>")
    csv = (tmp_path / "out.csv").read_bytes()
    assert out == stdout
    assert hashlib.sha256(csv).hexdigest() == digest
