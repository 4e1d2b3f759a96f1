"""Byte-for-byte output of the scan commands on the demo and benchmark inputs.

Each case runs one CLI command, which must pass its verdicts, and pins
the SHA-256 of the CSV it writes and its stdout (with the output path
replaced by ``<out>``); the ``--svg`` cases pin the SHA-256 of every
chart as well.  A refactor that means to change no number must leave every
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


# a sharp Gaussian at tiny flow times, where the flowed variance is 2e-9
TINY = {
    "mixture": [{"w": 1, "mu": 0, "var": 1e-9}],
    "t_grid": {"start": 1e-9, "stop": 1e-3, "points": 12, "spacing": "log"},
    "max_order": 4,
}

# bimodal at small t to order 6, where the jet reaches ratio row 12
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
        "22ac32af3b00d348ac3a66d6107eeef4d9a57fc849072aa59e9b44d107b44ff6",
    ),
    "gaussian": (
        "scan",
        _demo("gaussian.json"),
        SCAN_OUT.format("no (reported)"),
        "caa6ffde3c14219d463759c9cb1ee77d414eb80e4f771d765911d2f889898ab0",
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
        "b0dd1e19fab4ef0d821f3b71d9c501bf302eb7754b9e1c4e663ac7002e6fa381",
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
        "7a64662ee4248aa7a6b22ce690935c998af6113144929a329c68b9b50bf3b6c3",
    ),
    "bimodal_order_6": (
        "scan",
        BIMODAL_ORDER_6,
        SCAN_OUT.format("no (reported)"),
        "c1c647d6a307683bfa2fb41168b91fe638d36fd58a0ad5fbdb16b535a3998e53",
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


# per command with --svg on its demo config, each chart's SHA-256 in the
# order the command writes them
SVGS = {
    "scan": (
        "bimodal",
        {
            "h": "968160c5f8a77c3f5ed208d2b08e023509892a1abbe7202ec30bb8e2ae809f67",
            "h_dd": "89c452ffffaf2e81ee7f22e432da49cef571c82b02852e122f27ede862ac6661",
            "J": "af2e5d1b63da808d1a1632a9a8d5463c70778ce491c587be0b61d9098b4bf0b4",
            "J_dd": "3bafedbb998e1390b028678ea853742405fb6a095d25dfd46a76825ab3d8e976",
            "invJ": "f9a3b5462c4d2510ece24fb5d1ea59780f4c5a8f5e1b40dc6ef50f6961ef5ff4",
            "invJ_dd": "1ae79b9b31b4466270d0d67537023221ba751d62b5186266031850c383d933a9",
            "logJ": "b792ebbc41a7fdf788b5838a789c232e5617629d58d60d3d04d6b3414e57f9f4",
            "logJ_dd": "1cbc6c762833e47c5b0493fcdd4bc99b8cd9eec0d3be8d34016a5bfb634a087f",
        },
    ),
    "wt-scan": (
        "wt_bimodal",
        {
            "hW": "f74ee13fe416ac2f6bb04c004a3581b8f8dd9c11a3575aa3c93bb929690b1563",
            "JW": "812ea566a9a2b4fccf2b62aee6b3958186e68adabf3e508c445ee3193994af98",
            "hW_dd": "aeb29060190fbcf8607ab08bc4a7f9c3144cb270a374ba42a9d091bff75fe251",
            "JW_dd": "e6d3d884990db8d04e914796a111d502926fd9bc7ba91fe22c44b33ce963c583",
        },
    ),
}


@pytest.mark.parametrize("command", SVGS)
def test_svg_bytes_are_pinned(command, tmp_path, capsys):
    name, charts = SVGS[command]
    _, payload, stdout, digest = CASES[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    prefix = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(prefix), "--svg"]) == 0
    out = capsys.readouterr().out.replace(str(prefix), "<out>")
    head, verdicts = stdout.split("\n", 1)
    assert out == head + "\n" + "".join(f"wrote <out>_{c}.svg\n" for c in charts) + verdicts
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest
    for chart, chart_digest in charts.items():
        svg = (tmp_path / f"out_{chart}.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == chart_digest, chart
