"""The benchmark's workloads: generated inputs, heatcalc commands, output checks.

Each workload turns a seed into input files and a fixed sequence of
``heatcalc`` CLI commands.  Every command carries a check that returns how
many of its operations failed; an operation is one CSV row of ``scan`` or
``wt-scan``, or one whole command.  The checks import heatcalc from the
checkout under test, after the timed commands have run.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

WORKLOADS = ("scan_bimodal", "wide_mixture", "certify")

# demos/configs/bimodal.json: the ROADMAP headline scan
BIMODAL = [(0.5, 0.0, 0.1), (0.5, 10.0, 0.1)]
BIMODAL_GRID = {"start": 0.05, "stop": 100.0, "points": 400, "spacing": "log"}
BIMODAL_VERDICTS = (
    "sign checks: ok",
    "entropy-power/Fisher checks: ok",
    "1/J curvature changes sign: yes (reported)",
    "log J convexity violations beyond noise: 0 (reported)",
)

# wide_mixture: one 16-component draw (Dirichlet(1) weights, U[-20, 20]
# means, log-uniform variances on [1e-2, 1]) from a fixed stream, the same
# in every run.  Its scan cost is chaotic under rounding: listing the same
# components in another order moves the scan from 2269 to 5515 panels and
# from 1.1 to 3.8 s (see README.md), so no seed-driven variant of this
# input is comparable from run to run.
WIDE_DRAW = 0
WIDE_COMPONENTS = 16
WIDE_WT_GRID = {"start": 0.02, "stop": 0.98, "points": 100, "spacing": "linear"}
WIDE_SCAN_GRID = {"start": 0.1, "stop": 100.0, "points": 12, "spacing": "log"}
SCAN_VERDICTS = ("sign checks: ok", "entropy-power/Fisher checks: ok")
WT_VERDICTS = ("h(W_t) concavity: ok", "interpolation inequality: ok")

DERIVE_ORDER = 12


@dataclass
class Outcome:
    """What one CLI command left behind."""

    rc: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_kb: int
    csv: Optional[bytes] = None

    def lines(self) -> List[str]:
        return self.stdout.splitlines()


@dataclass
class Command:
    label: str
    args: List[str]
    ops: int
    check: Callable[[Outcome], int]  # number of failed operations
    csv: Optional[str] = None  # CSV the command writes, relative to the work dir


def _write_config(path: Path, mixture, grid: dict, max_order: Optional[int] = None) -> None:
    payload = {
        "mixture": [{"w": w, "mu": mu, "var": var} for w, mu, var in mixture],
        "t_grid": grid,
    }
    if max_order is not None:
        payload["max_order"] = max_order
    # a fresh file: truncating one that holds data makes ext4 flush it on close
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def wide_mixture_components():
    rng = np.random.default_rng(WIDE_DRAW)
    weights = rng.dirichlet(np.ones(WIDE_COMPONENTS))
    means = rng.uniform(-20.0, 20.0, WIDE_COMPONENTS)
    variances = np.exp(rng.uniform(math.log(1e-2), 0.0, WIDE_COMPONENTS))
    return [(float(w), float(mu), float(v)) for w, mu, v in zip(weights, means, variances)]


def prepare(workload: str, seed: int, work: Path) -> List[Command]:
    """Write the workload's inputs into ``work`` and return its commands.

    Only ``certify`` uses the seed, for its order-4 search starts; the scan
    inputs are fixed because their cost must be comparable between runs.
    """
    if workload == "scan_bimodal":
        cfg = work / "bimodal.json"
        _write_config(cfg, BIMODAL, BIMODAL_GRID, max_order=4)
        return [_scan(cfg, "bimodal", BIMODAL_GRID["points"], BIMODAL_VERDICTS)]
    if workload == "wide_mixture":
        mixture = wide_mixture_components()
        wt_cfg, scan_cfg = work / "wide_wt.json", work / "wide_scan.json"
        _write_config(wt_cfg, mixture, WIDE_WT_GRID)
        _write_config(scan_cfg, mixture, WIDE_SCAN_GRID, max_order=4)
        points = WIDE_WT_GRID["points"]
        wt = Command(
            "wt-scan",
            ["wt-scan", "--config", str(wt_cfg), "--out", "wide_wt"],
            points,
            functools.partial(_check_wt, points=points),
            csv="wide_wt.csv",
        )
        return [wt, _scan(scan_cfg, "wide_scan", WIDE_SCAN_GRID["points"], SCAN_VERDICTS)]
    if workload == "certify":
        commands = [
            Command("derive", ["derive", "--order", str(DERIVE_ORDER)], 1, _check_derive),
            Command("verify-identities", ["verify-identities"], 1, _check_identities),
        ]
        for order in (2, 3, 4):
            commands.append(
                Command(f"certify{order}", ["certify", "--order", str(order)], 1, _check_verified)
            )
        # A single start's work depends on where it starts (order 5 took
        # 7.9-9.8 s over seeds 0-4), so the serial order-5 search always
        # starts from seed 0; the run seed drives the 16 order-4 starts.
        for order, starts, search_seed in ((4, 16, seed), (5, 1, 0)):
            commands.append(
                Command(
                    f"search{order}",
                    ["certify", "--order", str(order), "--search",
                     "--starts", str(starts), "--seed", str(search_seed)],
                    1,
                    functools.partial(_check_search, order=order),
                )
            )
        return commands
    raise ValueError(f"unknown workload {workload!r}")


def _scan(cfg: Path, prefix: str, points: int, verdicts) -> Command:
    return Command(
        "scan",
        ["scan", "--config", str(cfg), "--out", prefix],
        points,
        functools.partial(_check_scan, cfg=str(cfg), points=points, verdicts=verdicts),
        csv=prefix + ".csv",
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _csv_rows(out: Outcome, header: str, points: int) -> Optional[List[List[str]]]:
    if out.csv is None:
        return None
    lines = out.csv.decode().splitlines()
    if not lines or lines[0] != header or len(lines) != points + 1:
        return None
    return [line.split(",") for line in lines[1:]]


def _check_scan(out: Outcome, cfg: str, points: int, verdicts) -> int:
    from heatcalc.oracle import CSV_HEADER

    if out.rc != 0 or any(v not in out.lines() for v in verdicts):
        return points
    rows = _csv_rows(out, CSV_HEADER, points)
    if rows is None:
        return points
    bad = set(fd_disagreements(cfg, out.csv))
    bad.update(i for i, f in enumerate(rows) if f[-2:] != ["1", "1"])
    return len(bad)


@functools.lru_cache(maxsize=None)
def fd_disagreements(cfg: str, csv: bytes) -> List[int]:
    """Rows whose d*_sym misses d*_fd by more than 3 (fd error + 3 tol).

    The fd errors are not in the CSV, so each row's finite differences are
    recomputed here; the recomputed values must also equal the CSV's.
    """
    from heatcalc.cli import load_config
    from heatcalc.oracle import fd_entropy_deriv_result

    config = load_config(cfg)
    tol = config.quad_tol
    bad = []
    for i, line in enumerate(csv.decode().splitlines()[1:]):
        fields = [float(v) for v in line.split(",")[:11]]
        t, d_fd, d_sym = fields[0], fields[3:7], fields[7:11]
        for n in range(1, min(4, config.max_order) + 1):
            value, error = fd_entropy_deriv_result(config.mixture, t, n, tol=tol)
            if value != d_fd[n - 1] or abs(d_sym[n - 1] - value) > 3.0 * (error + 3.0 * tol):
                bad.append(i)
                break
    return bad


def _check_wt(out: Outcome, points: int) -> int:
    from heatcalc.oracle import WT_CSV_HEADER

    if out.rc != 0 or any(v not in out.lines() for v in WT_VERDICTS):
        return points
    rows = _csv_rows(out, WT_CSV_HEADER, points)
    if rows is None:
        return points
    return sum(1 for f in rows if f[-1] != "1")


def _parse_terms(text: str):
    """Split a printed Combination into (coefficient, monomial) strings."""
    terms = []
    for chunk in text.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        negative = chunk.startswith("-")
        body = chunk.lstrip("-")
        head, _, rest = body.partition(" ")
        if head[0].isdigit():
            coeff, mono = head, rest
        else:
            coeff, mono = "1", body
        terms.append((("-" if negative else "") + coeff, mono))
    return terms


def _check_derive(out: Outcome) -> int:
    """Every printed term is canonical, of weight 2 * order, with a rational coefficient."""
    from fractions import Fraction

    from heatcalc.reduction import is_canonical
    from heatcalc.terms import parse_monomial

    lines = out.lines()
    if out.rc != 0 or len(lines) != 1:
        return 1
    try:
        for coeff, text in _parse_terms(lines[0]):
            mono = parse_monomial(text)
            if not Fraction(coeff) or mono.weight != 2 * DERIVE_ORDER or not is_canonical(mono):
                return 1
    except (ValueError, IndexError):
        return 1
    return 0


def _check_identities(out: Outcome) -> int:
    lines = out.lines()
    passed = [line for line in lines[:-1] if line.rstrip().endswith("PASS")]
    ok = out.rc == 0 and len(passed) == 13 and lines[-1:] == ["13/13 identities verified"]
    return 0 if ok else 1


def _check_verified(out: Outcome) -> int:
    return 0 if out.rc == 0 and out.lines() == ["VERIFIED (exact)"] else 1


def _check_search(out: Outcome, order: int) -> int:
    """A returned certificate must pass an independent exact verification."""
    from heatcalc.certificates import certificate_from_json, verify_certificate

    lines = out.lines()
    if out.rc != 0 or not lines or not lines[0].startswith(f"search order {order}: best residual"):
        return 1
    if lines[1:] == ["no exactly-verified certificate found (reported, not asserted)"]:
        # order 4 always succeeds from its built-in seed; order 5 has no known certificate
        return 1 if order == 4 else 0
    if lines[1:2] != ["certificate found and re-verified exactly"]:
        return 1
    try:
        cert = certificate_from_json("\n".join(lines[2:]))
        ok, _ = verify_certificate(cert)
    except (ValueError, KeyError):
        return 1
    return 0 if ok and cert.order == order else 1
