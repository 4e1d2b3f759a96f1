"""Command-line front end.

Subcommands:

* ``derive --order N``        print the canonical integrand of 2 d^N h/dt^N
* ``verify-identities``       check the thirteen IBP identities exactly
* ``certify --order N``       verify a certificate (built-in, file, or search)
* ``scan --config FILE``      sweep a t-grid, write the conjecture-scan CSV
* ``wt-scan --config FILE``   concavity checks for sqrt(t) X + sqrt(1-t) Z

Exit codes: 0 all asserted checks pass, 2 a check failed, 1 usage or
configuration error.  Every exit-1 condition is a ``ConfigError`` whose
message names the offending option or field; ``main`` alone prints it and
returns 1.  Scans read a JSON experiment config and write CSV (and
optional SVG polyline plots); identical configs produce byte-identical CSV
output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence

# numpy and the numeric layers are imported by the functions that use them,
# so derive, verify-identities and certify without --search never load
# numpy; the certificate code is imported by certify alone.
from .reduction import entropy_derivative, reduce, verify_ibp_identities
from .terms import d_dt

if TYPE_CHECKING:
    import numpy as np

    from .mixtures import GaussianMixture


class ConfigError(ValueError):
    """A usage or configuration error; the message names the option or field.

    Commands raise it for every exit-1 condition; ``main`` prints it and returns 1.
    """


@dataclass
class ExperimentConfig:
    mixture: GaussianMixture
    t_start: float
    t_stop: float
    t_points: int
    quad_tol: float
    t_spacing: str = "linear"
    max_order: int = 4
    output: Optional[str] = None

    def grid(self) -> np.ndarray:
        from .oracle import time_grid

        return time_grid(self.t_start, self.t_stop, self.t_points, self.t_spacing)


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"config error at {where}: {message}")


def _is_number(value, kind=(int, float)) -> bool:
    """A JSON number of the given kind whose float is finite.

    JSON booleans are Python ints but not numbers; Python's ``json`` reads
    NaN, Infinity and 1e400 as non-finite floats, and an integer of
    hundreds of digits has no float at all.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    from .mixtures import GaussianMixture
    from .oracle import DEFAULT_TOL

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config error in {source}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:  # an integer past Python's digit limit for int()
        raise ConfigError(f"config error in {source}: {exc}")

    _require(isinstance(payload, dict), "<root>", "expected a JSON object")
    mixture = payload.get("mixture")
    _require(isinstance(mixture, list) and mixture, "mixture", "expected a nonempty list")
    comps = []
    for i, entry in enumerate(mixture):
        where = f"mixture[{i}]"
        _require(isinstance(entry, dict), where, "expected an object")
        for key in ("w", "mu", "var"):
            _require(key in entry, f"{where}.{key}", "missing")
            _require(_is_number(entry[key]), f"{where}.{key}", "expected a finite number")
        _require(entry["w"] > 0, f"{where}.w", "must be > 0")
        _require(entry["var"] > 0, f"{where}.var", "must be > 0")
        comps.append((float(entry["w"]), float(entry["mu"]), float(entry["var"])))
    try:
        mix = GaussianMixture.create(comps)
    except ValueError as exc:
        raise ConfigError(f"config error at mixture: {exc}")

    grid = payload.get("t_grid")
    _require(isinstance(grid, dict), "t_grid", "expected an object")
    for key in ("start", "stop", "points"):
        _require(key in grid, f"t_grid.{key}", "missing")
    start, stop, points = grid["start"], grid["stop"], grid["points"]
    for key in ("start", "stop"):
        _require(_is_number(grid[key]), f"t_grid.{key}", "expected a finite number")
    _require(start > 0, "t_grid.start", "must be > 0")
    _require(stop > start, "t_grid.stop", "must be > start")
    _require(_is_number(points, int) and points >= 3, "t_grid.points", "must be an int >= 3")
    spacing = grid.get("spacing", "linear")
    _require(spacing in ("linear", "log"), "t_grid.spacing", "must be 'linear' or 'log'")

    max_order = payload.get("max_order", 4)
    _require(
        _is_number(max_order, int) and 1 <= max_order <= 6,
        "max_order",
        "must be an int in 1..6",
    )

    quad_tol = DEFAULT_TOL
    tolerances = payload.get("tolerances", {})
    if tolerances:
        _require(isinstance(tolerances, dict), "tolerances", "expected an object")
        if "quad" in tolerances:
            quad = tolerances["quad"]
            _require(_is_number(quad), "tolerances.quad", "expected a finite number")
            _require(quad > 0, "tolerances.quad", "must be > 0")
            quad_tol = float(quad)

    output = payload.get("output")
    if output is not None:
        _require(isinstance(output, str), "output", "expected a string")

    return ExperimentConfig(
        mixture=mix,
        t_start=float(start),
        t_stop=float(stop),
        t_points=points,
        t_spacing=spacing,
        max_order=max_order,
        quad_tol=quad_tol,
        output=output,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text, source=path)


# ---------------------------------------------------------------------------
# SVG polyline charts
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 840, 520
_MARGIN = 60.0
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def polyline_chart(
    x: Sequence[float],
    series: Dict[str, Sequence[float]],
    title: str = "",
    logx: bool = False,
) -> str:
    """A minimal self-contained SVG line chart (finite points only)."""
    import numpy as np

    xv = np.asarray(x, dtype=float)
    if logx:
        xv = np.log10(xv)
    plot_w = _SVG_W - 2 * _MARGIN
    plot_h = _SVG_H - 2 * _MARGIN

    all_y = np.concatenate(
        [np.asarray(v, dtype=float)[np.isfinite(np.asarray(v, dtype=float))] for v in series.values()]
    )
    if all_y.size == 0:
        all_y = np.array([0.0, 1.0])
    ylo, yhi = float(np.min(all_y)), float(np.max(all_y))
    if yhi == ylo:
        yhi = ylo + 1.0
    xlo, xhi = float(np.min(xv)), float(np.max(xv))
    if xhi == xlo:
        xhi = xlo + 1.0

    def sx(v: float) -> float:
        return _MARGIN + (v - xlo) / (xhi - xlo) * plot_w

    def sy(v: float) -> float:
        return _SVG_H - _MARGIN - (v - ylo) / (yhi - ylo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_MARGIN}" y="{_SVG_H - _MARGIN + 18:.1f}" font-size="11">'
        f'{"1e" if logx else ""}{xlo:.4g}</text>',
        f'<text x="{_SVG_W - _MARGIN:.1f}" y="{_SVG_H - _MARGIN + 18:.1f}" '
        f'text-anchor="end" font-size="11">{"1e" if logx else ""}{xhi:.4g}</text>',
        f'<text x="{_MARGIN - 6:.1f}" y="{_SVG_H - _MARGIN:.1f}" text-anchor="end" '
        f'font-size="11">{ylo:.4g}</text>',
        f'<text x="{_MARGIN - 6:.1f}" y="{_MARGIN + 4:.1f}" text-anchor="end" '
        f'font-size="11">{yhi:.4g}</text>',
    ]
    if ylo < 0 < yhi:
        parts.append(
            f'<line x1="{_MARGIN}" y1="{sy(0.0):.2f}" x2="{_SVG_W - _MARGIN}" '
            f'y2="{sy(0.0):.2f}" stroke="#cccccc" stroke-dasharray="4 3"/>'
        )
    for idx, (label, values) in enumerate(series.items()):
        vals = np.asarray(values, dtype=float)
        pts = [
            f"{sx(xi):.2f},{sy(yi):.2f}"
            for xi, yi in zip(xv, vals)
            if math.isfinite(yi)
        ]
        color = _COLORS[idx % len(_COLORS)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(pts)}"/>'
        )
        parts.append(
            f'<text x="{_SVG_W - _MARGIN:.1f}" y="{_MARGIN + 16 * idx:.1f}" '
            f'text-anchor="end" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_svgs(
    prefix: Path, ts: Sequence[float], series: Dict[str, Sequence[float]], logx: bool
) -> None:
    """One chart per named series, at ``<prefix>_<name>.svg``, in order."""
    for name, values in series.items():
        path = prefix.with_name(prefix.name + f"_{name}.svg")
        path.write_text(polyline_chart(ts, {name: values}, title=name, logx=logx))
        print(f"wrote {path}")


def _write_csv(prefix: Path, text: str) -> None:
    path = prefix.with_name(prefix.name + ".csv")
    path.write_text(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _print_reduction_trace(order: int) -> None:
    """The rewrites that reduce d/dt C_{order-1} to C_order, one per line, on stderr."""
    if order == 1:
        print("C_1 = f1^2/f is the starting form; nothing to reduce", file=sys.stderr)
        return
    _, trace = reduce(d_dt(entropy_derivative(order - 1)), trace=True)
    print(f"reduce d/dt C_{order - 1}: {len(trace.steps)} rewrites", file=sys.stderr)
    for i, step in enumerate(trace.steps, 1):
        print(f"{i}: {step.target}  [{step.rule}]  ->  {step.replacement}", file=sys.stderr)


def _cmd_derive(args) -> int:
    if args.order < 1:
        raise ConfigError("derive: --order must be >= 1")
    if args.trace:
        _print_reduction_trace(args.order)
    print(entropy_derivative(args.order))
    return 0


def _cmd_verify_identities(args) -> int:
    report = verify_ibp_identities()
    width = max(len(chk.label) for chk in report)
    ok = True
    for chk in report:
        status = "PASS" if chk.passed else f"FAIL residual {chk.residual}"
        print(f"{chk.label:<{width}}  {status}")
        ok = ok and chk.passed
    print(f"{sum(c.passed for c in report)}/{len(report)} identities verified")
    return 0 if ok else 2


def _cmd_certify(args) -> int:
    from .certificates import (
        builtin_certificate,
        certificate_from_json,
        certificate_to_json,
        search_certificate,
        verify_certificate,
    )

    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ConfigError(f"certify: --out {args.out}: not a file path in an existing directory")
    if args.search:
        if args.order < 2:
            raise ConfigError("certify: --search needs --order >= 2")
        if args.starts < 1:
            raise ConfigError("certify: --starts must be >= 1")
        if args.seed < 0:
            raise ConfigError("certify: --seed must be >= 0")
        outcome = search_certificate(args.order)
        if outcome.breakdown is None:
            where, verdict = f"best residual {outcome.best_residual:.3e}, Gram margin t*", ""
        else:
            where = f"central path broke down at mu {outcome.breakdown:.3e}, t"
            verdict = "; undecided"
        if outcome.witness is not None:
            verdict = "; Farkas witness verified exactly"
        print(f"search order {args.order}: {where} {outcome.margin:.3e}{verdict}")
        if outcome.certificate is None:
            print("no exactly-verified certificate found (reported, not asserted)")
            return 0
        print("certificate found and re-verified exactly")
        cert = outcome.certificate
        if not args.out:
            print(certificate_to_json(cert))
    else:
        try:
            if args.cert:
                cert = certificate_from_json(Path(args.cert).read_text())
            else:
                cert = builtin_certificate(args.order)
            # a file of another order is refused below, before any verdict
            if cert.order == args.order:
                ok, residual = verify_certificate(cert)
        except (OSError, ValueError) as exc:
            where = f"--cert {args.cert}: " if args.cert else ""
            raise ConfigError(f"certify: {where}{exc}") from exc
        if cert.order != args.order:
            raise ConfigError(f"certify: file is order {cert.order}, not {args.order}")
        if not ok:
            print(f"FAILED, residual: {residual}")
            return 2
        print("VERIFIED (exact)")
    if args.out:
        # the path was checked before any work
        try:
            Path(args.out).write_text(certificate_to_json(cert))
        except OSError as exc:
            raise ConfigError(f"certify: --out {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    return 0


def _output_prefix(command: str, out: Optional[str], default: str) -> Path:
    """The output prefix, its directory made; a ``ConfigError`` if it cannot take the files.

    Checked before any work, so a bad path fails at once and not after a
    whole scan.
    """
    prefix = Path(out or default)
    csv_path = prefix.with_name(prefix.name + ".csv")
    try:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        if csv_path.is_dir():
            raise IsADirectoryError(f"{csv_path} is a directory")
        if not os.access(csv_path.parent, os.W_OK):
            raise PermissionError(f"{csv_path.parent} is not writable")
    except OSError as exc:
        where = f"--out {out}" if out else f"output {default}"
        raise ConfigError(f"{command}: {where}: {exc}") from exc
    return prefix


def _in_range(run, *args):
    """``run(*args)``, a ``FlowRangeError`` raised again as a ``ConfigError`` at its field.

    That is the component's parameter at fault, or else the grid end at t:
    a flow time leaves float64's range only when tiny or huge, and
    wt-scan's t in (0, 1) only at its start, where s = 1/t - 1 is huge.
    """
    from .oracle import FlowRangeError

    try:
        return run(*args)
    except FlowRangeError as exc:
        if exc.component is not None:
            field = f"mixture[{exc.component}].{exc.parameter}"
        else:
            field = "t_grid.start" if exc.t < 1.0 else "t_grid.stop"
        raise ConfigError(f"config error at {field}: {exc}") from exc


def _print_inconclusive(rows: int) -> None:
    """After the verdict lines, the number of rows that numerical trouble left inconclusive."""
    if rows:
        print(f"inconclusive rows: {rows} (quadrature stopped short or not finite; reported)")


def _cmd_scan(args) -> int:
    import numpy as np

    from .oracle import scan_conjectures, scan_to_csv, second_difference

    config = load_config(args.config)
    prefix = _output_prefix("scan", args.out, config.output or "scan")
    result = _in_range(
        scan_conjectures, config.mixture, config.grid(), config.max_order, config.quad_tol
    )
    _write_csv(prefix, scan_to_csv(result))
    if args.svg:
        ts, h, j = result.ts(), result.column("h"), result.column("J")
        series = {}
        for name, values in zip(("h", "J", "invJ", "logJ"), (h, j, 1.0 / j, np.log(j))):
            series[name] = values
            series[f"{name}_dd"] = second_difference(ts, values)[0]
        _write_svgs(prefix, ts, series, logx=config.t_spacing == "log")

    signs = result.all_signs_ok()
    costa = result.all_costa_ok()
    both = result.invJ_dd_has_both_signs()
    logj = result.logJ_convexity_violations()
    print(f"sign checks: {'ok' if signs else 'FAILED'}")
    print(f"entropy-power/Fisher checks: {'ok' if costa else 'FAILED'}")
    print(f"1/J curvature changes sign: {'yes' if both else 'no'} (reported)")
    print(f"log J convexity violations beyond noise: {logj} (reported)")
    _print_inconclusive(result.inconclusive_rows())
    return 0 if signs and costa else 2


def _cmd_wt_scan(args) -> int:
    from .oracle import wt_checks, wt_to_csv

    config = load_config(args.config)
    if config.t_stop >= 1.0:
        raise ConfigError("config error at t_grid.stop: wt-scan needs the grid inside (0, 1)")
    prefix = _output_prefix("wt-scan", args.out, config.output or "wt_scan")
    report = _in_range(wt_checks, config.mixture, config.grid(), config.quad_tol)
    _write_csv(prefix, wt_to_csv(report))
    if args.svg:
        series = {
            name: [getattr(r, name) for r in report.rows] for name in ("hW", "JW", "hW_dd", "JW_dd")
        }
        _write_svgs(prefix, [r.t for r in report.rows], series, logx=False)

    concave = report.concavity_ok()
    txz = report.txz_ok()
    both = report.jw_dd_has_both_signs()
    print(f"h(W_t) concavity: {'ok' if concave else 'FAILED'}")
    print(f"interpolation inequality: {'ok' if txz else 'FAILED'}")
    print(f"J(W_t) curvature changes sign: {'yes' if both else 'no'} (reported)")
    _print_inconclusive(report.inconclusive_rows())
    return 0 if concave and txz else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatcalc",
        description="Canonical entropy derivatives along the Gaussian heat flow: "
        "exact forms, sign certificates, and numerical cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print the canonical integrand of 2 d^n h/dt^n")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--trace", action="store_true", help="print the final reduction's rewrites to stderr"
    )
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("verify-identities", help="check the 13 IBP identities exactly")
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("certify", help="verify or search sign certificates")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--cert", help="certificate JSON file (default: built-in)")
    p.add_argument("--search", action="store_true", help="exact certificate or Farkas witness")
    p.add_argument("--starts", type=int, default=64, help="no longer affects the search")
    p.add_argument("--seed", type=int, default=0, help="no longer affects the search")
    p.add_argument("--out", help="write the verified or found certificate JSON here")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("scan", help="conjecture scan over a t-grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output prefix (default from config or 'scan')")
    p.add_argument("--svg", action="store_true", help="also write SVG line plots")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("wt-scan", help="concavity checks for sqrt(t)X + sqrt(1-t)Z")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output prefix (default from config or 'wt_scan')")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_wt_scan)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the one place that prints a ``ConfigError`` and returns 1."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        # a reader that left early shows up here, not in the interpreter's
        # final flush
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the final
        # flush at exit does not fail again (the Python docs' recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
