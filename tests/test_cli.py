"""CLI behavior: output formats, exit codes, config diagnostics, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heatcalc
from heatcalc.certificates import (
    builtin_certificate,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)
from heatcalc import cli, oracle, quadrature
from heatcalc.cli import main, parse_config, ConfigError
from test_oracle import c2_capped, capped, nan_at, wide_mixture  # noqa: F401 (fixtures)

ROOT = Path(__file__).resolve().parents[1]

SMALL_SCAN = {
    "mixture": [
        {"w": 0.5, "mu": 0.0, "var": 0.1},
        {"w": 0.5, "mu": 10.0, "var": 0.1},
    ],
    "t_grid": {"start": 0.05, "stop": 100, "points": 12, "spacing": "log"},
    "max_order": 2,
}

WT_SCAN = {
    "mixture": [{"w": 1.0, "mu": 0.0, "var": 1.0}],
    "t_grid": {"start": 0.1, "stop": 0.9, "points": 9, "spacing": "linear"},
}

# two unit components whose means, 1e300 apart, make a window where every |z|**2 overflows
FAR_MEANS = [{"w": 0.5, "mu": 1e300, "var": 1}, {"w": 0.5, "mu": 0, "var": 1}]


class TestDerive:
    def test_order3_golden_line(self, capsys):
        assert main(["derive", "--order", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "f3^2/f^1 + f2^3/f^2 - 3 f1^2 f2^2/f^3 + 6/5 f1^6/f^5"

    def test_order1(self, capsys):
        assert main(["derive", "--order", "1"]) == 0
        assert capsys.readouterr().out.strip() == "f1^2/f^1"

    def test_order4_coefficients_present(self, capsys):
        assert main(["derive", "--order", "4"]) == 0
        out = capsys.readouterr().out
        assert "90/7 f1^8/f^7" in out and "-f4^2/f^1" in out

    def test_bad_order(self):
        assert main(["derive", "--order", "0"]) == 1

    def test_trace_goes_to_stderr(self, capsys):
        assert main(["derive", "--order", "3", "--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "f3^2/f^1 + f2^3/f^2 - 3 f1^2 f2^2/f^3 + 6/5 f1^6/f^5\n"
        lines = captured.err.splitlines()
        assert lines[0] == "reduce d/dt C_2: 4 rewrites"
        assert lines[1:] == [
            "1: f2 f4/f^1  [ibp(top=f4)]  ->  -f3^2/f^1 + f1 f2 f3/f^2",
            "2: f1^3 f3/f^3  [ibp(top=f3)]  ->  -3 f1^2 f2^2/f^3 + 3 f1^4 f2/f^4",
            "3: f1 f2 f3/f^2  [ibp(top=f3)]  ->  -1/2 f2^3/f^2 + f1^2 f2^2/f^3",
            "4: f1^4 f2/f^4  [ibp(top=f2)]  ->  4/5 f1^6/f^5",
        ]

    def test_trace_of_order1(self, capsys):
        assert main(["derive", "--order", "1", "--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "f1^2/f^1\n"
        assert "nothing to reduce" in captured.err


class TestVerifyIdentities:
    def test_full_table(self, capsys):
        assert main(["verify-identities"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 13
        assert "13/13 identities verified" in out


class TestCertify:
    @pytest.mark.parametrize("order", ["2", "3", "4"])
    def test_builtin_orders(self, order, capsys):
        assert main(["certify", "--order", order]) == 0
        assert "VERIFIED (exact)" in capsys.readouterr().out

    def test_certificate_file(self, tmp_path, capsys):
        path = tmp_path / "order4.json"
        path.write_text(certificate_to_json(builtin_certificate(4)))
        assert main(["certify", "--order", "4", "--cert", str(path)]) == 0
        assert "VERIFIED (exact)" in capsys.readouterr().out

    def test_corrupted_certificate_fails_with_exit_2(self, tmp_path, capsys):
        payload = json.loads(certificate_to_json(builtin_certificate(3)))
        payload["remainder"] = [["f1^6/f^5", "1/44"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["certify", "--order", "3", "--cert", str(path)]) == 2
        assert "FAILED" in capsys.readouterr().out

    def test_order_mismatch_is_usage_error(self, tmp_path):
        path = tmp_path / "order3.json"
        path.write_text(certificate_to_json(builtin_certificate(3)))
        assert main(["certify", "--order", "4", "--cert", str(path)]) == 1

    def test_no_builtin_for_order_5(self):
        assert main(["certify", "--order", "5"]) == 1

    def test_search_writes_certificate(self, tmp_path, capsys):
        out_path = tmp_path / "found.json"
        code = main(
            [
                "certify",
                "--order",
                "3",
                "--search",
                "--starts",
                "2",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        assert "re-verified exactly" in capsys.readouterr().out


    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_order4_search_finds_verified_certificate(self, tmp_path, capsys, seed):
        out_path = tmp_path / "found.json"
        argv = ["certify", "--order", "4", "--search", "--starts", "16", "--seed", str(seed)]
        assert main([*argv, "--out", str(out_path)]) == 0
        assert "re-verified exactly" in capsys.readouterr().out
        cert = certificate_from_json(out_path.read_text())
        assert cert.order == 4
        ok, _ = verify_certificate(cert)
        assert ok

    @pytest.mark.parametrize("source", ["builtin", "file"])
    def test_out_without_search_writes_the_verified_certificate(self, tmp_path, capsys, source):
        cert = builtin_certificate(4)
        argv = ["certify", "--order", "4", "--out", str(tmp_path / "out.json")]
        if source == "file":
            (tmp_path / "in.json").write_text(certificate_to_json(cert))
            argv += ["--cert", str(tmp_path / "in.json")]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "VERIFIED (exact)",
            f"wrote {tmp_path / 'out.json'}",
        ]
        assert (tmp_path / "out.json").read_text() == certificate_to_json(cert)

    def test_out_without_search_checks_its_path_first(self, tmp_path, capsys):
        argv = ["certify", "--order", "4", "--out", str(tmp_path / "missing" / "x.json")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("certify: --out ")
        assert captured.out == ""

    def test_order5_search_ends_in_a_verified_witness(self, capsys):
        argv = ["certify", "--order", "5", "--search", "--starts", "1", "--seed", "0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("search order 5: best residual")
        assert lines[0].endswith("Farkas witness verified exactly")
        assert lines[1] == "no exactly-verified certificate found (reported, not asserted)"

    def test_order7_search_ends_undecided_without_a_traceback(self, capsys):
        # the central path's Cholesky fails at mu 3.3e-11, in about 1.7 s
        assert main(["certify", "--order", "7", "--search"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("search order 7: central path broke down at mu 3.277e-11, t ")
        assert lines[0].endswith("; undecided")
        assert lines[1] == "no exactly-verified certificate found (reported, not asserted)"

    @pytest.mark.parametrize("starts", ["0", "-2"])
    def test_search_needs_at_least_one_start(self, starts, capsys):
        code = main(["certify", "--order", "4", "--search", "--starts", starts])
        assert code == 1
        assert "certify: --starts must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case,needle",
        [
            ("wrong-sign", "sign must be 1 for order 3"),
            ("not-an-object", "certificate JSON must be an object"),
            ("negative-seed", "--seed must be >= 0"),
            ("missing-out-dir", "--out"),
        ],
    )
    def test_bad_input_exits_1_without_traceback(self, tmp_path, capsys, case, needle):
        payload = json.loads(certificate_to_json(builtin_certificate(3)))
        payload["sign"] = -1
        files = {"wrong-sign": json.dumps(payload), "not-an-object": "[1]"}
        argv = {
            "wrong-sign": ["--order", "3", "--cert", str(tmp_path / "cert.json")],
            "not-an-object": ["--order", "3", "--cert", str(tmp_path / "cert.json")],
            "negative-seed": ["--order", "4", "--search", "--seed", "-1"],
            "missing-out-dir": [
                "--order", "4", "--search", "--out", str(tmp_path / "missing" / "x.json")
            ],
        }[case]
        if case in files:
            (tmp_path / "cert.json").write_text(files[case])
        assert main(["certify", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("certify: ")
        assert needle in captured.err
        assert captured.out == ""  # rejected before any search or verdict


class TestConfigParsing:
    def test_valid(self):
        cfg = parse_config(json.dumps(SMALL_SCAN))
        assert cfg.t_points == 12
        assert cfg.t_spacing == "log"
        assert len(cfg.mixture.components) == 2

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.update(mixture=[]), "mixture"),
            (lambda d: d["mixture"][0].update(w=-1), "mixture[0].w"),
            (lambda d: d["mixture"][0].pop("var"), "mixture[0].var"),
            (lambda d: d["t_grid"].pop("points"), "t_grid.points"),
            (lambda d: d["t_grid"].update(start=0), "t_grid.start"),
            (lambda d: d["t_grid"].update(spacing="cubic"), "t_grid.spacing"),
            (lambda d: d.update(max_order=9), "max_order"),
            # a misspelt field would otherwise run with its default
            (lambda d: d.update(max_ordr=6), "at max_ordr: unknown field"),
            (lambda d: d.update(tolerance={"quad": 1e-9}), "at tolerance: unknown field"),
            (lambda d: d["mixture"][0].update(wieght=0.5), "at mixture[0].wieght: unknown field"),
            (lambda d: d["t_grid"].update(spacnig="log"), "at t_grid.spacnig: unknown field"),
            (lambda d: d.update(tolerances={"qaud": 1e-9}), "at tolerances.qaud: unknown field"),
            (lambda d: d.update(tolerances=[]), "at tolerances: expected an object"),
            (lambda d: d.update(tolerances=0), "at tolerances: expected an object"),
        ],
    )
    def test_field_diagnostics(self, mutate, needle):
        import re

        payload = json.loads(json.dumps(SMALL_SCAN))
        mutate(payload)
        with pytest.raises(ConfigError, match=re.escape(needle)):
            parse_config(json.dumps(payload))

    def test_invalid_json_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{\n  broken\n}")


def _wide_and_narrow(var, narrow=1.0, max_order=4):
    """Two centred components of variances ``var`` and ``narrow`` on t = 0.1 ... 0.9."""
    return {
        "mixture": [{"w": 0.5, "mu": 0, "var": var}, {"w": 0.5, "mu": 0, "var": narrow}],
        "t_grid": {"start": 0.1, "stop": 0.9, "points": 9},
        "max_order": max_order,
    }


def _put(field, literal):
    """A mutation that writes the JSON number ``literal`` at ``field`` and returns the config text."""

    def mutate(payload):
        holders = {
            "mixture[0]": payload["mixture"][0],
            "t_grid": payload["t_grid"],
            "tolerances": payload.setdefault("tolerances", {}),
        }
        where, key = field.rsplit(".", 1)
        holders[where][key] = "@@"
        return json.dumps(payload).replace('"@@"', literal)

    return mutate


class TestScanCommand:
    def test_scan_writes_csv_and_passes(self, tmp_path, capsys):
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps(SMALL_SCAN))
        prefix = tmp_path / "out"
        assert main(["scan", "--config", str(cfg), "--out", str(prefix)]) == 0
        csv_text = (tmp_path / "out.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header.startswith("t,h,J,d1_fd")
        assert len(csv_text.splitlines()) == 13
        assert "inconclusive rows" not in capsys.readouterr().out

    def test_rows_with_a_stopped_short_tree_are_reported(self, tmp_path, capsys, capped):
        # with every tree capped at 45 panels, the 16-component draw's C_4
        # trees (49 and 46 panels) stop short at its first two flow times;
        # their d4_sym verdicts are inconclusive, which leaves the CSV's
        # verdict columns and the verdict lines as they were
        payload = {
            "mixture": [{"w": w, "mu": mu, "var": v} for w, mu, v in wide_mixture().components],
            "t_grid": {"start": 0.1, "stop": 100, "points": 12, "spacing": "log"},
            "max_order": 4,
        }
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(payload))
        with pytest.warns(UserWarning) as caught:
            rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "wide")])
        assert rc == 0
        assert [str(w.message).split(" at ")[0] for w in caught] == ["mesh refinement for C_4"] * 2
        assert capsys.readouterr().out.splitlines()[1:] == [
            "sign checks: ok",
            "entropy-power/Fisher checks: ok",
            "1/J curvature changes sign: yes (reported)",
            "log J convexity violations beyond noise: 0 (reported)",
            "inconclusive rows: 2 (quadrature stopped short or not finite; reported)",
        ]
        rows = (tmp_path / "wide.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-2:] for row in rows] == [["1", "1"]] * 12

    def test_a_stopped_short_C2_tree_leaves_costa_inconclusive(self, tmp_path, capsys, c2_capped):
        # at max_order 1 only -J' >= J^2 rests on C_2, whose trees at the
        # 5th and 6th times stop short: that verdict is withheld, not passed
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps(dict(SMALL_SCAN, max_order=1)))
        with pytest.warns(quadrature.QuadratureNonConvergence, match="C_2 at t="):
            rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2] == "entropy-power/Fisher checks: ok"
        assert out[-1] == "inconclusive rows: 2 (quadrature stopped short or not finite; reported)"
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-2] for row in rows] == ["1"] * 12

    def test_a_nan_margin_does_not_fail_the_scan(self, tmp_path, capsys, monkeypatch):
        t = float(np.geomspace(0.05, 100, 12)[5])
        nan_at(monkeypatch, "C_2", t)
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps(SMALL_SCAN))
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2] == "entropy-power/Fisher checks: ok"
        assert out[-1] == "inconclusive rows: 1 (quadrature stopped short or not finite; reported)"

    def test_scan_csv_deterministic(self, tmp_path):
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps(SMALL_SCAN))
        main(["scan", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["scan", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_scan_svg_outputs(self, tmp_path):
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps(SMALL_SCAN))
        prefix = tmp_path / "plots"
        assert main(["scan", "--config", str(cfg), "--out", str(prefix), "--svg"]) == 0
        for name in ("h", "J", "invJ", "logJ"):
            assert (tmp_path / f"plots_{name}.svg").exists()
            assert (tmp_path / f"plots_{name}_dd.svg").exists()
        text = (tmp_path / "plots_invJ.svg").read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"mixture": "nope"}')
        assert main(["scan", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,mutate",
        [
            ("mixture[0].w", lambda d: d["mixture"][0].update(w=True)),
            ("mixture[0].mu", lambda d: d["mixture"][0].update(mu=False)),
            ("mixture[0].var", lambda d: d["mixture"][0].update(var=True)),
            ("t_grid.start", lambda d: d["t_grid"].update(start=True)),
            ("t_grid.stop", lambda d: d["t_grid"].update(stop=True)),
            ("t_grid.points", lambda d: d["t_grid"].update(points=True)),
            ("max_order", lambda d: d.update(max_order=True)),
            ("tolerances.quad", lambda d: d.update(tolerances={"quad": True})),
            ("tolerances.quad", lambda d: d.update(tolerances={"quad": "abc"})),
        ]
        # numbers that Python's json reads but that have no finite float
        + [
            pytest.param(field, _put(field, literal), id=f"{field}={literal[:9]}")
            for field in (
                "mixture[0].w",
                "mixture[0].mu",
                "mixture[0].var",
                "t_grid.start",
                "t_grid.stop",
                "tolerances.quad",
            )
            for literal in ("NaN", "Infinity", "-Infinity", "1e400", "1" * 401)
        ],
    )
    def test_non_number_field_exit_1(self, tmp_path, capsys, field, mutate):
        payload = json.loads(json.dumps(WT_SCAN))
        text = mutate(payload) or json.dumps(payload)
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        for command in ("scan", "wt-scan"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "s")])
            assert rc == 1, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error at {field}: "), command

    def test_integer_past_the_digit_limit_exit_1(self, tmp_path, capsys):
        # Python's json refuses to convert an integer of 4301 digits or more
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(WT_SCAN).replace('"var": 1.0', '"var": ' + "1" * 5000))
        for command in ("scan", "wt-scan"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error in {cfg}: "), command

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["scan", "--config", str(tmp_path / "absent.json")]) == 1

    def test_sharp_gaussian_passes_the_costa_check(self, tmp_path, capsys):
        # e^{2h} is linear in t for every Gaussian, but its grid second
        # difference at t = 4.3e-8 clears its own noise bar (1.05e-5
        # against 2.1e-6); the verdict rests on -J' >= J^2 alone
        payload = {
            "mixture": [{"w": 1, "mu": 0, "var": 1e-9}],
            "t_grid": {"start": 1e-9, "stop": 1e-3, "points": 12, "spacing": "log"},
            "max_order": 4,
        }
        cfg = tmp_path / "sharp.json"
        cfg.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            # every tree converges
            warnings.simplefilter("error", quadrature.QuadratureNonConvergence)
            rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "sharp")])
        out = capsys.readouterr().out
        assert "entropy-power/Fisher checks: ok" in out.splitlines()
        assert rc == 0
        header, *rows = [
            line.split(",") for line in (tmp_path / "sharp.csv").read_text().splitlines()
        ]
        columns = [dict(zip(header, row)) for row in rows]
        assert [c["costa_ok"] for c in columns] == ["1"] * 12
        # the grid cross-check at t = 4.3e-8 still shows the noise that failed it
        assert float(columns[3]["e2h_dd"]) > 1e-6


    def test_order_1_passes_the_costa_check(self, tmp_path, capsys):
        # at max_order 1 J' still comes from C_2, whose quadrature error the
        # Costa margin's error carries, and no order-2 finite difference is taken
        payload = dict(SMALL_SCAN, max_order=1)
        payload["t_grid"] = {"start": 0.05, "stop": 100, "points": 40, "spacing": "log"}
        cfg = tmp_path / "order1.json"
        cfg.write_text(json.dumps(payload))
        rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "order1")])
        assert "entropy-power/Fisher checks: ok" in capsys.readouterr().out.splitlines()
        assert rc == 0
        rows = (tmp_path / "order1.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-2:] for row in rows] == [["1", "1"]] * 40


    @pytest.mark.parametrize(
        "field,payload",
        [
            # the integrands of ratio row 8 scale like s**-4.5, which
            # overflows at s = v + t = 1e-100; t is the larger, at fault
            (
                "t_grid.start",
                {
                    "mixture": [{"w": 1, "mu": 0, "var": 1e-200}],
                    "t_grid": {"start": 1e-100, "stop": 1, "points": 5, "spacing": "log"},
                },
            ),
            # J is about 1e-200, and its square underflows to 0
            (
                "mixture[0].var",
                {
                    "mixture": [{"w": 1, "mu": 0, "var": 1e200}],
                    "t_grid": {"start": 0.1, "stop": 1, "points": 5},
                },
            ),
            # s**-4.5 underflows at s = 1e80
            (
                "t_grid.stop",
                {
                    "mixture": [{"w": 1, "mu": 0, "var": 1}],
                    "t_grid": {"start": 0.1, "stop": 1e80, "points": 5, "spacing": "log"},
                },
            ),
            # grids inside (0, 1), which wt-scan takes too: at t = 1e-320
            # wt-scan's flow time s = 1/t - 1 overflows, and the scan's
            # s**-4.5 of s = t + 1e-321 overflows
            (
                "t_grid.start",
                {
                    "mixture": [{"w": 1, "mu": 0, "var": 1e-321}],
                    "t_grid": {"start": 1e-320, "stop": 0.5, "points": 5, "spacing": "log"},
                },
            ),
            # J is about 1e-300 at every flow time of either command
            (
                "mixture[0].var",
                {
                    "mixture": [{"w": 1, "mu": 0, "var": 1e300}],
                    "t_grid": {"start": 0.1, "stop": 0.9, "points": 5},
                },
            ),
        ]
        # the window is 12 sigma of the wide component, where the narrow
        # one's |z|**8 overflows in the scan's ratio row 8; wt-scan goes to
        # ratio row 2 and takes these mixtures
        + [
            ({"scan": "mixture[1].var"}, _wide_and_narrow(var, max_order=4))
            for var in (1e155, 1e200, 1e250, 1e300)
        ]
        + [
            # means 1e300 apart make the window, and every |z|**2 overflows
            (
                "mixture[0].mu",
                {
                    "mixture": FAR_MEANS,
                    "t_grid": {"start": 0.1, "stop": 0.9, "points": 9},
                    "max_order": 4,
                },
            ),
            # at max_order 2 the top ratio row is 4, where |z|**4 of the
            # narrow component overflows
            (
                {"scan": "mixture[1].var"},
                dict(
                    _wide_and_narrow(3.1e302, narrow=1e-6, max_order=2),
                    t_grid={"start": 1e-3, "stop": 2e-3, "points": 3},
                ),
            ),
            # |z|**8 of the narrow component reaches 1.2e76**8
            ({"scan": "mixture[1].var"}, _wide_and_narrow(1e150, max_order=4)),
            # s**-4.5 overflows at s = 2e-100, where v is at fault
            (
                "mixture[0].var",
                {
                    "mixture": [{"w": 1, "mu": 0, "var": 1e-100}],
                    "t_grid": {"start": 1e-100, "stop": 1, "points": 5, "spacing": "log"},
                },
            ),
            # means 1e300 apart, both positive: every |z|**2 overflows in the
            # frame of the mean nearest 0 as well
            (
                "mixture[0].mu",
                {
                    "mixture": [FAR_MEANS[0], dict(FAR_MEANS[1], mu=1)],
                    "t_grid": {"start": 0.1, "stop": 0.9, "points": 9},
                    "max_order": 4,
                },
            ),
            # at max_order 1 the top ratio row is 2, but the terms of C_2 =
            # -f_2**2/f + f_1**4/(3 f**3), integrated at every order, have
            # weight 4: their s**-2.5 overflows at s = 2e-150, and wt-scan's
            # s = 1/t - 1 = 1e150 underflows it
            (
                {"scan": "mixture[0].var", "wt-scan": "t_grid.start"},
                {
                    "mixture": [{"w": 1, "mu": 0, "var": 1e-150}],
                    "t_grid": {"start": 1e-150, "stop": 3e-150, "points": 5, "spacing": "linear"},
                    "max_order": 1,
                },
            ),
        ],
    )
    def test_values_out_of_float_range_name_their_field(self, tmp_path, capsys, field, payload):
        cfg = tmp_path / "range.json"
        cfg.write_text(json.dumps(payload))
        # one field for the scan and, on a grid inside (0, 1), for wt-scan, or one per command
        if isinstance(field, str):
            field = {"scan": field, **({"wt-scan": field} if payload["t_grid"]["stop"] < 1 else {})}
        for command, where in field.items():
            with warnings.catch_warnings():
                # no numpy overflow note comes before the config error
                warnings.simplefilter("error", RuntimeWarning)
                # and no tree stops short: each case is refused before the kernel
                # runs, or at its first J
                warnings.simplefilter("error", quadrature.QuadratureNonConvergence)
                rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "range")])
            assert rc == 1, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error at {where}: "), command
            assert not (tmp_path / "range.csv").exists()

    @pytest.mark.parametrize("command", ["scan", "wt-scan"])
    @pytest.mark.parametrize("mu", [1e17, -1e300])
    def test_a_far_mean_is_integrated_in_its_own_frame(self, tmp_path, capsys, command, mu):
        # a lone component's window 1e17 +- 12 is two float spacings wide
        # where it lies, so each forest shifts the mixture by its mean:
        # N(mu, 1) writes the bytes of N(0, 1)
        csv = {}
        for mean in (mu, 0.0):
            cfg = tmp_path / "far.json"
            cfg.write_text(json.dumps(dict(WT_SCAN, mixture=[{"w": 1, "mu": mean, "var": 1}])))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "far")])
            assert rc == 0
            assert capsys.readouterr().err == ""
            csv[mean] = (tmp_path / "far.csv").read_bytes()
        assert csv[mu] == csv[0.0]

    @pytest.mark.parametrize("command,var", [("scan", 1e70), ("wt-scan", 1e300)])
    def test_a_wide_component_in_range_runs_clean(self, tmp_path, capsys, command, var):
        # the narrow component's largest |z| is 1.2e36 at the scan's ratio
        # row 8, and 1.2e151 at wt-scan's ratio row 2
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(_wide_and_narrow(var, max_order=4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "wide")])
        assert rc == 0
        assert capsys.readouterr().err == ""


class TestWtScanCommand:
    def test_wt_scan(self, tmp_path, capsys):
        cfg = tmp_path / "wt.json"
        cfg.write_text(json.dumps(WT_SCAN))
        prefix = tmp_path / "wt_out"
        assert main(["wt-scan", "--config", str(cfg), "--out", str(prefix)]) == 0
        text = (tmp_path / "wt_out.csv").read_text()
        assert text.splitlines()[0] == "t,s,hW,JW,hW_dd,JW_dd,txz_margin,txz_ok"

    def test_a_stopped_short_C2_tree_leaves_txz_inconclusive(self, tmp_path, capsys, c2_capped):
        cfg = ROOT / "demos" / "configs" / "wt_bimodal.json"
        with pytest.warns(quadrature.QuadratureNonConvergence, match="C_2 at t="):
            rc = main(["wt-scan", "--config", str(cfg), "--out", str(tmp_path / "wt")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "h(W_t) concavity: ok",
            "interpolation inequality: ok",
            "J(W_t) curvature changes sign: yes (reported)",
            "inconclusive rows: 14 (quadrature stopped short or not finite; reported)",
        ]
        rows = (tmp_path / "wt.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["1"] * 31

    def test_wt_scan_svg_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "wt.json"
        cfg.write_text(json.dumps(WT_SCAN))
        prefix = tmp_path / "wt_plots"
        assert main(["wt-scan", "--config", str(cfg), "--out", str(prefix), "--svg"]) == 0
        out = capsys.readouterr().out.splitlines()
        for name in ("hW", "JW", "hW_dd", "JW_dd"):
            path = tmp_path / f"wt_plots_{name}.svg"
            assert f"wrote {path}" in out
            text = path.read_text()
            assert text.startswith("<svg") and "polyline" in text

    def test_grid_must_stay_inside_unit_interval(self, tmp_path, capsys):
        payload = json.loads(json.dumps(WT_SCAN))
        payload["t_grid"]["stop"] = 1.5
        cfg = tmp_path / "wt.json"
        cfg.write_text(json.dumps(payload))
        assert main(["wt-scan", "--config", str(cfg)]) == 1


class TestOutputPrefix:
    """A prefix that cannot take the output fails before any work, without a traceback."""

    CASES = [("scan", SMALL_SCAN, "scan_conjectures"), ("wt-scan", WT_SCAN, "wt_checks")]

    @staticmethod
    def _no_work(monkeypatch, name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} ran before the output path was checked")

        # the scan commands import their work from the oracle when they run
        monkeypatch.setattr(oracle, name, fail)

    @pytest.mark.parametrize("command,payload,work", CASES)
    def test_prefix_under_a_file(self, tmp_path, capsys, monkeypatch, command, payload, work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        self._no_work(monkeypatch, work)
        assert main([command, "--config", str(cfg), "--out", "/dev/null/x"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{command}: --out /dev/null/x: ")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("command,payload,work", CASES)
    def test_csv_path_is_a_directory(self, tmp_path, capsys, monkeypatch, command, payload, work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        (tmp_path / "taken.csv").mkdir()
        self._no_work(monkeypatch, work)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "taken")]) == 1
        assert "is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command,payload,work", CASES)
    def test_missing_directories_are_made(self, tmp_path, command, payload, work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        prefix = tmp_path / "a" / "b" / "run"
        assert main([command, "--config", str(cfg), "--out", str(prefix)]) == 0
        assert (tmp_path / "a" / "b" / "run.csv").is_file()


class TestExitOne:
    """Every exit-1 path prints one line on stderr, through ``main``, and nothing on stdout."""

    # per case, the command line ({tmp} is the test's directory) and the
    # start of its one stderr line
    CASES = {
        "derive-order-0": (["derive", "--order", "0"], "derive: --order must be >= 1"),
        "certify-bad-out": (
            ["certify", "--order", "4", "--out", "{tmp}/missing/x.json"],
            "certify: --out {tmp}/missing/x.json: not a file path",
        ),
        "certify-search-order-1": (
            ["certify", "--order", "1", "--search"],
            "certify: --search needs --order >= 2",
        ),
        "certify-starts-0": (
            ["certify", "--order", "4", "--search", "--starts", "0"],
            "certify: --starts must be >= 1",
        ),
        "certify-seed-negative": (
            ["certify", "--order", "4", "--search", "--seed", "-1"],
            "certify: --seed must be >= 0",
        ),
        "certify-missing-cert": (
            ["certify", "--order", "3", "--cert", "{tmp}/absent.json"],
            "certify: --cert {tmp}/absent.json: ",
        ),
        "certify-order-mismatch": (
            ["certify", "--order", "4", "--cert", "{tmp}/order3.json"],
            "certify: file is order 3, not 4",
        ),
        "scan-bad-config": (["scan", "--config", "{tmp}/bad.json"], "config error at mixture: "),
        "scan-bad-out": (
            ["scan", "--config", "{tmp}/scan.json", "--out", "/dev/null/x"],
            "scan: --out /dev/null/x: ",
        ),
        "scan-out-of-range": (
            ["scan", "--config", "{tmp}/range.json", "--out", "{tmp}/r"],
            "config error at mixture[0].mu: ",
        ),
        "wt-scan-bad-config": (
            ["wt-scan", "--config", "{tmp}/bad.json"],
            "config error at mixture: ",
        ),
        "wt-scan-bad-out": (
            ["wt-scan", "--config", "{tmp}/wt.json", "--out", "/dev/null/x"],
            "wt-scan: --out /dev/null/x: ",
        ),
        "wt-scan-out-of-range": (
            ["wt-scan", "--config", "{tmp}/range.json", "--out", "{tmp}/r"],
            "config error at mixture[0].mu: ",
        ),
        "wt-scan-stop-past-1": (
            ["wt-scan", "--config", "{tmp}/stop.json", "--out", "{tmp}/w"],
            "config error at t_grid.stop: wt-scan needs the grid inside (0, 1)",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_line_on_stderr(self, tmp_path, capsys, case):
        stop = json.loads(json.dumps(WT_SCAN))
        stop["t_grid"]["stop"] = 1.5
        files = {
            "bad.json": '{"mixture": "nope"}',
            "scan.json": json.dumps(SMALL_SCAN),
            "wt.json": json.dumps(WT_SCAN),
            "stop.json": json.dumps(stop),
            "range.json": json.dumps(dict(WT_SCAN, mixture=FAR_MEANS)),
            "order3.json": certificate_to_json(builtin_certificate(3)),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv, start = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(start.replace("{tmp}", str(tmp_path)))


class TestProcess:
    """What a fresh interpreter that imports heatcalc starts with."""

    @staticmethod
    def _run(code, **env):
        child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        child.update(env, PYTHONPATH=str(Path(heatcalc.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child, capture_output=True, text=True, check=True
        )
        return proc.stdout.split()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_no_blas_worker_threads(self):
        # numpy and scipy each bundle an OpenBLAS that starts one worker per core
        code = "import os, heatcalc.cli, scipy.optimize; print(len(os.listdir('/proc/self/task')))"
        assert self._run(code) == ["1"]

    def test_search_imports_no_scipy(self):
        # all of scipy.optimize cost 0.47 s and 47 MB per search to import
        code = (
            "import contextlib, io, sys, heatcalc.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = heatcalc.cli.main(['certify', '--order', '4', '--search'])\n"
            "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        assert self._run(code) == ["0", "False"]

    def test_exact_commands_load_no_numpy(self, tmp_path):
        # start-up is most of an exact command's time, and numpy was about 0.12 s of it
        cert = tmp_path / "c4.json"
        cert.write_text(certificate_to_json(builtin_certificate(4)))
        steps = [
            ["derive", "--order", "6"],
            ["verify-identities"],
            ["certify", "--order", "2"],
            ["certify", "--order", "3"],
            ["certify", "--order", "4"],
            ["certify", "--order", "4", "--cert", str(cert)],
        ]
        code = (
            "import contextlib, io, sys, heatcalc\n"
            "heatcalc.reduce\n"
            "print('numpy' in sys.modules)\n"
            "from heatcalc import cli\n"
            f"for args in {steps!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(args)\n"
            "    print(code, 'numpy' in sys.modules)"
        )
        assert self._run(code) == ["False"] + ["0", "False"] * len(steps)

    def test_numeric_commands_load_numpy_when_they_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_SCAN))
        code = (
            "import contextlib, io, sys\n"
            "from heatcalc import cli\n"
            "for args in [['certify', '--order', '4', '--search'], "
            f"['scan', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'fresh')!r}]]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(args)\n"
            "    print(code, 'numpy' in sys.modules)"
        )
        assert self._run(code) == ["0", "True", "0", "True"]
        # the same scan in this process, which imported numpy long ago
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "here")]) == 0
        fresh, here = (tmp_path / "fresh.csv").read_bytes(), (tmp_path / "here.csv").read_bytes()
        assert fresh == here

    def test_explicit_blas_thread_count_is_kept(self):
        code = "import os, heatcalc; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self._run(code, OPENBLAS_NUM_THREADS="2") == ["2"]

    @pytest.mark.parametrize(
        "args", [["derive", "--order", "10"], ["certify", "--order", "4", "--search"]]
    )
    def test_closed_reader_ends_without_traceback(self, args):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "heatcalc.cli", *args],
                env=dict(os.environ, PYTHONPATH=str(Path(heatcalc.__file__).resolve().parents[1])),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""
