"""Outside-in benchmark of the heatcalc command line.

Run from the root of a heatcalc checkout::

    python3 perfbench/run.py --workload scan_bimodal --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

A closed loop with one client: each command of the workload runs in a
fresh interpreter (``python -m heatcalc.cli`` on the checkout's ``src``),
the next starts only when the previous one has ended, and whole workload
iterations repeat until ``--seconds`` have passed.  The program keeps its
defaults; ``HEATCALC_THREADS`` is passed through untouched and recorded.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs the workload once untraced and then at least twice
under ``perfbench/tracer.py`` and reports the per-layer metrics; it also
checks that traced and untraced outputs are byte-identical and that the
counters of the traced iterations are exactly equal.

Every output is checked (see workloads.py).  The last stdout line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The full record,
with the environment, goes to ``.perfbench_work/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import workloads
from workloads import Command, Outcome

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0
SETUP_REPEATS = 15
MIN_TRACED_ITERATIONS = 2


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, work: Path, label: str) -> tuple:
    """Run one child to completion; returns (rc, stdout, stderr, wall, cpu, maxrss_kb)."""
    out_path, err_path = work / f"{label}.stdout", work / f"{label}.stderr"
    for path in (out_path, err_path):
        path.unlink(missing_ok=True)  # see workloads._write_config
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
    )


def run_command(cmd: Command, work: Path, trace_file: Path = None) -> Outcome:
    if cmd.csv:
        (work / cmd.csv).unlink(missing_ok=True)
    if trace_file is None:
        argv = [sys.executable, "-m", "heatcalc.cli", *cmd.args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_file), "--", *cmd.args]
    rc, stdout, stderr, wall, cpu, rss = run_child(argv, work, cmd.label)
    csv_path = work / cmd.csv if cmd.csv else None
    csv = csv_path.read_bytes() if csv_path and csv_path.exists() else None
    return Outcome(rc, stdout, stderr, wall, cpu, rss, csv)


def run_iteration(commands, work: Path, traced_as: str = None):
    """One pass over the workload's commands; traced runs keep one trace file per command."""
    outcomes, traces = [], []
    for cmd in commands:
        trace_file = work / f"{traced_as}-{cmd.label}.trace.json" if traced_as else None
        outcomes.append(run_command(cmd, work, trace_file))
        traces.append(trace_file)
    return outcomes, traces


def measure_setup(workload: str, seed: int, work: Path) -> tuple:
    """Median time to generate the inputs and import heatcalc in a fresh interpreter."""
    import_argv = [sys.executable, "-c", "import heatcalc.cli"]
    run_child(import_argv, work, "warmup")  # compiles bytecode on a fresh checkout
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        commands = workloads.prepare(workload, seed, work)
        rc = run_child(import_argv, work, "setup")[0]
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise SystemExit("heatcalc does not import from this checkout's src/")
    return statistics.median(times), commands


def digest(out: Outcome) -> str:
    return hashlib.sha256(out.stdout.encode() + b"\0" + (out.csv or b"")).hexdigest()


def check_iterations(commands, iterations, reference=None) -> tuple:
    """(attempted, failed) over all iterations.

    Besides each command's own check, every iteration must reproduce the
    stdout and CSV of the first (or of ``reference``) byte for byte.
    """
    attempted = failed = 0
    first = reference or iterations[0]
    for outcomes in iterations:
        for cmd, out, ref in zip(commands, outcomes, first):
            attempted += cmd.ops
            failed += cmd.ops if digest(out) != digest(ref) else cmd.check(out)
    return attempted, failed


def end_to_end(commands, iterations, setup_s: float) -> dict:
    walls = [sum(o.wall for o in outs) for outs in iterations]
    ops = sum(c.ops for c in commands)
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(o.cpu for o in outs) for outs in iterations),
        "peak_rss_mb": statistics.median(max(o.rss_kb for o in outs) / 1024.0 for outs in iterations),
        "setup_s": setup_s,
        "rows_per_s": statistics.median(ops / w for w in walls),
    }


def command_medians(commands, iterations) -> dict:
    """Median wall time of each command, by label (reported, not gated)."""
    return {
        cmd.label: statistics.median(outs[i].wall for outs in iterations)
        for i, cmd in enumerate(commands)
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the tracer's counters
# ---------------------------------------------------------------------------

TIMES = ("self:", "incl:")


def load_counters(trace_files) -> Counter:
    total = Counter()
    for path in trace_files:
        try:
            with open(path) as fh:
                total.update(json.load(fh)["counters"])
        except (OSError, ValueError, KeyError):
            total["trace_files_missing"] += 1  # the command's own check fails too
    return total


def per_layer(c: Counter) -> dict:
    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def calls(name):
        return c["calls:" + name]

    nodes = c["quadrature.integrand_nodes"]
    return {
        "mixtures.calls": calls("log_density") + calls("derivative_ratios"),
        "mixtures.nodes": c["mixtures.nodes"],
        "mixtures.node_components": c["mixtures.node_components"],
        "mixtures.self_s": c["self:mixtures"],
        "mixtures.ns_per_node_component": ratio(c["self:mixtures"], c["mixtures.node_components"], 1e9),
        "quadrature.meshes": calls("build_mesh"),
        "quadrature.panels": c["quadrature.panels"],
        "quadrature.integrand_calls": calls("integrand"),
        "quadrature.integrand_nodes": nodes,
        "quadrature.eval_efficiency": ratio(c["quadrature.useful_nodes"], nodes),
        "quadrature.nonconverged": c["warn:QuadratureNonConvergence"],
        "quadrature.self_s": c["self:quadrature"],
        "oracle.rows": c["oracle.rows"],
        "oracle.entropy_s": c["incl:entropy_result"],
        "oracle.fisher_s": c["incl:fisher_result"],
        "oracle.functional_s": c["incl:functional_result"],
        "oracle.fd_s": c["incl:fd_entropy_deriv_result"],
        "oracle.nodes_per_row": ratio(nodes, c["oracle.rows"]),
        "oracle.self_s": c["self:oracle"],
        "reduction.reduce_calls": calls("reduce"),
        "reduction.rewrites": calls("rewrite_once"),
        "reduction.self_s": c["self:reduction"],
        "terms.d_dt_calls": calls("d_dt"),
        "terms.self_s": c["self:terms"],
        "certificates.starts": calls("least_squares"),
        "certificates.starts_failed": c["certificates.starts_failed"],
        "certificates.residual_evals": calls("residual"),
        "certificates.us_per_residual": ratio(c["incl:residual"], calls("residual"), 1e6),
        "certificates.solver_s": c["incl:least_squares"],
        "certificates.verify_calls": calls("verify_certificate"),
        "cli.self_s": c["self:cli"],
        "cli.csv_bytes": c["cli.csv_bytes"],
    }


def counts_only(counters: Counter) -> dict:
    return {k: v for k, v in counters.items() if not k.startswith(TIMES)}


# ---------------------------------------------------------------------------
# Environment and the run itself
# ---------------------------------------------------------------------------


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(),
        "seed": seed,
        "HEATCALC_THREADS": os.environ.get("HEATCALC_THREADS"),
    }


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s, commands = measure_setup(workload, seed, work)

    report = {"workload": workload, "environment": environment(seed)}
    start = time.perf_counter()
    if not trace:
        iterations = []
        while not iterations or time.perf_counter() - start < seconds:
            iterations.append(run_iteration(commands, work)[0])
        attempted, failed = check_iterations(commands, iterations)
        values = end_to_end(commands, iterations, setup_s)
        report["iterations"] = len(iterations)
        report["command_wall_s"] = command_medians(commands, iterations)
        report["iteration_wall_s"] = [sum(o.wall for o in outs) for outs in iterations]
        report["iteration_cpu_s"] = [sum(o.cpu for o in outs) for outs in iterations]
        report["iteration_rss_mb"] = [max(o.rss_kb for o in outs) / 1024.0 for outs in iterations]
    else:
        reference = run_iteration(commands, work)[0]
        traced, counters = [], []
        while len(traced) < MIN_TRACED_ITERATIONS or time.perf_counter() - start < seconds:
            outcomes, files = run_iteration(commands, work, traced_as=f"i{len(traced)}")
            traced.append(outcomes)
            counters.append(load_counters(files))
        attempted, failed = check_iterations(commands, traced, reference)
        ops = sum(c.ops for c in commands)
        for i, got in enumerate(counters[1:], start=1):
            if counts_only(got) != counts_only(counters[0]):
                failed += ops
                report.setdefault("counter_mismatch", []).append(i)
        layers = [per_layer(c) for c in counters]
        values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        untraced_wall = sum(o.wall for o in reference)
        traced_wall = statistics.median(sum(o.wall for o in outs) for outs in traced)
        report["tracing_overhead_s"] = traced_wall - untraced_wall
        report["untraced_wall_s"] = untraced_wall
        report["traced_wall_s"] = traced_wall
        report["iterations"] = len(traced)
        report["traces"] = [f"i0-{c.label}.trace.json" for c in commands]

    units = declared_metrics(trace)
    missing = set(units) ^ set(values)
    if missing:
        raise SystemExit(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    report["failed_frac"] = failed / attempted
    report["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    (work / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"workload {report['workload']}: {report['iterations']} iterations, "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(failed_frac {report['failed_frac']:.4g})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for label, wall in report.get("command_wall_s", {}).items():
        print(f"  command {label:<26} {wall:>14.6g} s")
    if "tracing_overhead_s" in report:
        print(f"  tracing overhead (traced - untraced wall) {report['tracing_overhead_s']:.4g} s")
    print("environment: " + json.dumps(report["environment"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heatcalc" / "cli.py").is_file():
        print("perfbench: run from the root of a heatcalc checkout (no src/heatcalc here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the output checks use the code under test
    # a terminated harness still stops its child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        print(json.dumps(reports[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
