"""Outside-in tracer: run one heatcalc CLI command with its layers timed.

Usage::

    python perfbench/tracer.py TRACE.json -- <heatcalc cli arguments>

The tracer changes no file of the program.  Before calling
``heatcalc.cli.main`` it replaces the public functions of each module
(``terms``, ``reduction``, ``certificates``, ``mixtures``, ``quadrature``,
``oracle``, ``cli``) by timing wrappers, in every heatcalc module that
holds a reference to them, and wraps the integrand and residual callables
that the program hands to quadrature and to ``scipy.optimize.least_squares``.

Coarse calls become spans (name, start, end, parent, thread, row); hot
calls (mixture kernels, integrands, residuals, single rewrites) are only
counted and timed, so the span list stays small enough to keep in memory.
A layer's self time is the time its frames ran minus the time of the
frames they called; frames that wait on a thread pool do not count the
worker spans that cover the wait.  Everything is written to TRACE.json
when the command ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import warnings
from collections import Counter

class _Frame:
    __slots__ = ("span", "row", "child")

    def __init__(self, span, row):
        self.span = span  # id of this frame's span, or of the nearest enclosing one
        self.row = row
        self.child = 0.0


class _ThreadState(threading.local):
    def __init__(self, tracer):
        self.stack = []
        self.counts = Counter()
        tracer._register(self.counts)


class Tracer:
    """Thread-aware timing of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []  # (id, name, layer, start, end, parent, thread, row)
        self.events = []  # (warning category, span id, row)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads = []
        self._local = _ThreadState(self)
        self._main_stack = self._local.stack

    def _register(self, counts):
        with self._lock:
            self._threads.append(counts)

    # -- wrapping -------------------------------------------------------

    def wrap(self, layer, name, fn, *, span=True, row=None, hook=None):
        """Time ``fn`` as layer work.

        ``row(args, kwargs)`` gives the row identifier (the flow time t;
        inner calls inherit it).  ``hook`` is a ``Hook`` that may wrap
        callable arguments before the call and records counters after it.
        """
        state = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = state.stack
            parent = stack[-1] if stack else None
            if parent is not None:
                parent_span, parent_row = parent.span, parent.row
            elif self._main_stack and stack is not self._main_stack:
                # a pool worker: its parent is the span that waits on the pool
                parent_span, parent_row = self._main_stack[-1].span, None
            else:
                parent_span, parent_row = None, None
            row_id = row(args, kwargs) if row is not None else parent_row
            span_id = next(self._ids) if span else parent_span
            if hook is not None:
                args, kwargs = hook.before(self, args, kwargs)
            frame = _Frame(span_id, row_id)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if hook is not None:
                    hook.failed(state.counts)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                counts = state.counts
                counts["self:" + layer] += duration - frame.child
                counts["incl:" + name] += duration
                counts["calls:" + name] += 1
                if parent is not None:
                    parent.child += duration
                if span:
                    self.spans.append(
                        (
                            span_id,
                            name,
                            layer,
                            start - self.origin,
                            end - self.origin,
                            parent_span,
                            threading.get_ident(),
                            row_id,
                        )
                    )
            if hook is not None:
                hook.after(counts, args, kwargs, result)
            return result

        wrapper._perfbench_wrapped = True
        return wrapper

    def count(self, key, amount=1):
        self._local.counts[key] += amount

    def active_span(self):
        stack = self._local.stack
        return (stack[-1].span, stack[-1].row) if stack else (None, None)

    # -- results --------------------------------------------------------

    def totals(self):
        """Merged counters, with pool waits removed from the waiting layer."""
        total = Counter()
        for counts in self._threads:
            total.update(counts)
        by_id = {s[0]: s for s in self.spans}
        covered = {}
        for s in self.spans:
            parent = by_id.get(s[5])
            if parent is not None and parent[6] != s[6]:
                covered.setdefault(parent[0], []).append((max(s[3], parent[3]), min(s[4], parent[4])))
        for span_id, intervals in covered.items():
            total["self:" + by_id[span_id][2]] -= _union_length(intervals)
        rows = {(s[2], s[7]) for s in self.spans if s[2] == "oracle" and s[7] is not None}
        total["oracle.rows"] = len(rows)
        return total

    def dump(self, path):
        payload = {
            "counters": {k: v for k, v in sorted(self.totals().items())},
            "spans_fields": ["id", "name", "layer", "start", "end", "parent", "thread", "row"],
            "spans": self.spans,
            "events_fields": ["warning", "span", "row"],
            "events": self.events,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries
# ---------------------------------------------------------------------------


class Hook:
    """Per-function counters; ``before`` may wrap callable arguments."""

    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, counts, args, kwargs, result):
        pass

    def failed(self, counts):
        pass


def _size(y):
    return int(getattr(y, "size", 1))


class MixtureKernel(Hook):
    """log_density(mix, t, y) and derivative_ratios(mix, t, y, m)."""

    def after(self, counts, args, kwargs, result):
        mix, y = args[0], args[2]
        nodes = _size(y)
        counts["mixtures.nodes"] += nodes
        counts["mixtures.node_components"] += nodes * len(mix.components)


def _integrand(tracer, fn):
    if getattr(fn, "_perfbench_wrapped", False):
        return fn
    return tracer.wrap("oracle", "integrand", fn, span=False, hook=_INTEGRAND)


class Integrand(Hook):
    def after(self, counts, args, kwargs, result):
        counts["quadrature.integrand_nodes"] += _size(args[0])


class BuildMesh(Hook):
    """build_mesh(integrands, a, b, tol, order, ...) -> Mesh."""

    def before(self, tracer, args, kwargs):
        return ([_integrand(tracer, fn) for fn in args[0]],) + args[1:], kwargs

    def after(self, counts, args, kwargs, result):
        panels = len(result.panels)
        counts["quadrature.panels"] += panels
        counts["quadrature.useful_nodes"] += 2 * result.order * panels


class AdaptiveQuad(Hook):
    """adaptive_quad(fn, a, b, ...): the integrand is the first argument."""

    def before(self, tracer, args, kwargs):
        return (_integrand(tracer, args[0]),) + args[1:], kwargs


class MeshIntegrate(Hook):
    """Mesh.integrate(self, fn)."""

    def before(self, tracer, args, kwargs):
        return (args[0], _integrand(tracer, args[1])) + args[2:], kwargs


class CsvText(Hook):
    def after(self, counts, args, kwargs, result):
        counts["cli.csv_bytes"] += len(result.encode())


class LeastSquares(Hook):
    """scipy.optimize.least_squares(fun, x0, ...): one search start."""

    def before(self, tracer, args, kwargs):
        residual = tracer.wrap("certificates", "residual", args[0], span=False)
        return (residual,) + args[1:], kwargs

    def after(self, counts, args, kwargs, result):
        if result.status <= 0:
            counts["certificates.starts_failed"] += 1

    def failed(self, counts):
        counts["certificates.starts_failed"] += 1


_INTEGRAND = Integrand()


def _t_at(position):
    def row(args, kwargs):
        value = kwargs.get("t", args[position] if len(args) > position else None)
        return float(value) if value is not None else None

    return row


def install(tracer, with_solver):
    """Wrap the public functions of every layer in every heatcalc module."""
    from heatcalc import certificates, cli, mixtures, oracle, quadrature, reduction, terms

    mesh_hook = BuildMesh()
    plan = [
        (mixtures, "log_density", "mixtures", False, None, MixtureKernel()),
        (mixtures, "derivative_ratios", "mixtures", False, None, MixtureKernel()),
        (quadrature, "build_mesh", "quadrature", True, None, mesh_hook),
        (quadrature, "adaptive_quad", "quadrature", True, None, AdaptiveQuad()),
        (oracle, "scan_conjectures", "oracle", True, None, None),
        (oracle, "wt_checks", "oracle", True, None, None),
        (oracle, "_scan_row_core", "oracle", True, _t_at(1), None),
        (oracle, "entropy_result", "oracle", True, _t_at(1), None),
        (oracle, "fisher_result", "oracle", True, _t_at(1), None),
        (oracle, "functional_result", "oracle", True, _t_at(2), None),
        (oracle, "fd_entropy_deriv_result", "oracle", True, _t_at(1), None),
        (oracle, "second_difference", "oracle", False, None, None),
        (oracle, "scan_to_csv", "oracle", False, None, CsvText()),
        (oracle, "wt_to_csv", "oracle", False, None, CsvText()),
        (reduction, "reduce", "reduction", True, None, None),
        (reduction, "rewrite_once", "reduction", False, None, None),
        (reduction, "entropy_derivative", "reduction", True, None, None),
        (reduction, "verify_ibp_identities", "reduction", True, None, None),
        (terms, "d_dt", "terms", True, None, None),
        (terms, "d_dy", "terms", True, None, None),
        (certificates, "search_certificate", "certificates", True, None, None),
        (certificates, "verify_certificate", "certificates", True, None, None),
        (certificates, "expand_square", "certificates", False, None, None),
        (certificates, "builtin_certificate", "certificates", False, None, None),
        (cli, "main", "cli", True, None, None),
    ]
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "heatcalc"]
    for module, attr, layer, span, row, hook in plan:
        original = getattr(module, attr)
        wrapped = tracer.wrap(layer, attr, original, span=span, row=row, hook=hook)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
    quadrature.Mesh.integrate = tracer.wrap(
        "quadrature", "Mesh.integrate", quadrature.Mesh.integrate, hook=MeshIntegrate()
    )
    if with_solver:
        import scipy.optimize

        scipy.optimize.least_squares = tracer.wrap(
            "certificates", "least_squares", scipy.optimize.least_squares, hook=LeastSquares()
        )

    # every non-convergence and fd-accuracy event is counted, not only the
    # first one per source line that the default warning filter shows
    shown = warnings.showwarning
    watched = (quadrature.QuadratureNonConvergence, oracle.FdAccuracyWarning)
    for category in watched:
        warnings.simplefilter("always", category)

    def showwarning(message, category, filename, lineno, file=None, line=None):
        if issubclass(category, watched):
            span_id, row_id = tracer.active_span()
            tracer.events.append((category.__name__, span_id, row_id))
            tracer.count("warn:" + category.__name__)
        return shown(message, category, filename, lineno, file, line)

    warnings.showwarning = showwarning


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <heatcalc cli arguments>", file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer, with_solver="--search" in cli_args)
    from heatcalc import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
