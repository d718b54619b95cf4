"""Span tracer that attributes a pass's time to the package's modules.

The package is traced from outside: nothing under ``src/`` changes. Every
public function defined in a ``blocklanczos`` module is replaced by a
timing wrapper at EVERY module binding that refers to it, because the
modules import kernels by name (``panel_norm`` is bound separately in
``lanczos``, ``cg`` and ``continuation``; ``stack_panels`` in ``lanczos``,
``continuation`` and ``cli``). Patching only the home module would miss
those call sites. ``cli._COMMANDS`` holds the command functions in a dict,
so its values are patched too.

A span is ``(pass_id, span_id, parent_id, name, start, end)``; spans stay
in memory and are written out once, by `Tracer.write`. Self time is a
span's duration minus the durations of its direct children. Counters that
need arguments or return values (flops, bytes, rank drops, iteration
counts) are taken in the wrapper after the span's end time is read, so
their cost lands in tracing overhead rather than in the traced function.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from collections import defaultdict

from blocklanczos.errors import RankDeficient

PACKAGE = "blocklanczos"

LAYERS = ("linalg", "matrices", "lanczos", "cg", "continuation", "analysis", "cli")

# Halt reasons are the `failure` strings of cg.hs_bcg / cg.dr_bcg with the
# iteration number removed; anything else is counted as "other".
HALT_REASONS = (
    "direction block diverged",
    "singular direction Gram block",
    "singular inner solve",
    "singular residual Gram block",
    "search space exhausted",
    "residual basis closed",
)

CG_SERIES = ("hs_fp", "dr_fp", "dr_exact_d1", "dr_exact_d2")


def halt_metric(reason):
    return "cg.halts." + reason.replace(" ", "_").replace("Gram", "gram")


# Every per-layer metric the traced run reports, in output order, with its
# unit. BENCHMARK.json lists the same names.
PER_LAYER = [
    ("linalg.self_s", "s"),
    ("linalg.reorthogonalize.calls", "count"),
    ("linalg.reorthogonalize.self_s", "s"),
    ("linalg.reorthogonalize.flops", "flop"),
    ("linalg.reorthogonalize.bytes", "B"),
    ("linalg.panel_norm.calls", "count"),
    ("linalg.panel_norm.self_s", "s"),
    ("linalg.stack_panels.calls", "count"),
    ("linalg.stack_panels.self_s", "s"),
    ("linalg.stack_panels.bytes", "B"),
    ("linalg.householder_qr.calls", "count"),
    ("linalg.householder_qr.self_s", "s"),
    ("linalg.householder_qr.rejected", "count"),
    ("linalg.truncated_svd.calls", "count"),
    ("linalg.truncated_svd.self_s", "s"),
    ("linalg.truncated_svd.rank_drops", "count"),
    ("linalg.sym_eig.calls", "count"),
    ("linalg.sym_eig.self_s", "s"),
    ("linalg.sym_norm.calls", "count"),
    ("linalg.sym_norm.self_s", "s"),
    ("linalg.sym_norm.repeat_ratio", "ratio"),
    ("linalg.densify.calls", "count"),
    ("linalg.densify.self_s", "s"),
    ("matrices.calls", "count"),
    ("matrices.self_s", "s"),
    ("lanczos.self_s", "s"),
    ("lanczos.run_block_lanczos.calls", "count"),
    ("lanczos.run_block_lanczos.self_s", "s"),
    ("lanczos.steps", "count"),
    ("lanczos.ritz_analysis.calls", "count"),
    ("lanczos.ritz_analysis.self_s", "s"),
    ("cg.self_s", "s"),
    ("cg.hs_bcg.self_s", "s"),
    ("cg.dr_bcg.self_s", "s"),
    ("cg.trace_error.calls", "count"),
    ("cg.trace_error.self_s", "s"),
    ("cg.iters", "count"),
] + [("cg.iters_to_1e-12." + s, "count") for s in CG_SERIES] + [
    ("cg.useful_iter_ratio", "ratio"),
    ("cg.halts", "count"),
] + [(halt_metric(r), "count") for r in HALT_REASONS] + [
    ("cg.halts.other", "count"),
    ("continuation.self_s", "s"),
    ("continuation.continuation_run.calls", "count"),
    ("continuation.continuation_run.self_s", "s"),
    ("continuation.steps", "count"),
    ("continuation.perturbation_decomposition.calls", "count"),
    ("continuation.perturbation_decomposition.self_s", "s"),
    ("continuation.select.self_s", "s"),
    ("continuation.assemble_tn.self_s", "s"),
    ("continuation.prefix_yield", "ratio"),
    ("analysis.self_s", "s"),
    ("analysis.conjecture_scan.calls", "count"),
    ("analysis.conjecture_scan.self_s", "s"),
    ("analysis.conjecture_scan.checks", "count"),
    ("analysis.interlacing_check.calls", "count"),
    ("analysis.interlacing_check.self_s", "s"),
    ("analysis.theorem1_certificate.self_s", "s"),
    ("analysis.other.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.build_problem.self_s", "s"),
    ("cli.command.self_s", "s"),
    ("cli.csv_bytes", "B"),
    ("cli.csv_files", "count"),
    ("traced.wall_s", "s"),
    ("traced.unattributed_s", "s"),
    ("traced.overhead_s", "s"),
    ("single_thread.wall_s", "s"),
]


def _reorth_counts(args, kwargs, result):
    """Computed (not measured) work of linalg.reorthogonalize.

    Per pass: two GEMMs of 2*n*b*c flops each plus an n*c subtraction.
    Bytes assume each operand is streamed once per use: the basis twice
    and the block four times (two reads, two writes), float64.
    """
    w, basis = args[0], args[1]
    passes = args[2] if len(args) > 2 else kwargs.get("passes", 2)
    n, c = w.shape
    b = basis.shape[1]
    return {
        "flops": passes * (4 * n * b * c + n * c),
        "bytes": passes * 8 * (2 * n * b + 4 * n * c),
    }


def _stack_counts(args, kwargs, result):
    # read every input panel once and write the stacked copy once
    return {"bytes": 2 * result.nbytes}


def _svd_counts(args, kwargs, result):
    return {"rank_drops": int(result[2] < args[0].shape[1])}


def _lanczos_counts(args, kwargs, result):
    return {"steps": result.n_steps}


def _continuation_counts(args, kwargs, result):
    return {"steps": result.n_steps}


def _cg_counts(args, kwargs, result):
    reached = result.first_below(1e-12)
    counts = {
        "iters": result.n_iter,
        "useful_iters": result.n_iter if reached is None else min(reached, result.n_iter),
    }
    if result.failure:
        reason = result.failure.split(" at iteration")[0]
        key = halt_metric(reason) if reason in HALT_REASONS else "cg.halts.other"
        counts["halt:" + key] = 1
    return counts


def _scan_counts(args, kwargs, result):
    return {"checks": result.checks}


COUNTERS = {
    "linalg.reorthogonalize": _reorth_counts,
    "linalg.stack_panels": _stack_counts,
    "linalg.truncated_svd": _svd_counts,
    "lanczos.run_block_lanczos": _lanczos_counts,
    "continuation.continuation_run": _continuation_counts,
    "cg.hs_bcg": _cg_counts,
    "cg.dr_bcg": _cg_counts,
    "analysis.conjecture_scan": _scan_counts,
}


class Tracer:
    """Wraps the package's public functions and records spans per pass.

    Spans are recorded only between `begin_pass` and `end_pass`; calls
    made outside a pass (reference computations, checks) go straight
    through the wrapper.
    """

    def __init__(self):
        self.spans = []  # (pass_id, span_id, parent_id, name, start, end)
        self.counts = []  # per pass: {(name, counter): value}
        self._stack = []
        self._pass_id = None
        self._patched = []  # (namespace, key, original)
        self._seen_norms = {}

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if (name == PACKAGE or name.startswith(PACKAGE + ".")) and m is not None]

    def install(self):
        """Patch every module binding of every public package function."""
        wrappers = {}
        for mod in self._modules():
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    layer = mod.__name__.rsplit(".", 1)[-1]
                    if layer in LAYERS:
                        wrappers[fn] = self._wrap(fn, "%s.%s" % (layer, fn.__name__))
        for mod in self._modules():
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in wrappers:
                    self._patched.append((vars(mod), attr, fn))
                    setattr(mod, attr, wrappers[fn])
        table = getattr(sys.modules[PACKAGE + ".cli"], "_COMMANDS", {})
        for key, fn in list(table.items()):
            if fn in wrappers:
                self._patched.append((table, key, fn))
                table[key] = wrappers[fn]

    def uninstall(self):
        for namespace, key, fn in reversed(self._patched):
            namespace[key] = fn
        self._patched.clear()

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._pass_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = len(tracer.spans)
            parent = stack[-1] if stack else -1
            tracer.spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                tracer.spans[span_id] = (tracer._pass_id, span_id, parent, name, start, end)
                if isinstance(exc, RankDeficient) and name == "linalg.householder_qr":
                    tracer._count(name, "rejected", 1)
                raise
            end = clock()
            stack.pop()
            tracer.spans[span_id] = (tracer._pass_id, span_id, parent, name, start, end)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer._count(name, key, value)
            if name == "linalg.sym_norm":
                a = args[0]
                if id(a) in tracer._seen_norms:
                    tracer._count(name, "repeats", 1)
                else:
                    # keep the operator alive so its id cannot be reused
                    tracer._seen_norms[id(a)] = a
            return result

        return traced

    def _count(self, name, key, value):
        bucket = self.counts[-1]
        bucket[(name, key)] = bucket.get((name, key), 0) + value

    # -- passes ---------------------------------------------------------------

    def begin_pass(self):
        self._pass_id = len(self.counts)
        self.counts.append({})
        self._seen_norms = {}
        self._stack = [len(self.spans)]
        self.spans.append(None)
        return time.perf_counter()

    def end_pass(self, start):
        end = time.perf_counter()
        root = self._stack[0]
        self.spans[root] = (self._pass_id, root, -1, "pass", start, end)
        self._stack = []
        self._pass_id = None
        self._seen_norms = {}
        return end - start

    def write(self, path):
        """Write every span as gzip'd CSV, one line per span."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("pass_id,span_id,parent_id,name,start_s,end_s\n")
            for s in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % s)

    # -- derived metrics -----------------------------------------------------

    def pass_metrics(self):
        """Per-pass dicts of self time, calls and counters by span name."""
        per_pass = [defaultdict(float) for _ in self.counts]
        child_time = defaultdict(float)
        for s in self.spans:
            if s[2] >= 0:
                child_time[s[2]] += s[5] - s[4]
        for pass_id, span_id, parent, name, start, end in self.spans:
            m = per_pass[pass_id]
            self_s = (end - start) - child_time.get(span_id, 0.0)
            m[name + ".self_s"] += self_s
            m[name + ".calls"] += 1
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                m[layer + ".self_s"] += self_s
                m[layer + ".calls"] += 1
            if name == "pass":
                m["traced.wall_s"] = end - start
        for pass_id, bucket in enumerate(self.counts):
            for (name, key), value in bucket.items():
                per_pass[pass_id]["%s.%s" % (name, key)] += value
        return per_pass


def layer_metrics(m, outputs_info):
    """Map one pass's raw span sums onto the PER_LAYER names.

    ``outputs_info`` carries what is read from the pass's CSV files
    (iteration reaches, prefix yield, byte and file counts).
    """
    g = lambda key: m.get(key, 0.0)  # noqa: E731
    out = {
        "linalg.self_s": g("linalg.self_s"),
        "matrices.calls": g("matrices.calls"),
        "matrices.self_s": g("matrices.self_s"),
        "lanczos.self_s": g("lanczos.self_s"),
        "lanczos.steps": g("lanczos.run_block_lanczos.steps"),
        "cg.self_s": g("cg.self_s"),
        "cg.iters": g("cg.hs_bcg.iters") + g("cg.dr_bcg.iters"),
        "continuation.self_s": g("continuation.self_s"),
        "continuation.steps": g("continuation.continuation_run.steps"),
        "continuation.select.self_s": g("continuation.select_ritz_vectors.self_s")
        + g("continuation.build_wk.self_s"),
        "analysis.self_s": g("analysis.self_s"),
        "cli.self_s": g("cli.self_s"),
        "cli.command.self_s": g("cli.self_s") - g("cli.build_problem.self_s"),
        "traced.wall_s": g("traced.wall_s"),
        "traced.unattributed_s": g("pass.self_s"),
        "linalg.reorthogonalize.flops": g("linalg.reorthogonalize.flops"),
        "linalg.reorthogonalize.bytes": g("linalg.reorthogonalize.bytes"),
        "linalg.stack_panels.bytes": g("linalg.stack_panels.bytes"),
        "linalg.householder_qr.rejected": g("linalg.householder_qr.rejected"),
        "linalg.truncated_svd.rank_drops": g("linalg.truncated_svd.rank_drops"),
        "analysis.conjecture_scan.checks": g("analysis.conjecture_scan.checks"),
    }
    calls = g("linalg.sym_norm.calls")
    out["linalg.sym_norm.repeat_ratio"] = g("linalg.sym_norm.repeats") / calls if calls else 0.0
    iters = out["cg.iters"]
    useful = g("cg.hs_bcg.useful_iters") + g("cg.dr_bcg.useful_iters")
    out["cg.useful_iter_ratio"] = useful / iters if iters else 0.0
    halts = 0.0
    for reason in HALT_REASONS:
        key = halt_metric(reason)
        out[key] = g("cg.hs_bcg.halt:" + key) + g("cg.dr_bcg.halt:" + key)
        halts += out[key]
    out["cg.halts.other"] = g("cg.hs_bcg.halt:cg.halts.other") + g("cg.dr_bcg.halt:cg.halts.other")
    out["cg.halts"] = halts + out["cg.halts.other"]
    known = ("analysis.conjecture_scan", "analysis.interlacing_check",
             "analysis.theorem1_certificate")
    out["analysis.other.self_s"] = g("analysis.self_s") - sum(g(k + ".self_s") for k in known)
    out.update(outputs_info)
    for name, _ in PER_LAYER:
        # a layer that did no work on this workload reports 0
        out.setdefault(name, g(name))
    return out


def median_pass_metrics(per_pass_layers):
    """PER_LAYER metrics of the traced pass with the median wall time.

    Taking every metric from one pass, rather than a median per metric,
    keeps the identity: the layer self times plus traced.unattributed_s
    add up to that pass's traced.wall_s.
    """
    ordered = sorted(per_pass_layers, key=lambda p: p["traced.wall_s"])
    chosen = ordered[(len(ordered) - 1) // 2]
    return {name: {"value": chosen[name], "unit": unit} for name, unit in PER_LAYER}
