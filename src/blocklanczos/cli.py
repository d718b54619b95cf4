"""Experiment runner.

Each subcommand drives one of the standard studies end to end and writes
its artifacts as CSV files, plus small matplotlib scripts that render the
matching figures from those CSVs. Every output file starts with
'#'-prefixed provenance lines (experiment name, resolved configuration,
seed, package version) and re-running the same configuration reproduces
the files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from pprint import pformat

import numpy as np

from . import __version__
from .analysis import classify_clusters, conjecture_scan, interlacing_check
from .cg import dr_bcg, hs_bcg
from .continuation import continue_prefix
from .errors import BlockLanczosError, EmptySelection, NearDependentRitzVectors
from .lanczos import BREAKDOWN_TOL, Diagnostics, ritz_analysis, run_block_lanczos
from .linalg import Operator, householder_qr, sym_eig
from .matrices import (
    BlurSpec,
    SpectrumSpec,
    blurred_problem,
    kron_perturbed_problem,
    read_matrix_market,
    spectrum_to_matrix,
    strakos48,
    strakos_spectrum,
)

EPS = float(np.finfo(float).eps)

# key: (default, type of its flag and config-file value, flag help)
OPTIONS = {
    "matrix": (None, str, "generator spec: strakos48(l1,ln[,rho]), strakos(n,l1,ln[,rho]), "
                          "random(n); append _kron for the Kronecker-lifted form"),
    "mtx": (None, str, "path to a Matrix Market file instead of --matrix"),
    "name": (None, str, "experiment name recorded in headers (default: subcommand)"),
    "p": (2, int, "block width"),
    "k": (24, int, "number of recurrence steps"),
    "mu": ("auto", str, "selection threshold, a float or 'auto' for sqrt(k n p eps)"),
    "psi": (EPS ** 0.5, float, "cluster chaining distance, units of norm(A)"),
    "eta": (EPS ** 0.5, float, "cluster properness margin, units of norm(A)"),
    "delta": ("100,0.5", str, "one or two blur widths, comma separated"),
    "delta_scale": ("eps_norm", str,
                    "delta units: eps_norm (multiples of eps*norm(A)) or abs (absolute)"),
    "m": (11, int, "blur multiplicity per eigenvalue"),
    "seed": (1, int, "seed for every random draw"),
    "maxit": (0, int, "CG iteration cap, 0 for the dimension"),
    "omega": (1e-12, float, "Kronecker perturbation size"),
    "out": (".", str, "output directory"),
}
_VALUE_FLAGS = {"--config"} | {"--" + key.replace("_", "-") for key in OPTIONS}


def _read_config_file(path):
    """Plain key=value lines; blank lines and '#' comments are skipped.
    Each value is converted to its key's type."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("config line %d is not key=value: %r" % (lineno, raw))
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in OPTIONS:
            raise ValueError("config line %d: unknown key %r" % (lineno, key))
        kind = OPTIONS[key][1]
        try:
            values[key] = kind(val.strip())
        except ValueError:
            raise ValueError("config line %d: %s = %r is not a valid %s"
                             % (lineno, key, val.strip(), kind.__name__)) from None
    return values


def resolve_config(args):
    """Merge flags over config-file entries over built-in defaults."""
    from_file = _read_config_file(args.config) if args.config else {}
    cfg = {}
    for key, (default, _, _) in OPTIONS.items():
        flag = getattr(args, key)
        cfg[key] = flag if flag is not None else from_file.get(key, default)
    if (cfg["matrix"] is None) == (cfg["mtx"] is None):
        raise ValueError("need exactly one of --matrix or --mtx")
    if cfg["matrix"] is not None:  # a bad spec fails before the output directory is made
        _parse_matrix_spec(cfg["matrix"])
    for key, low in (("p", 1), ("k", 1), ("m", 1), ("maxit", 0), ("seed", 0), ("psi", 0), ("eta", 0)):
        if not cfg[key] >= low:  # also rejects a NaN psi or eta
            raise ValueError("--%s must be >= %d, got %s" % (key, low, cfg[key]))
    if cfg["delta_scale"] not in ("eps_norm", "abs"):
        raise ValueError("--delta-scale must be eps_norm or abs")
    _parse_mu(cfg["mu"])
    _parse_delta(cfg["delta"])
    if cfg["name"] is None:
        cfg["name"] = args.command
    return cfg


@dataclass
class Problem:
    """A built test problem: the operator plus whatever came with it.

    eigs and y are the exact spectrum and eigenvectors when the generator
    provides them directly, None otherwise. Each command seeds its one
    `Operator` with eigs (or with eigenvalues it computes), so norm(A) is
    max|eigs|. v is the construction's own start block when it has one;
    commands that find None here draw one from the configured stream.
    """

    a: np.ndarray
    v: np.ndarray | None = None
    eigs: np.ndarray | None = None
    y: np.ndarray | None = None


def _whole(x, text):
    if not (x.is_integer() and x >= 1):
        raise ValueError("matrix size must be a whole number >= 1 in %r" % text)
    return int(x)


def _parse_matrix_spec(text):
    """Grammar: strakos48(l1,ln[,rho]) | strakos(n,l1,ln[,rho]) | random(n),
    each optionally suffixed  _kron  for the Kronecker-lifted variant.

    Returns ("strakos" or "kron", SpectrumSpec) or ("random", n).
    """
    spec = text.strip()
    kron = spec.endswith("_kron")
    spec = spec.removesuffix("_kron")
    if "(" not in spec or not spec.endswith(")"):
        raise ValueError("bad matrix spec %r" % text)
    head, _, inside = spec[:-1].partition("(")
    try:
        nums = [float(x) for x in inside.split(",")] if inside.strip() else []
    except ValueError:
        raise ValueError("bad matrix spec %r" % text) from None
    if head == "strakos48":
        if len(nums) not in (2, 3):
            raise ValueError("strakos48 takes (lambda_1, lambda_n[, rho])")
        sspec = strakos48(*nums)
    elif head == "strakos":
        if len(nums) not in (3, 4):
            raise ValueError("strakos takes (n, lambda_1, lambda_n[, rho])")
        sspec = SpectrumSpec(_whole(nums[0], text), *nums[1:])
    elif head == "random":
        if kron or len(nums) != 1:
            raise ValueError("random takes (n) and has no _kron form")
        return "random", _whole(nums[0], text)
    else:
        raise ValueError("unknown matrix generator %r" % head)
    return ("kron" if kron else "strakos"), sspec


def build_problem(cfg, rng):
    if cfg["mtx"] is not None:
        return Problem(read_matrix_market(cfg["mtx"]))
    kind, arg = _parse_matrix_spec(cfg["matrix"])
    if kind == "kron":
        return Problem(*kron_perturbed_problem(arg, cfg["p"], cfg["omega"], rng))
    eigs = strakos_spectrum(arg) if kind == "strakos" else np.sort(rng.uniform(0.05, 1.05, arg))
    a, y = spectrum_to_matrix(eigs, rng)
    return Problem(a, eigs=eigs, y=y)


def _run(cfg, problem, rng, k_max, mode="finite_precision"):
    """Block Lanczos on the problem's operator, seeded with its spectrum, from
    its own start block or from one drawn out of ``rng`` after the problem."""
    v = problem.v
    if v is None:
        v, _ = householder_qr(rng.standard_normal((problem.a.shape[0], cfg["p"])))
    return run_block_lanczos(Operator(problem.a, problem.eigs), v, k_max, mode)


# ---------------------------------------------------------------------------
# serialization

@functools.lru_cache(maxsize=None)
def _form(kinds):
    """printf format of one CSV row whose cells have the types ``kinds``."""
    return ",".join("%d" if issubclass(kind, (int, np.integer, np.bool_)) else
                    "%.17g" if issubclass(kind, (float, np.floating)) else "%s" for kind in kinds)


def _fmt(value):
    return _form((type(value),)) % (value,)


def _write_csv(path, cfg, comments, header, rows):
    echo = " ".join("%s=%s" % (key, _fmt(val)) for key, val in sorted(cfg.items()) if val is not None)
    lines = [
        "# experiment=%s version=%s seed=%d" % (cfg["name"], __version__, cfg["seed"]),
        "# config: %s" % echo,
    ]
    lines.extend("# %s" % c for c in comments)
    lines.append(",".join(header))
    lines.extend(_form(tuple(map(type, row))) % tuple(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")
    return path


# Every renderer is this body under its own SPEC. Guide lines read their
# values from the CSV's own key=value header comments, so a script never
# disagrees with the file it draws.
_PLOT_SCRIPT = '''\
#!/usr/bin/env python3
"""Auto-generated renderer for %s."""

from pathlib import Path

import matplotlib.pyplot as plt

SPEC = %s

lines = (Path(__file__).parent / SPEC["csv"]).read_text().splitlines()
meta = dict(t.split("=", 1) for line in lines if line.startswith("#")
            for t in line.split() if "=" in t)
table = [line.split(",") for line in lines if not line.startswith("#")]
col = {name: [row[i] for row in table[1:]] for i, name in enumerate(table[0])}
if SPEC["group"]:
    curves = {}
    for label, x, y in zip(col[SPEC["group"]], col[SPEC["x"]], col[SPEC["y"][0]]):
        curves.setdefault(label, []).append((float(x), float(y)))
    series = [(label, *zip(*sorted(curves[label]))) for label in sorted(curves)]
else:
    xs = [float(v) for v in col[SPEC["x"]]]
    series = [(name, xs, [float(v) for v in col[name]]) for name in SPEC["y"]]
fig, ax = plt.subplots(figsize=SPEC["figsize"])
labelled = len(series) > 1
for label, xs, ys in series:
    if SPEC["floor"] is not None:
        ys = [max(y, SPEC["floor"]) for y in ys]
    getattr(ax, SPEC["scale"])(xs, ys, SPEC["styles"].get(label, SPEC["fmt"]),
                               label=label if labelled else None)
for source, ls, label in SPEC["guides"]:
    value = meta.get(source, "None") if isinstance(source, str) else source
    if value != "None":
        ax.axhline(float(value), ls=ls, color="gray", label=label)
        labelled = labelled or label is not None
ax.set_xlabel(SPEC["xlabel"])
ax.set_ylabel(SPEC["ylabel"])
if labelled:
    ax.legend()
fig.tight_layout()
fig.savefig(Path(SPEC["csv"]).stem + ".png", dpi=150)
'''


def _write_plot(out, csv_name, x, y, xlabel, ylabel="", group=None, scale="semilogy",
                fmt="-", styles=None, figsize=(6, 4.5), floor=None, guides=()):
    """Write the renderer of ``csv_name`` next to it.

    Without ``group`` every column in ``y`` is one series against ``x``;
    with it, the rows split into one series per value of that column.
    ``styles`` maps a series to its own fmt string, ``floor`` lifts values
    below it (zero widths on a log axis), and each guide is a horizontal
    line ``(header key or constant, linestyle, legend label)``, skipped
    when the key's value is None.
    """
    spec = dict(csv=csv_name, x=x, y=list(y), group=group, scale=scale, xlabel=xlabel,
                ylabel=ylabel, fmt=fmt, styles=styles or {}, figsize=figsize, floor=floor,
                guides=list(guides))
    path = out / csv_name.replace(".csv", "_plot.py")
    path.write_text(_PLOT_SCRIPT % (csv_name, pformat(spec, sort_dicts=False)))
    return path


# ---------------------------------------------------------------------------
# blurred-cg

def _parse_delta(text):
    parts = [x.strip() for x in str(text).split(",") if x.strip()]
    if not 1 <= len(parts) <= 2:
        raise ValueError("--delta takes one or two comma-separated values")
    try:
        return [float(x) for x in parts]
    except ValueError:
        raise ValueError("--delta takes numbers, got %r" % text) from None


def cmd_blurred_cg(cfg, problem, rng, out):
    """trace-error curves: FP HS/DR block CG vs exact DR on blurred spectra"""
    eigs, y = (problem.eigs, problem.y) if problem.eigs is not None else sym_eig(problem.a)
    # both FP runs and the header share its norm and Cholesky factor
    a = Operator(problem.a, eigs)
    n = a.shape[0]
    p = cfg["p"]
    b = rng.standard_normal((n, p))
    raw_deltas = _parse_delta(cfg["delta"])
    scale = EPS * a.norm if cfg["delta_scale"] == "eps_norm" else 1.0
    deltas = [r * scale for r in raw_deltas]

    # every blur before any CG work, so a delta wider than a gap fails first
    blurred = [(eigs, y.T @ b) if cfg["m"] == 1 and delta == 0.0  # no blur: A diagonalized
               else blurred_problem(eigs, y, b, BlurSpec(cfg["m"], delta)) for delta in deltas]
    maxit = cfg["maxit"] or None  # 0: the solvers' default, the dimension
    series = [
        ("hs_fp", hs_bcg(a, b, maxit=maxit)),
        ("dr_fp", dr_bcg(a, b, maxit=maxit)),
    ]
    for idx, (a_hat, b_hat) in enumerate(blurred, start=1):
        hist = dr_bcg(a_hat, b_hat, maxit=maxit, exact_mode=True)
        series.append(("dr_exact_d%d" % idx, hist))

    comments = ["a_norm=%s delta_scale=%s" % (_fmt(a.norm), cfg["delta_scale"])]
    for (label, _), delta, raw in zip(series[2:], deltas, raw_deltas):
        comments.append("%s: delta_raw=%s delta_abs=%s" % (label, _fmt(raw), _fmt(delta)))
    reach = []
    for label, hist in series:
        it = hist.first_below(1e-12)
        reach.append("%s=%s" % (label, "none" if it is None else "%d" % it))
        if hist.failure:
            comments.append("halt %s: %s" % (label, hist.failure))
    comments.append("first_below_1e-12: %s" % " ".join(reach))

    # by iteration, then in series order (the sort is stable)
    rows = sorted(((it, float(err), label) for label, hist in series
                   for it, err in enumerate(hist.errors)), key=lambda row: row[0])
    return [
        _write_csv(out / "blurred_cg.csv", cfg, comments,
                   ("iteration", "trace_error", "series"), rows),
        _write_plot(out, "blurred_cg.csv", "iteration", ["trace_error"], "iteration",
                    "relative A-norm trace error", group="series", figsize=(7, 5),
                    styles={"dr_exact_d1": "--", "dr_exact_d2": "--"},
                    guides=[(1e-12, "-", None)]),
    ]


# ---------------------------------------------------------------------------
# fp-diagnostics

def cmd_fp_diagnostics(cfg, problem, rng, out):
    """recurrence health columns of a finite-precision run"""
    run = _run(cfg, problem, rng, cfg["k"])
    n, p = run.a.shape[0], run.width
    level = n * p * EPS
    comments = [
        "n=%d p=%d a_norm=%s" % (n, p, _fmt(run.a.norm)),
        "reference np_eps=%s np_eps_a_norm=%s" % (_fmt(level), _fmt(level * run.a.norm)),
        "terminated=%d steps=%d" % (1 if run.terminated else 0, run.n_steps),
    ]
    rows = zip(range(1, run.n_steps + 1), *run.diagnostics)
    return [
        _write_csv(out / "fp_diagnostics.csv", cfg, comments, ("j",) + Diagnostics._fields, rows),
        _write_plot(out, "fp_diagnostics.csv", "j", Diagnostics._fields, "step j", figsize=(7, 5),
                    guides=[("np_eps", "--", "np_eps"), ("np_eps_a_norm", ":", "np_eps_a_norm")]),
    ]


# ---------------------------------------------------------------------------
# continuation

def _parse_mu(text):
    """mu as a float, or None for 'auto'."""
    if str(text).strip() == "auto":
        return None
    try:
        mu = float(text)
    except ValueError:
        raise ValueError("--mu takes a number or 'auto', got %r" % text) from None
    if not mu > 0.0:  # also rejects NaN
        raise ValueError("--mu: mu must be > 0, got %r" % text)
    if np.isinf(mu):
        raise ValueError("--mu: mu must be finite, got %r" % text)
    return mu


def cmd_continuation(cfg, problem, rng, out):
    """selection, continuation, model assembly, spread and certificate"""
    run = _run(cfg, problem, rng, cfg["k"])
    n, p, k = run.a.shape[0], run.width, run.n_steps
    mu_val = _parse_mu(cfg["mu"]) or float(np.sqrt(k * n * p * EPS))  # None for auto

    pc = continue_prefix(run, k, mu_val)
    cont = pc.cont
    tn, sizes, certificate, spread = cont.tn, cont.block_sizes, pc.certificate, pc.spread
    clusters = classify_clusters(certificate.thetas, run.a.eigvals, run.a.norm, cfg["psi"], cfg["eta"])

    shared = [
        "k=%d mu=%s threshold=%s" % (k, _fmt(mu_val), _fmt(pc.threshold)),
        "selected_m=%d rho_k=%s" % (pc.m, _fmt(pc.rho_k)),
        "epsilon1=%s epsilon2=%s" % (_fmt(certificate.epsilon1), _fmt(cont.epsilon2)),
    ]

    # the closing step keeps rank zero, so it has an h entry but no panel
    h_rows = zip(range(1, cont.n_steps + 1), sizes[k:] + [0], cont.h_norms)

    # every prefix's terms need only continuation step 1
    term_rows = []
    for kk in range(1, k + 1):
        try:
            pc_kk = pc if kk == k else continue_prefix(run, kk, mu_val)
        except (EmptySelection, NearDependentRitzVectors):
            nan = float("nan")
            term_rows.append((kk, 0, nan, nan, nan, nan))
        else:
            term_rows.append((kk, pc_kk.m, pc_kk.rho_k) + pc_kk.terms)

    rows_i, cols_j = np.nonzero(tn)
    tn_rows = zip(rows_i, cols_j, tn[rows_i, cols_j])
    spread_rows = zip(spread.base_eigs, spread.widths, spread.counts)
    cluster_rows = [
        (c.kind, c.theta_min, c.theta_max, ";".join("%d" % i for i in c.members))
        for c in clusters
    ]
    return [
        _write_csv(out / "continuation_h_norms.csv", cfg,
                   shared + ["continuation_steps=%d rank_cut=%s"
                             % (cont.n_steps, _fmt(BREAKDOWN_TOL * run.a.norm))],
                   ("j", "width", "h_norm"), h_rows),
        _write_csv(out / "continuation_terms.csv", cfg,
                   shared + ["guide mu_a_norm=%s ten_mu_a_norm=%s"
                             % (_fmt(mu_val * run.a.norm), _fmt(10 * mu_val * run.a.norm))],
                   ("k", "m", "rho", "term21a", "term21b", "term22"), term_rows),
        _write_csv(out / "continuation_tn.csv", cfg,
                   shared + ["dim=%d n_blocks=%d" % (tn.shape[0], len(sizes)),
                             "block_sizes=%s" % ";".join("%d" % s for s in sizes),
                             "indices are 0-based"],
                   ("i", "j", "value"), tn_rows),
        _write_csv(out / "continuation_spread.csv", cfg,
                   shared + ["bound=%s holds=%s max_width=%s dim=%d"
                             % (_fmt(certificate.bound), _fmt(certificate.holds),
                                _fmt(spread.max_width), spread.dim)],
                   ("lambda", "width", "count"), spread_rows),
        _write_csv(out / "continuation_clusters.csv", cfg,
                   shared + ["psi=%s eta=%s" % (_fmt(cfg["psi"]), _fmt(cfg["eta"]))],
                   ("kind", "theta_min", "theta_max", "members"), cluster_rows),
        _write_plot(out, "continuation_h_norms.csv", "j", ["h_norm"], "continuation step",
                    "discarded component norm", fmt="o-"),
        _write_plot(out, "continuation_terms.csv", "k", ["term21a", "term21b", "term22"],
                    "prefix length k", fmt="o-", guides=[("mu_a_norm", "--", "mu*norm(A)")]),
        _write_plot(out, "continuation_spread.csv", "lambda", ["width"], "reference eigenvalue",
                    "interval width", scale="loglog", fmt=".", floor=1e-18,
                    guides=[("bound", "--", "certificate bound")]),
    ]


# ---------------------------------------------------------------------------
# interlacing

def cmd_interlacing(cfg, problem, rng, out):
    """exact-run interlacing table and containment scan"""
    p = cfg["p"]  # a _kron start block has p columns too
    run = _run(cfg, problem, rng, cfg["k"], "simulated_exact")
    thetas = [ritz_analysis(run, kk).thetas for kk in range(1, run.n_steps + 1)]

    eq6_total = sum(2 + 2 * (prev.size - p) for prev in thetas[:-1])
    eq6_bad = sum(len(interlacing_check(prev, nxt, p)) for prev, nxt in zip(thetas, thetas[1:]))

    scan = conjecture_scan(thetas, p)
    comments = [
        "steps=%d p=%d" % (len(thetas), p),
        "eq6_inequalities=%d eq6_violations=%d" % (eq6_total, eq6_bad),
        "conjecture_checks=%d confirmations=%d violations=%d percentage=%s"
        % (scan.checks, scan.confirmations, len(scan.violations), _fmt(scan.percentage)),
    ]
    return [
        _write_csv(out / "interlacing.csv", cfg, comments,
                   ("k", "i", "j", "theta_lo", "theta_hi", "contains"), scan.rows)
    ]


# ---------------------------------------------------------------------------
# entry point

# Each command takes (cfg, problem, rng, out). main builds the problem from
# the seeded stream first; a command draws its start block or right-hand
# side from the same stream afterwards.
_COMMANDS = {
    "blurred-cg": cmd_blurred_cg,
    "fp-diagnostics": cmd_fp_diagnostics,
    "continuation": cmd_continuation,
    "interlacing": cmd_interlacing,
}


class _Parser(argparse.ArgumentParser):
    """Reads '--eta -1e-3' as '--eta=-1e-3': argparse alone takes a token that
    starts with '-' for a flag unless it reads like '-1' or '-.5'."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for token in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in _VALUE_FLAGS and re.match(r"-\.?\d", token):
                token = joined.pop() + "=" + token
            joined.append(token)
        return super().parse_known_args(joined, namespace)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command line parser, built once per process."""
    parser = _Parser(
        prog="blocklanczos",
        description="Run block Lanczos and block CG experiments, writing CSV artifacts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cp = sub.add_parser(name, help=command.__doc__)
        cp.add_argument("--config", help="key=value file; flags override it")
        for key, (_, kind, text) in OPTIONS.items():
            cp.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=text)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(cfg["seed"])
        paths = _COMMANDS[args.command](cfg, build_problem(cfg, rng), rng, out)
    except (BlockLanczosError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for path in paths:
        print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
