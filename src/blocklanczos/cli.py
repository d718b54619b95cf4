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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    classify_clusters,
    conjecture_scan,
    interlacing_check,
    interval_spread,
    theorem1_certificate,
)
from .cg import dr_bcg, hs_bcg
from .continuation import assemble_tn, continue_prefix, prefix_terms
from .errors import BlockLanczosError, EmptySelection, NearDependentRitzVectors
from .lanczos import recurrence_diagnostics, ritz_analysis, run_block_lanczos
from .linalg import densify, householder_qr, stack_panels, sym_eig
from .matrices import (
    BlurSpec,
    SpectrumSpec,
    blurred_problem,
    kron_perturbed_problem,
    read_matrix_market,
    spectrum_to_matrix,
    strakos_spectrum,
)

EPS = float(np.finfo(float).eps)

DEFAULTS = {
    "matrix": None,
    "mtx": None,
    "name": None,
    "p": 2,
    "k": 24,
    "mu": "auto",
    "psi": EPS ** 0.5,
    "eta": EPS ** 0.5,
    "svd_tol": 1e-12,
    "delta": "100,0.5",
    "delta_scale": "eps_norm",
    "m": 11,
    "seed": 1,
    "maxit": 0,
    "omega": 1e-12,
    "out": ".",
}

_CONVERT = {
    "p": int,
    "k": int,
    "m": int,
    "seed": int,
    "maxit": int,
    "psi": float,
    "eta": float,
    "svd_tol": float,
    "omega": float,
    "matrix": str,
    "mtx": str,
    "name": str,
    "mu": str,
    "delta": str,
    "delta_scale": str,
    "out": str,
}


def _read_config_file(path):
    """Plain key=value lines; blank lines and '#' comments are skipped."""
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
        if key not in DEFAULTS:
            raise ValueError("config line %d: unknown key %r" % (lineno, key))
        values[key] = val.strip()
    return values


def resolve_config(args):
    """Merge flags over config-file entries over built-in defaults."""
    from_file = _read_config_file(args.config) if args.config else {}
    cfg = {}
    for key, fallback in DEFAULTS.items():
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
        elif key in from_file:
            cfg[key] = _CONVERT[key](from_file[key])
        else:
            cfg[key] = fallback
    if (cfg["matrix"] is None) == (cfg["mtx"] is None):
        raise ValueError("need exactly one of --matrix or --mtx")
    if cfg["delta_scale"] not in ("eps_norm", "abs"):
        raise ValueError("--delta-scale must be eps_norm or abs")
    if cfg["name"] is None:
        cfg["name"] = args.command
    return cfg


@dataclass
class Problem:
    """A built test problem: the operator plus whatever came with it.

    eigs and y are the exact spectrum and eigenvectors when the generator
    provides them directly, None otherwise (they can always be recovered
    with sym_eig). v is the construction's own start block when it has
    one; commands that need a start block and find None here draw a
    random one from the configured stream.
    """

    a: np.ndarray
    v: np.ndarray | None
    eigs: np.ndarray | None
    y: np.ndarray | None


def _parse_matrix_spec(text, p, omega):
    """Grammar: strakos48(l1,ln[,rho]) | strakos(n,l1,ln[,rho]) | random(n),
    each optionally suffixed  _kron  for the Kronecker-lifted variant."""
    spec = text.strip()
    kron = spec.endswith("_kron")
    if kron:
        spec = spec[: -len("_kron")]
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
        sspec = SpectrumSpec(48, nums[0], nums[1], nums[2] if len(nums) == 3 else 0.8)
    elif head == "strakos":
        if len(nums) not in (3, 4):
            raise ValueError("strakos takes (n, lambda_1, lambda_n[, rho])")
        sspec = SpectrumSpec(int(nums[0]), nums[1], nums[2], nums[3] if len(nums) == 4 else 0.8)
    elif head == "random":
        if kron or len(nums) != 1:
            raise ValueError("random takes (n) and has no _kron form")
        return ("random", int(nums[0]))
    else:
        raise ValueError("unknown matrix generator %r" % head)
    return ("kron", sspec, p, omega) if kron else ("strakos", sspec)


def build_problem(cfg, rng):
    if cfg["mtx"] is not None:
        a = read_matrix_market(cfg["mtx"])
        return Problem(a=a, v=None, eigs=None, y=None)
    parsed = _parse_matrix_spec(cfg["matrix"], cfg["p"], cfg["omega"])
    if parsed[0] == "strakos":
        eigs = strakos_spectrum(parsed[1])
        a, y = spectrum_to_matrix(eigs, rng)
        return Problem(a=a, v=None, eigs=eigs, y=y)
    if parsed[0] == "random":
        eigs = np.sort(rng.uniform(0.05, 1.05, parsed[1]))
        a, y = spectrum_to_matrix(eigs, rng)
        return Problem(a=a, v=None, eigs=eigs, y=y)
    _, sspec, p, omega = parsed
    a, v = kron_perturbed_problem(sspec, p, omega, rng)
    return Problem(a=a, v=v, eigs=None, y=None)


def _start_block(problem, cfg, rng):
    if problem.v is not None:
        return problem.v
    q, _ = householder_qr(rng.standard_normal((problem.a.shape[0], cfg["p"])))
    return q


def _spectral_data(problem):
    """Exact spectrum and eigenvectors, computing them when the generator
    did not hand them over."""
    if problem.eigs is not None:
        return problem.eigs, problem.y
    return sym_eig(problem.a)


# ---------------------------------------------------------------------------
# serialization

def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _config_echo(cfg):
    parts = []
    for key in sorted(cfg):
        if cfg[key] is None:
            continue
        parts.append("%s=%s" % (key, _fmt(cfg[key])))
    return " ".join(parts)


def _write_csv(path, cfg, comments, header, rows):
    lines = [
        "# experiment=%s version=%s seed=%d" % (cfg["name"], __version__, cfg["seed"]),
        "# config: %s" % _config_echo(cfg),
    ]
    lines.extend("# %s" % c for c in comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")
    return path


def _write_script(path, text):
    Path(path).write_text(text)
    return path


_PLOT_PREAMBLE = (
    "#!/usr/bin/env python3\n"
    '"""Auto-generated renderer for %s."""\n\n'
    "import csv\n"
    "from pathlib import Path\n\n"
    "import matplotlib.pyplot as plt\n\n\n"
    "def load(name):\n"
    "    rows = []\n"
    "    with open(Path(__file__).parent / name) as fh:\n"
    "        for line in fh:\n"
    "            if not line.startswith('#'):\n"
    "                rows.append(line.rstrip('\\n'))\n"
    "    table = list(csv.reader(rows))\n"
    "    return table[0], table[1:]\n\n\n"
)


# ---------------------------------------------------------------------------
# blurred-cg

def _resolve_deltas(cfg, a_norm):
    parts = [x.strip() for x in str(cfg["delta"]).split(",") if x.strip()]
    if not 1 <= len(parts) <= 2:
        raise ValueError("--delta takes one or two comma-separated values")
    raw = [float(x) for x in parts]
    scale = EPS * a_norm if cfg["delta_scale"] == "eps_norm" else 1.0
    return [r * scale for r in raw], raw


def cmd_blurred_cg(cfg, out):
    rng = np.random.default_rng(cfg["seed"])
    problem = build_problem(cfg, rng)
    eigs, y = _spectral_data(problem)
    n = problem.a.shape[0]
    p = cfg["p"]
    b = rng.standard_normal((n, p))
    a_norm = float(np.max(np.abs(eigs)))
    deltas, raw_deltas = _resolve_deltas(cfg, a_norm)

    maxit = cfg["maxit"] if cfg["maxit"] > 0 else n
    series = [
        ("hs_fp", hs_bcg(problem.a, b, maxit=maxit)),
        ("dr_fp", dr_bcg(problem.a, b, maxit=maxit)),
    ]
    for idx, delta in enumerate(deltas, start=1):
        if cfg["m"] == 1 and delta == 0.0:
            # degenerate blur: the diagonalized original problem
            a_hat, b_hat = eigs, y.T @ b
        else:
            a_hat, b_hat = blurred_problem(eigs, y, b, BlurSpec(cfg["m"], delta))
        blur_maxit = cfg["maxit"] if cfg["maxit"] > 0 else a_hat.size
        hist = dr_bcg(np.diag(a_hat), b_hat, maxit=blur_maxit, exact_mode=True)
        series.append(("dr_exact_d%d" % idx, hist))

    comments = ["a_norm=%s delta_scale=%s" % (_fmt(a_norm), cfg["delta_scale"])]
    for (label, _), delta, raw in zip(series[2:], deltas, raw_deltas):
        comments.append("%s: delta_raw=%s delta_abs=%s" % (label, _fmt(raw), _fmt(delta)))
    reach = []
    for label, hist in series:
        it = hist.first_below(1e-12)
        reach.append("%s=%s" % (label, "none" if it is None else "%d" % it))
        if hist.failure:
            comments.append("halt %s: %s" % (label, hist.failure))
    comments.append("first_below_1e-12: %s" % " ".join(reach))

    rows = []
    longest = max(len(hist.errors) for _, hist in series)
    for it in range(longest):
        for label, hist in series:
            if it < len(hist.errors):
                rows.append((it, float(hist.errors[it]), label))
    paths = [
        _write_csv(out / "blurred_cg.csv", cfg, comments,
                   ("iteration", "trace_error", "series"), rows)
    ]

    script = _PLOT_PREAMBLE % "blurred_cg.csv" + (
        "header, rows = load('blurred_cg.csv')\n"
        "curves = {}\n"
        "for it, err, label in rows:\n"
        "    curves.setdefault(label, []).append((int(it), float(err)))\n"
        "fig, ax = plt.subplots(figsize=(7, 5))\n"
        "styles = {'hs_fp': '-', 'dr_fp': '-', 'dr_exact_d1': '--', 'dr_exact_d2': '--'}\n"
        "for label in sorted(curves):\n"
        "    pts = sorted(curves[label])\n"
        "    ax.semilogy([q[0] for q in pts], [q[1] for q in pts],\n"
        "                styles.get(label, '-'), label=label)\n"
        "ax.axhline(1e-12, color='gray', lw=0.5)\n"
        "ax.set_xlabel('iteration')\n"
        "ax.set_ylabel('relative A-norm trace error')\n"
        "ax.legend()\n"
        "fig.tight_layout()\n"
        "fig.savefig('blurred_cg.png', dpi=150)\n"
    )
    paths.append(_write_script(out / "blurred_cg_plot.py", script))
    return paths


# ---------------------------------------------------------------------------
# fp-diagnostics

def cmd_fp_diagnostics(cfg, out):
    rng = np.random.default_rng(cfg["seed"])
    problem = build_problem(cfg, rng)
    v = _start_block(problem, cfg, rng)
    run = run_block_lanczos(problem.a, v, k_max=cfg["k"], mode="finite_precision")
    n, p = problem.a.shape[0], v.shape[1]
    level = n * p * EPS
    comments = [
        "n=%d p=%d a_norm=%s" % (n, p, _fmt(run.a_norm)),
        "reference np_eps=%s np_eps_a_norm=%s" % (_fmt(level), _fmt(level * run.a_norm)),
        "terminated=%d steps=%d" % (1 if run.terminated else 0, run.n_steps),
    ]
    rows = [
        (r.j, r.delta_v_norm, r.normality, r.local_orth, r.beta_norm, r.global_orth)
        for r in recurrence_diagnostics(run)
    ]
    paths = [
        _write_csv(out / "fp_diagnostics.csv", cfg, comments,
                   ("j", "delta_v_norm", "normality", "local_orth", "beta_norm", "global_orth"),
                   rows)
    ]
    script = _PLOT_PREAMBLE % "fp_diagnostics.csv" + (
        "header, rows = load('fp_diagnostics.csv')\n"
        "cols = list(zip(*[[float(x) for x in row] for row in rows]))\n"
        "fig, ax = plt.subplots(figsize=(7, 5))\n"
        "for name, values in zip(header[1:], cols[1:]):\n"
        "    ax.semilogy(cols[0], values, label=name)\n"
        "ax.axhline(%s, ls='--', color='gray', label='np_eps')\n"
        "ax.axhline(%s, ls=':', color='gray', label='np_eps_a_norm')\n"
        "ax.set_xlabel('step j')\n"
        "ax.legend(fontsize=8)\n"
        "fig.tight_layout()\n"
        "fig.savefig('fp_diagnostics.png', dpi=150)\n"
    ) % (_fmt(level), _fmt(level * run.a_norm))
    paths.append(_write_script(out / "fp_diagnostics_plot.py", script))
    return paths


# ---------------------------------------------------------------------------
# continuation

def _resolve_mu(text, k, n, p):
    if str(text).strip() == "auto":
        return float(np.sqrt(k * n * p * EPS))
    return float(text)


def cmd_continuation(cfg, out):
    rng = np.random.default_rng(cfg["seed"])
    problem = build_problem(cfg, rng)
    v = _start_block(problem, cfg, rng)
    n, p = problem.a.shape[0], v.shape[1]
    run = run_block_lanczos(problem.a, v, k_max=cfg["k"], mode="finite_precision")
    k = run.n_steps
    mu_val = _resolve_mu(cfg["mu"], k, n, p)

    pipeline = continue_prefix(problem.a, run, k, mu_val, cfg["svd_tol"])
    selection, cont, report = pipeline.selection, pipeline.cont, pipeline.report
    tn = assemble_tn(run.t, None, cont)
    basis = stack_panels(run.panels[:k] + cont.q_panels)
    certificate = theorem1_certificate(tn, basis, problem.a, cont.epsilon2)
    base_eigs, _ = _spectral_data(problem)
    tn_eigs, _ = sym_eig(densify(tn))
    spread = interval_spread(
        tn_eigs, base_eigs,
        epsilon1=certificate.epsilon1, epsilon2=cont.epsilon2,
        a_norm=run.a_norm, n_blocks=tn.n_blocks,
    )
    clusters = classify_clusters(tn_eigs, base_eigs, run.a_norm, cfg["psi"], cfg["eta"])

    shared = [
        "k=%d mu=%s threshold=%s" % (k, _fmt(mu_val), _fmt(selection.threshold)),
        "selected_m=%d rho_k=%s" % (selection.m, _fmt(selection.rho_k)),
        "epsilon1=%s epsilon2=%s" % (_fmt(certificate.epsilon1), _fmt(cont.epsilon2)),
    ]

    # the closing step keeps rank zero, so it has an h entry but no panel
    rows = [
        (j, cont.widths[j - 1] if j <= len(cont.widths) else 0, cont.h_norms[j - 1])
        for j in range(1, cont.n_steps + 1)
    ]
    paths = [
        _write_csv(out / "continuation_h_norms.csv", cfg,
                   shared + ["continuation_steps=%d svd_tol=%s" % (cont.n_steps, _fmt(cfg["svd_tol"]))],
                   ("j", "width", "h_norm"), rows)
    ]

    # shorter prefixes need only continuation step 1 for their terms
    term_rows = []
    for kk in range(1, k):
        try:
            sel_kk, terms = prefix_terms(problem.a, run, kk, mu_val, cfg["svd_tol"])
            term_rows.append((kk, sel_kk.m, sel_kk.rho_k) + terms)
        except (EmptySelection, NearDependentRitzVectors):
            nan = float("nan")
            term_rows.append((kk, 0, nan, nan, nan, nan))
    term_rows.append((k, selection.m, selection.rho_k,
                      report.term21a, report.term21b, report.term22))
    paths.append(
        _write_csv(out / "continuation_terms.csv", cfg,
                   shared + ["guide mu_a_norm=%s ten_mu_a_norm=%s"
                             % (_fmt(mu_val * run.a_norm), _fmt(10 * mu_val * run.a_norm))],
                   ("k", "m", "rho", "term21a", "term21b", "term22"), term_rows)
    )

    dense = densify(tn)
    rows_i, cols_j = np.nonzero(dense)
    tn_rows = zip(rows_i, cols_j, dense[rows_i, cols_j])
    sizes = ";".join("%d" % s for s in tn.block_sizes)
    paths.append(
        _write_csv(out / "continuation_tn.csv", cfg,
                   shared + ["dim=%d n_blocks=%d" % (tn.dim, tn.n_blocks),
                             "block_sizes=%s" % sizes,
                             "indices are 0-based"],
                   ("i", "j", "value"), tn_rows)
    )

    spread_rows = list(zip(spread.base_eigs, spread.widths, spread.counts))
    paths.append(
        _write_csv(out / "continuation_spread.csv", cfg,
                   shared + ["bound=%s holds=%s max_width=%s dim=%d"
                             % (_fmt(spread.bound), _fmt(certificate.holds),
                                _fmt(spread.max_width), spread.dim)],
                   ("lambda", "width", "count"), spread_rows)
    )

    cluster_rows = [
        (c.kind, c.theta_min, c.theta_max, ";".join("%d" % i for i in c.members))
        for c in clusters
    ]
    paths.append(
        _write_csv(out / "continuation_clusters.csv", cfg,
                   shared + ["psi=%s eta=%s" % (_fmt(cfg["psi"]), _fmt(cfg["eta"]))],
                   ("kind", "theta_min", "theta_max", "members"), cluster_rows)
    )

    h_script = _PLOT_PREAMBLE % "continuation_h_norms.csv" + (
        "header, rows = load('continuation_h_norms.csv')\n"
        "j = [int(r[0]) for r in rows]\n"
        "h = [float(r[2]) for r in rows]\n"
        "fig, ax = plt.subplots(figsize=(6, 4.5))\n"
        "ax.semilogy(j, h, 'o-')\n"
        "ax.set_xlabel('continuation step')\n"
        "ax.set_ylabel('discarded component norm')\n"
        "fig.tight_layout()\n"
        "fig.savefig('continuation_h_norms.png', dpi=150)\n"
    )
    paths.append(_write_script(out / "continuation_h_norms_plot.py", h_script))

    t_script = _PLOT_PREAMBLE % "continuation_terms.csv" + (
        "header, rows = load('continuation_terms.csv')\n"
        "k = [int(r[0]) for r in rows]\n"
        "fig, ax = plt.subplots(figsize=(6, 4.5))\n"
        "for col, name in ((3, 'term21a'), (4, 'term21b'), (5, 'term22')):\n"
        "    ax.semilogy(k, [float(r[col]) for r in rows], 'o-', label=name)\n"
        "ax.axhline(%s, ls='--', color='gray', label='mu*norm(A)')\n"
        "ax.set_xlabel('prefix length k')\n"
        "ax.legend()\n"
        "fig.tight_layout()\n"
        "fig.savefig('continuation_terms.png', dpi=150)\n"
    ) % _fmt(mu_val * run.a_norm)
    paths.append(_write_script(out / "continuation_terms_plot.py", t_script))

    s_script = _PLOT_PREAMBLE % "continuation_spread.csv" + (
        "header, rows = load('continuation_spread.csv')\n"
        "lam = [float(r[0]) for r in rows]\n"
        "width = [float(r[1]) for r in rows]\n"
        "fig, ax = plt.subplots(figsize=(6, 4.5))\n"
        "ax.loglog(lam, [max(w, 1e-18) for w in width], '.')\n"
    )
    if spread.bound is not None:
        s_script += "ax.axhline(%s, ls='--', color='gray', label='certificate bound')\nax.legend()\n" % _fmt(spread.bound)
    s_script += (
        "ax.set_xlabel('reference eigenvalue')\n"
        "ax.set_ylabel('interval width')\n"
        "fig.tight_layout()\n"
        "fig.savefig('continuation_spread.png', dpi=150)\n"
    )
    paths.append(_write_script(out / "continuation_spread_plot.py", s_script))
    return paths


# ---------------------------------------------------------------------------
# interlacing

def cmd_interlacing(cfg, out):
    rng = np.random.default_rng(cfg["seed"])
    problem = build_problem(cfg, rng)
    v = _start_block(problem, cfg, rng)
    n, p = problem.a.shape[0], v.shape[1]
    k_max = min(cfg["k"], n // p)
    run = run_block_lanczos(problem.a, v, k_max=k_max, mode="simulated_exact")
    thetas = [ritz_analysis(run, kk).thetas for kk in range(1, run.n_steps + 1)]

    eq6_total = 0
    eq6_bad = 0
    for kk in range(1, len(thetas)):
        small = thetas[kk - 1].size
        eq6_total += 2 + 2 * (small - p)
        eq6_bad += len(interlacing_check(thetas[kk - 1], thetas[kk], p))

    rows = []
    for ki in range(len(thetas) - 1):
        th = thetas[ki]
        for i0 in range(th.size - p):
            lo, hi = float(th[i0]), float(th[i0 + p])
            for ji in range(ki + 1, len(thetas)):
                later = thetas[ji]
                inside = int(np.searchsorted(later, hi, side="left")
                             - np.searchsorted(later, lo, side="right"))
                rows.append((ki + 1, i0 + 1, ji + 1, lo, hi, 1 if inside > 0 else 0))

    scan = conjecture_scan(thetas, p)
    comments = [
        "steps=%d p=%d" % (len(thetas), p),
        "eq6_inequalities=%d eq6_violations=%d" % (eq6_total, eq6_bad),
        "conjecture_checks=%d confirmations=%d violations=%d percentage=%s"
        % (scan.checks, scan.confirmations, len(scan.violations), _fmt(scan.percentage)),
    ]
    return [
        _write_csv(out / "interlacing.csv", cfg, comments,
                   ("k", "i", "j", "theta_lo", "theta_hi", "contains"), rows)
    ]


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "blurred-cg": cmd_blurred_cg,
    "fp-diagnostics": cmd_fp_diagnostics,
    "continuation": cmd_continuation,
    "interlacing": cmd_interlacing,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blocklanczos",
        description="Run block Lanczos and block CG experiments, writing CSV artifacts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "blurred-cg": "trace-error curves: FP HS/DR block CG vs exact DR on blurred spectra",
        "fp-diagnostics": "recurrence health columns of a finite-precision run",
        "continuation": "selection, continuation, model assembly, spread and certificate",
        "interlacing": "exact-run interlacing table and containment scan",
    }
    for name in _COMMANDS:
        cp = sub.add_parser(name, help=helps[name])
        cp.add_argument("--config", help="key=value file; flags override it")
        cp.add_argument("--matrix",
                        help="generator spec: strakos48(l1,ln[,rho]), strakos(n,l1,ln[,rho]), "
                             "random(n); append _kron for the Kronecker-lifted form")
        cp.add_argument("--mtx", help="path to a Matrix Market file instead of --matrix")
        cp.add_argument("--name", help="experiment name recorded in headers (default: subcommand)")
        cp.add_argument("--p", type=int, help="block width")
        cp.add_argument("--k", type=int, help="number of recurrence steps")
        cp.add_argument("--mu", help="selection threshold, a float or 'auto' for sqrt(k n p eps)")
        cp.add_argument("--psi", type=float, help="cluster chaining distance, units of norm(A)")
        cp.add_argument("--eta", type=float, help="cluster properness margin, units of norm(A)")
        cp.add_argument("--svd-tol", dest="svd_tol", type=float,
                        help="absolute singular value cutoff in the continuation")
        cp.add_argument("--delta", help="one or two blur widths, comma separated")
        cp.add_argument("--delta-scale", dest="delta_scale", choices=("eps_norm", "abs"),
                        help="delta units: multiples of eps*norm(A), or absolute")
        cp.add_argument("--m", type=int, help="blur multiplicity per eigenvalue")
        cp.add_argument("--seed", type=int, help="seed for every random draw")
        cp.add_argument("--maxit", type=int, help="CG iteration cap, 0 for the dimension")
        cp.add_argument("--omega", type=float, help="Kronecker perturbation size")
        cp.add_argument("--out", help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        paths = _COMMANDS[args.command](cfg, out)
    except (BlockLanczosError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for path in paths:
        print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
