#!/usr/bin/env python3
"""Check that a source tree of the package writes the same bytes as
another tree, or as a committed list of digests.

    python tools/same_outputs.py OLD_SRC NEW_SRC
    python tools/same_outputs.py --write DIGESTS SRC
    python tools/same_outputs.py --check DIGESTS SRC

OLD_SRC, NEW_SRC and SRC are directories holding a ``blocklanczos``
package (a checkout's ``src/``). Every configuration of the fixed list
below runs once against each tree, in a subprocess with PYTHONPATH set to
that tree and in a fresh working directory of its own, always with
``--out out``, so the ``out=`` echo of the provenance headers is the same
on both sides. A ``library_`` case runs LIBRARY_VALUES instead of the command
line: it rebuilds a ``continuation`` configuration's run and prints, for
every prefix, values the package computes there that no CSV shows. The
script prints every output file, standard output, standard error or
exit status whose bytes (compared by their SHA-256) differ between the
trees, and exits 1 if any does, 0 if none does. A configuration that
fails on the old tree is named as well, since two equal failures compare
nothing.

``--write`` stores one SHA-256 per output of SRC in DIGESTS, under a
header naming the Python, the numpy and the BLAS that numpy reports;
``--check`` compares SRC with those digests as with an old tree. Last
bits depend on that environment, so ``--check`` exits 2 with
"environment differs", running nothing, when the header does not match
the running one.

The list holds the argv of the four benchmark workloads at seeds 1-10,
as ``bench/workloads.py`` builds them (``blurred-cg`` reads the operator
file its workload writes, saved as ``operator.mtx`` and the same for both
trees), three ``continuation`` configurations at seeds 1-10,
``interlacing`` on a ``_kron`` problem and ``blurred-cg`` on a generated
spectrum at seeds 1-3, the four commands of the README, and a
``library_`` case for each of the ``continuation`` configurations.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# the benchmark's workload table, run from the source file bench/workloads.py
BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
# case name prefix -> benchmark workload; a case runs the workload's argv at its seed
BENCH_CASES = {"bench_blurred_cg": "blurred_cg", "bench_fp_diagnostics": "fp_diagnostics",
               "bench_interlacing": "interlacing_scan", "continuation_strakos": "continuation_scan"}
MTX = "operator.mtx"  # where a blurred-cg case's operator file is saved

# ``python -c LIBRARY_VALUES ARGV...`` with ARGV a continuation command
# line makes that command's run and mu, then prints per prefix the
# monitored terms, the decomposition remainders, the certificate's bound,
# epsilon1 and holds, and digests of the bytes of its eigenvalues and of
# its spread widths; or the name of the error that stopped the prefix.
LIBRARY_VALUES = """
import hashlib, sys
import numpy as np
from blocklanczos import BlockLanczosError, cli, continue_prefix
cfg = cli.resolve_config(cli.build_parser().parse_args(sys.argv[1:]))
rng = np.random.default_rng(cfg["seed"])
run = cli._run(cfg, cli.build_problem(cfg, rng), rng, cfg["k"])
n, p, k = run.a.shape[0], run.width, run.n_steps
mu = cli._parse_mu(cfg["mu"]) or float(np.sqrt(k * n * p * cli.EPS))
digest = lambda x: hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
for kk in range(1, k + 1):
    try:
        pc = continue_prefix(run, kk, mu)
        print(kk, repr(pc.terms))
        print(kk, repr(pc.delta_norms))
        cert = pc.certificate
        print(kk, repr((cert.bound, cert.epsilon1, cert.holds)))
        print(kk, digest(cert.thetas), digest(cert.spread.widths))
    except BlockLanczosError as exc:
        print(kk, type(exc).__name__)
"""


def cli_configs():
    """Yield ``(case name, argv)``; an argv holding MTX reads the seed's operator file."""
    for seed in range(1, 11):
        s = str(seed)
        for case, workload in BENCH_CASES.items():
            yield "%s_%d" % (case, seed), WORKLOADS[workload].argv(seed, MTX)
        yield "continuation_kron_%d" % seed, ["continuation", "--matrix",
                                              "strakos48(0.1,100)_kron", "--k", "24", "--mu",
                                              "auto", "--seed", s]
        yield "continuation_random_%d" % seed, ["continuation", "--matrix", "random(60)", "--p",
                                                "3", "--k", "15", "--mu", "1e-6", "--seed", s]
    for seed in range(1, 4):
        s = str(seed)
        yield "interlacing_kron_%d" % seed, ["interlacing", "--matrix",
                                             "strakos48(0.1,100)_kron", "--seed", s]
        yield "blurred_cg_strakos48_%d" % seed, ["blurred-cg", "--matrix",
                                                 "strakos48(0.1,100)", "--seed", s]
    yield "readme_blurred_cg", ["blurred-cg", "--matrix", "strakos48(0.1,100)", "--p", "2"]
    yield "readme_fp_diagnostics", ["fp-diagnostics", "--matrix", "strakos48(0.1,100)",
                                    "--k", "24"]
    yield "readme_continuation", ["continuation", "--matrix", "strakos48(0.1,100)_kron",
                                  "--k", "24", "--mu", "auto"]
    yield "readme_interlacing", ["interlacing", "--matrix", "strakos(16,0.5,4)", "--p", "2",
                                 "--k", "8"]


def configs():
    """The command-line cases, each ``continuation`` one followed by a
    ``library_`` case whose argv runs LIBRARY_VALUES on it."""
    for case, argv in cli_configs():
        yield case, argv
        if case.startswith("continuation_"):
            yield "library_" + case, ["-c", LIBRARY_VALUES, *argv]


def run_case(src: Path, workdir: Path, argv: list) -> dict:
    """Run one configuration against one tree; map each produced name to its bytes."""
    workdir.mkdir(parents=True)
    if MTX in argv:
        seed = int(argv[argv.index("--seed") + 1])
        WORKLOADS["blurred_cg"].prepare(seed, workdir).rename(workdir / MTX)
    env = dict(os.environ, PYTHONPATH=str(src))
    command = argv if argv[0] == "-c" else ["-m", "blocklanczos.cli", *argv, "--out", "out"]
    proc = subprocess.run([sys.executable, *command], cwd=workdir, env=env, capture_output=True)
    found = {"<stdout>": proc.stdout, "<stderr>": proc.stderr,
             "<exit status>": str(proc.returncode).encode()}
    out = workdir / "out"
    if out.is_dir():
        found.update((str(p.relative_to(out)), p.read_bytes())
                     for p in sorted(out.rglob("*")) if p.is_file())
    return found


def environment() -> str:
    """The Python, the numpy and the BLAS numpy was built with, on one line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "python=%s numpy=%s blas=%s %s (%s)" % (
        platform.python_version(), np.__version__, blas.get("name"), blas.get("version"),
        blas.get("openblas configuration", "no configuration reported"))


def digests(src: Path, tmp: Path) -> dict:
    """Map ``case/name`` to the SHA-256 of that output of every case on one tree."""
    return {"%s/%s" % (case, name): hashlib.sha256(data).hexdigest()
            for case, argv in configs()
            for name, data in run_case(src, tmp / case, argv).items()}


def compare(old: dict, new: dict) -> int:
    """Print what failed on the old side and every output whose digest
    differs; 1 if any does, 0 if none does."""
    ok = hashlib.sha256(b"0").hexdigest()
    for key in sorted(old):
        case, _, name = key.partition("/")
        if name == "<exit status>" and old[key] != ok:
            print("FAILED %s: nonzero exit status" % case)
    keys = sorted(old.keys() | new.keys())
    differ = [key for key in keys if old.get(key) != new.get(key)]
    for key in differ:
        print("DIFFERS %s: %s" % tuple(key.split("/", 1)))
    print("%d of %d outputs differ" % (len(differ), len(keys)))
    return 1 if differ else 0


def read_digests(path: Path) -> tuple:
    """``(environment, {case/name: digest})`` of a DIGESTS file."""
    lines = path.read_text().splitlines()
    env = lines[1].removeprefix("# environment: ")
    table = dict(line.split("  ", 1)[::-1] for line in lines[2:])
    return env, table


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", type=Path, metavar="DIGESTS",
                      help="store the digests of SRC's outputs in DIGESTS")
    mode.add_argument("--check", type=Path, metavar="DIGESTS",
                      help="compare SRC's outputs with the digests in DIGESTS")
    parser.add_argument("src", type=Path, nargs="+", metavar="SRC",
                        help="OLD_SRC NEW_SRC, or one SRC with --write or --check")
    ns = parser.parse_args(args)
    if len(ns.src) != (1 if ns.write or ns.check else 2):
        parser.error("give two trees, or one with --write or --check")
    trees = [src.resolve() for src in ns.src]
    for src in trees:
        if not (src / "blocklanczos" / "__init__.py").is_file():
            parser.error("tree %s holds no blocklanczos package" % src)
    if ns.check:
        env, old = read_digests(ns.check)
        if env != environment():
            print("environment differs:\n  recorded %s\n  here     %s" % (env, environment()))
            return 2
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        found = [digests(src, Path(tmp) / str(i)) for i, src in enumerate(trees)]
    if ns.write:
        ns.write.write_text("# blocklanczos output digests: tools/same_outputs.py --write\n"
                            "# environment: %s\n" % environment()
                            + "".join("%s  %s\n" % (found[0][key], key) for key in sorted(found[0])))
        print("wrote %d digests to %s" % (len(found[0]), ns.write))
        return 0
    return compare(old, found[0]) if ns.check else compare(*found)


if __name__ == "__main__":
    sys.exit(main())
