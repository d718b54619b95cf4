"""One workload's passes, run in a subprocess of its own (see run.py).

Closed loop: one client in this process; each pass is one in-process
call of ``blocklanczos.cli.main(argv)`` and starts only after the
previous one finished. The first pass is a warm-up whose output files are
the run's reference bytes and go through the workload's correctness
check. A pass fails if it raises, exits non-zero, or writes bytes that
differ from the warm-up's.

Modes:
  plain   untraced passes for the whole run length, split into five
          stretches; after each one a fresh interpreter imports
          ``blocklanczos.cli`` and resolves the workload's config (the
          set-up time), so set-up samples see the same machine states as
          the passes do
  traced  untraced passes for half the run length, then traced passes
          for the other half (per-layer metrics and tracing overhead)
  single  one warm-up and one timed pass; run.py starts this mode with
          BLAS pinned to one thread for the single-thread baseline

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics, median_pass_metrics
from workloads import WORKLOADS

SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys\n"
    "from blocklanczos.cli import build_parser, resolve_config\n"
    "resolve_config(build_parser().parse_args(sys.argv[1:]))\n"
)


def setup_time(argv):
    """Wall time of a fresh interpreter importing the CLI and resolving
    the config of ``argv``; the environment is this process's."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE] + argv,
                          capture_output=True, text=True, timeout=30)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("config resolution failed: %s" % proc.stderr.strip()[-500:])
    return elapsed


def blas_info():
    """BLAS vendor string and the thread count OpenBLAS reports, if it can."""
    import numpy as np

    info = {"vendor": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = "%s %s" % (deps.get("name"), deps.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


class Runner:
    def __init__(self, workload, argv, outdir):
        from blocklanczos import cli

        self.cli = cli
        self.workload = workload
        self.outdir = Path(outdir)
        self.argv = argv + ["--out", str(self.outdir)]
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _clear(self):
        self.outdir.mkdir(parents=True, exist_ok=True)
        for path in self.outdir.iterdir():
            path.unlink()

    def _files(self):
        return {p.name: p.read_bytes() for p in sorted(self.outdir.iterdir())}

    def one_pass(self, tracer=None):
        """Run one pass; return its wall time, or None if it raised."""
        self._clear()
        self.attempted += 1
        sink = io.StringIO()
        try:
            if tracer is None:
                start = time.perf_counter()
                with contextlib.redirect_stdout(sink):
                    rc = self.cli.main(self.argv)
                wall = time.perf_counter() - start
            else:
                start = tracer.begin_pass()
                try:
                    with contextlib.redirect_stdout(sink):
                        rc = self.cli.main(self.argv)
                finally:
                    wall = tracer.end_pass(start)
        except Exception:  # a raising pass is counted, the loop goes on
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return None
        files = self._files()
        if rc != 0:
            self.failed += 1
            self.errors.append("exit code %r" % rc)
        elif self.reference is None:
            self.reference = files
        elif files != self.reference:
            self.failed += 1
            self.errors.append("output bytes differ from the first pass")
        return wall

    def loop(self, seconds, min_passes, tracer=None):
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < min_passes or time.perf_counter() < deadline:
            wall = self.one_pass(tracer)
            if wall is not None:
                times.append(wall)
        return times


def text_files(files):
    return {name: data.decode("ascii") for name, data in files.items()}


def check_outputs(runner, wl, prepared):
    """Workload check on the reference output, plus the corruption self-test."""
    if runner.reference is None:
        return ["no pass produced output"], False
    missing = [f for f in wl.files if f not in runner.reference]
    if missing:
        return ["missing output files %s" % missing], False
    cli = runner.cli
    cfg = cli.resolve_config(cli.build_parser().parse_args(runner.argv))
    ref = wl.reference(cfg, prepared)
    files = text_files(runner.reference)
    problems = wl.check(files, ref)
    corrupted = wl.corrupt(files)
    selftest_ok = corrupted != files and bool(wl.check(corrupted, ref))
    return problems, selftest_ok


def outputs_info(wl, files):
    csv = {k: v for k, v in files.items() if k.endswith(".csv")}
    info = {
        "cli.csv_bytes": float(sum(len(v) for v in csv.values())),
        "cli.csv_files": float(len(csv)),
    }
    info.update(wl.outputs_info(text_files(files)))
    return info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "single"), required=True)
    ap.add_argument("--prepared", default="")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    prepared = args.prepared or None
    workdir = Path(args.workdir)
    argv = wl.argv(args.seed, prepared)
    runner = Runner(wl, argv, workdir / ("out_" + args.mode))
    result = {"mode": args.mode, "blas": blas_info()}

    runner.one_pass()  # warm-up; its bytes are the run's reference
    if args.mode == "plain":
        setup_time(argv)  # untimed: the first fresh import may fill caches
        times, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            times += runner.loop(args.seconds / SETUP_REPEATS, 1)
            setup_times.append(setup_time(argv))
        result["setup_times"] = setup_times
    elif args.mode == "single":
        times = runner.loop(0.0, 1)
    else:
        times = runner.loop(args.seconds / 2.0, 3)
        tracer = Tracer()
        tracer.install()
        traced_times = runner.loop(args.seconds / 2.0, 2, tracer)
        tracer.uninstall()
        # a traced pass that wrote other bytes than the reference is a
        # failure already; the output counts are the reference's
        info = outputs_info(wl, runner.reference)
        layers = [layer_metrics(m, info) for m in tracer.pass_metrics()]
        result["per_layer"] = median_pass_metrics(layers)
        result["traced_times"] = traced_times
        result["spans"] = len(tracer.spans)
        tracer.write(workdir / "spans.csv.gz")
    result["times"] = times
    # KiB on Linux; read before the checks so only setup and passes count
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.mode == "single":
        problems, selftest_ok = [], True
    else:
        problems, selftest_ok = check_outputs(runner, wl, prepared)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors[:5],
        problems=problems,
        selftest_ok=selftest_ok,
        counts=outputs_info(wl, runner.reference) if runner.reference else {},
    )
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
