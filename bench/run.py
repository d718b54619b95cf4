"""Benchmark entry point: time the CLI studies end to end.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (the directory holding ``src/``). The
package is used from source through PYTHONPATH; nothing is installed.
Each workload runs in a subprocess of its own (worker.py), so its peak
resident memory is its own. BLAS may use ``nproc`` threads, the whole
budget of the machine, and nothing else runs alongside. BENCHMARK.json
gates blurred_cg, continuation_scan and fp_diagnostics; interlacing_scan
runs too but is ungated (see workloads.InterlacingScan).

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(wall_s, wall_s_tail, setup_s, peak_rss_mb); with ``--trace 1`` it carries
the per-layer metrics of a traced run, which also runs the workload once
with BLAS pinned to one thread. A readable summary, the environment
record and the exact counts go to stderr and to
``.bench_work/<workload>/record_trace<t>.json``.

The fail ratio (failed passes over attempted passes) is the result's
``failed``/``attempted`` pair rather than a metric, because a metric must
never be 0 and the ratio is 0 on a correct program.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CACHE_KEYS = ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")
E2E_UNITS = {"wall_s": "s", "wall_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def child_env(root, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def cache_sizes():
    sizes = {}
    for key in CACHE_KEYS:
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10)
            sizes[key] = int(out.stdout.strip()) if out.returncode == 0 else None
        except (OSError, ValueError, subprocess.TimeoutExpired):
            sizes[key] = None
    return sizes


def environment(nproc):
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": nproc,
        "blas_thread_env": nproc,
        "cache_bytes": cache_sizes(),
        "machine": platform.machine(),
        "note": "CPU pinning and cache control were not used; "
                "no machine or cgroup setting was changed",
    }


def run_worker(root, env, args, mode, seconds, prepared, workdir, deadline):
    result_path = workdir / ("result_%s.json" % mode)
    if result_path.exists():
        result_path.unlink()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
           "--prepared", str(prepared or ""), "--workdir", str(workdir),
           "--result", str(result_path)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        fail("%s worker exceeded the time limit" % mode)
    if proc.returncode != 0 or not result_path.exists():
        fail("%s worker failed (exit %d): %s" % (mode, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(result_path.read_text())
    if not result["times"]:
        fail("%s worker completed no pass: %s" % (mode, result["errors"][:1]))
    return result


def tail(times):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than eleven
    samples no such percentile exists; the maximum is reported instead
    with the count of samples beyond it (zero).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    idx = n - 11
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def summary_lines(args, metrics, record):
    lines = ["workload=%s seed=%d trace=%d seconds=%d"
             % (args.workload, args.seed, args.trace, args.seconds)]
    for name, m in metrics.items():
        lines.append("  %-48s %.6g %s" % (name, m["value"], m["unit"]))
    lines.append("  %-48s %.6g ratio (%d of %d passes)"
                 % ("fail_ratio", record["failed"] / record["attempted"],
                    record["failed"], record["attempted"]))
    for key in ("tail", "counts", "problems", "selftest_ok", "environment"):
        if key in record:
            lines.append("  %s: %s" % (key, json.dumps(record[key], sort_keys=True)))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "blocklanczos" / "cli.py").is_file():
        fail("no src/blocklanczos/cli.py under %s; run from the repository root" % root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail("unknown workload %r; choose from %s" % (args.workload, sorted(WORKLOADS)))
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    wl = WORKLOADS[args.workload]
    workdir = root / ".bench_work" / args.workload
    (workdir / "input").mkdir(parents=True, exist_ok=True)
    prepared = wl.prepare(args.seed, workdir / "input")

    nproc = len(os.sched_getaffinity(0))
    env = child_env(root, nproc)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "argv": wl.argv(args.seed, prepared),
              "environment": environment(nproc)}

    if args.trace == 0:
        res = run_worker(root, env, args, "plain", args.seconds, prepared, workdir, deadline)
        tail_value, pct, beyond = tail(res["times"])
        metrics = {
            "wall_s": statistics.median(res["times"]),
            "wall_s_tail": tail_value,
            "setup_s": statistics.median(res["setup_times"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        record["tail"] = {"percentile": pct, "samples_beyond": beyond,
                          "samples": len(res["times"])}
        record["setup_times_s"] = res["setup_times"]
        runs = [res]
    else:
        res = run_worker(root, env, args, "traced", args.seconds, prepared, workdir, deadline)
        single = run_worker(root, child_env(root, 1), args, "single", 0, prepared, workdir,
                            deadline)
        metrics = res["per_layer"]
        metrics["traced.overhead_s"] = {
            "value": metrics["traced.wall_s"]["value"] - statistics.median(res["times"]),
            "unit": "s"}
        metrics["single_thread.wall_s"] = {"value": single["times"][0], "unit": "s"}
        record["single_thread_blas"] = single["blas"]
        record["spans"] = res["spans"]
        runs = [res, single]

    record["environment"]["blas"] = res["blas"]
    record["counts"] = res["counts"]
    record["problems"] = res["problems"]
    record["selftest_ok"] = res["selftest_ok"]
    record["errors"] = [e for r in runs for e in r["errors"]]
    record["attempted"] = sum(r["attempted"] for r in runs)
    record["failed"] = sum(r["failed"] for r in runs)
    record["times_s"] = res["times"]
    record["metrics"] = metrics
    correct = record["failed"] == 0 and not res["problems"] and res["selftest_ok"]

    (workdir / ("record_trace%d.json" % args.trace)).write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print("\n".join(summary_lines(args, metrics, record)), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
