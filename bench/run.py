#!/usr/bin/env python3
"""oocs3d benchmark: end-to-end metrics per workload, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload train_step --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in fresh processes (bench/worker.py) whose BLAS/OpenMP
pools are pinned to min(nproc, 2) threads through the environment before
numpy loads.  One process measures; with --trace 0 two more only set up,
and set-up time is the median of the three.  The report lists every
metric by name with its unit; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Run records and
spans go to .bench_out/ at the repository root.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("train_step", "filter_volume", "robustness_eval", "gradcheck_grid")
SETUP_RUNS = 3
DEADLINE_S = 170.0  # one invocation per workload must finish within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit) of the bounded end-to-end metrics, in BENCHMARK.json order.  Op times
# are bounded in probe units (see probe.py); wall seconds are printed and recorded.
END_TO_END = (("op_cost.p50", "probe"), ("op_cost.mean", "probe"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# (name, unit) printed beside them but not bounded
WALL = (("op_s.p50", "s"), ("op_s.tail", "s"), ("ops_per_s", "1/s"), ("probe_s.p50", "s"), ("error_rate", "ratio"))


class BenchError(Exception):
    pass


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples above it.

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported, as percentile 100.
    """
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float, setup_only: bool) -> dict:
    threads = min(os.cpu_count() or 1, 2)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: str(threads) for v in THREAD_VARS})
    spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{seed}.jsonl")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    main = spawn(workload, seed, seconds, trace, deadline, setup_only=False)
    result = {"correct": main["failed"] == 0, "attempted": main["attempted"], "failed": main["failed"]}
    if trace:
        from tracing import LAYER_METRICS

        metrics = {name: {"value": main["layers"][name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        detail = {}
    else:
        setups = [main["setup_s"]] + [spawn(workload, seed, seconds, trace, deadline, setup_only=True)["setup_s"]
                                      for _ in range(SETUP_RUNS - 1)]
        op_s = main["op_s"]
        tail_s, pct = tail(op_s)
        values = {
            "op_cost.p50": statistics.median(main["op_cost"]),
            "op_cost.mean": statistics.fmean(main["op_cost"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
            "op_s.p50": statistics.median(op_s),
            "op_s.tail": tail_s,
            "ops_per_s": (main["attempted"] - main["failed"]) / sum(op_s),
            "probe_s.p50": statistics.median(main["probe_s"]),
            "error_rate": main["failed"] / main["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        detail = {"wall": {name: {"value": values[name], "unit": unit} for name, unit in WALL},
                  "tail_percentile": pct, "samples": len(op_s), "op_samples_s": op_s,
                  "probe_samples_s": main["probe_s"], "setup_samples_s": setups}
    record = {"workload": workload, "trace": trace, "env": main["env"], "errors": main["errors"],
              **detail, **result, "metrics": metrics}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"result-{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="ascii") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print_report(record)
    return {**result, "metrics": metrics}


def print_report(rec: dict) -> None:
    print(f"== {rec['workload']}  seed {rec['env']['seed']}  trace {rec['trace']}  "
          f"ops {rec['attempted']}  failed {rec['failed']}")
    notes = {}
    if not rec["trace"]:
        notes = {"op_cost.p50": f"  (median of {rec['samples']} ops)",
                 "setup_s": f"  (median of {len(rec['setup_samples_s'])} processes)",
                 "op_s.tail": f"  (p{rec['tail_percentile']:.1f} of {rec['samples']} samples)",
                 "error_rate": f"  ({rec['failed']}/{rec['attempted']})"}
    for name, m in list(rec["metrics"].items()) + list(rec.get("wall", {}).items()):
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}{notes.get(name, '')}")
    for err in rec["errors"]:
        print(f"  ! {err}")
    print("  env " + json.dumps(rec["env"], sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "oocs3d", "__init__.py")):
        print(f"bench: no oocs3d sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
