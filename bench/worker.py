"""One workload in one fresh process; started by run.py, never directly.

run.py pins the BLAS/OpenMP thread pools through the environment before
this process starts, so they are fixed before numpy is imported.  The
process sets up the workload, then either reports its set-up time alone
(--setup-only) or measures for --seconds of timed wall time and reports
per-op times, failures and, with --trace 1, the per-layer metrics.  The
report is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402  (after the path set-up)
import scipy  # noqa: E402

import tracing  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import WORKLOADS, no_span  # noqa: E402

MAX_OPS = 100_000
MAX_ERRORS_KEPT = 5


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "seed": seed,
    }


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _checked(check, *args) -> list[str]:
    """Run an output check; a check that cannot run (say, an unreadable output file) is a failure."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"check raised {_describe(exc)}"]


def measure(wl, seconds: float, traced: bool, spans_path: str) -> dict:
    """Closed loop over about `seconds` of timed op time; checks run between ops, untimed.

    The calibration probe runs before the first op and after every op; an
    op's cost is its wall time over the mean of the probes on either side.
    With tracing, odd-numbered ops run traced and even-numbered ones not,
    so the two sets of op times give the tracing overhead.
    """
    tracer = tracing.Tracer() if traced else None
    untraced_s, traced_s, cost, counters = [], [], [], {}
    calibration = Probe()
    probe_s = [calibration.run()]
    attempted = failed = 0
    errors = []
    timed = dt = 0.0
    min_ops = 2 if traced else 1  # a traced run needs one untraced and one traced op
    # start another op while its predicted midpoint falls inside the window
    while attempted < min_ops or (timed + dt / 2 < seconds and attempted < MAX_OPS):
        index = attempted
        on = traced and index % 2 == 1
        undo = None
        if on:
            undo = tracing.install(tracer)
            tracer.op = index
            root = tracer.begin("op")
        t0 = perf_counter()
        try:
            result, exc = wl.op(tracer.span if on else no_span), None
        except Exception as e:  # a failed op is counted, not fatal
            result, exc = None, e
        dt = perf_counter() - t0
        if on:
            tracer.end(root)
            tracing.uninstall(undo)
        probe_s.append(calibration.run())
        timed += dt
        attempted += 1
        if on:
            traced_s.append(dt)
        else:
            untraced_s.append(dt)
            cost.append(dt / ((probe_s[-2] + probe_s[-1]) / 2))
        if exc is None:
            problems = _checked(wl.check, result, index)
            if on and not problems:
                for key, value in wl.counters(result).items():
                    counters[key] = counters.get(key, 0) + value
        else:
            problems = [_describe(exc)]
        if problems:
            failed += 1
            errors += [f"op {index}: {p}" for p in problems][: max(MAX_ERRORS_KEPT - len(errors), 0)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    late = _checked(wl.deferred_check)
    if late:
        failed += 1
        errors += [f"deferred: {p}" for p in late][: max(MAX_ERRORS_KEPT - len(errors), 1)]
    report = {"attempted": attempted, "failed": failed, "errors": errors,
              "op_s": untraced_s, "op_cost": cost, "probe_s": probe_s, "peak_rss_mb": peak_rss_mb}
    if traced:
        report["layers"] = tracing.layer_metrics(tracer, traced_s, untraced_s, counters)
        tracer.write_jsonl(spans_path)
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when run.py started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="where the traced run writes its spans (JSON lines)")
    args = p.parse_args(argv)

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        wl.warm_up()
        report = {"setup_s": time.monotonic() - args.t0}
        if not args.setup_only:
            report.update(measure(wl, args.seconds, bool(args.trace), args.spans))
            report["env"] = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
