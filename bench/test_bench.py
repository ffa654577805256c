"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The smoke tests run every workload for one second per run, so the file
takes a few minutes.  The check tests feed each output check a
deliberately wrong array and expect a rejection.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import mha  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def _metric_lines(stdout: str, names_units) -> None:
    for name, unit in names_units:
        pattern = rf"^\s+{re.escape(name)}\s+-?[0-9.e+-]+(?:\s|$).*?{re.escape(unit)}"
        assert re.search(pattern, stdout, re.M), f"{name} [{unit}] not printed"


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_prints_every_metric(trace):
    proc = _bench("--workload", "all", "--seed", "11", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0, proc.stdout
    bounded = [(n, u) for n, u, _ in tracing.LAYER_METRICS] if trace else list(run.END_TO_END)
    printed = bounded if trace else bounded + list(run.WALL)
    for section in proc.stdout.split("== ")[1:]:
        _metric_lines(section, printed)
    assert proc.stdout.count("== ") == len(run.WORKLOADS)
    assert set(final["metrics"]) == {f"{w}.{name}" for w in run.WORKLOADS for name, _ in bounded}
    for w in run.WORKLOADS:
        for name, unit in bounded:
            assert final["metrics"][f"{w}.{name}"]["unit"] == unit
    if trace:
        m = final["metrics"]
        assert m["robustness_eval.tensor.conv3d_forward.calls"]["value"] == 0
        assert m["robustness_eval.tensor.conv3d_backward.calls"]["value"] == 0
        assert m["train_step.tensor.conv3d_forward.calls"]["value"] == 7
        assert m["train_step.block.fixed_injection.calls"]["value"] == 4
        for w in run.WORKLOADS:
            assert m[f"{w}.trace.coverage"]["value"] > 0.95


def test_second_seed_runs_clean():
    proc = _bench("--workload", "all", "--seed", "12", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"], proc.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "train_step", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(20)]) == (9.0, 50.0)
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# ------------------------------------------------------------ output checks

def _volume(seed=0, shape=(12, 11, 10)):
    return np.random.default_rng(seed).normal(size=shape)


def test_filter_check_rejects_shift_and_sign():
    vol = _volume()
    kern = _volume(1, (5, 5, 5))
    ref = checks.correlate_same(vol, kern)
    on = ref.copy()
    assert checks.filter_pair(on, -on, ref) == []
    assert checks.filter_pair(np.roll(on, 1, axis=2), -np.roll(on, 1, axis=2), ref)
    assert checks.filter_pair(on, on, ref)
    off = -on
    off[3, 3, 3] = np.nextafter(off[3, 3, 3], 0.0)
    assert checks.filter_pair(on, off, ref)


def test_correlate_reference_matches_a_loop():
    vol, kern = _volume(), _volume(1, (3, 3, 3))
    padded = np.pad(vol, 1)
    loop = np.zeros_like(vol)
    for z, y, x in np.ndindex(*vol.shape):
        loop[z, y, x] = np.sum(padded[z:z + 3, y:y + 3, x:x + 3] * kern)
    assert np.max(np.abs(checks.correlate_same(vol, kern) - loop)) < 1e-12


def test_hausdorff_reference_matches_brute_force():
    rng = np.random.default_rng(3)
    a, b = rng.random((6, 7, 8)) < 0.1, rng.random((6, 7, 8)) < 0.1
    spacing = (1.5, 1.0, 0.7)
    pa, pb = np.argwhere(a) * spacing, np.argwhere(b) * spacing
    d = np.sqrt(((pa[:, None] - pb[None]) ** 2).sum(-1))
    assert abs(checks.hausdorff_ref(a, b, spacing) - max(d.min(1).max(), d.min(0).max())) < 1e-12


def test_eval_check_rejects_wrong_scores():
    good = "case,dsc,hsd_mm\npred,0.75,2.5\n"
    assert checks.eval_csv(good, 0.75, 2.5) == []
    assert checks.eval_csv(good, 0.76, 2.5)
    assert checks.eval_csv(good, 0.75, 3.5)
    assert checks.eval_csv("case,dsc\npred,0.75\n", 0.75, 2.5)


def test_geometry_zscore_binary_finite_checks_reject():
    assert checks.geometry("v", (4, 5, 6), (1.0, 1.0, 1.0), (4, 5, 6), (1.0, 1.0, 1.0)) == []
    assert checks.geometry("v", (4, 5, 7), (1.0, 1.0, 1.0), (4, 5, 6), (1.0, 1.0, 1.0))
    assert checks.geometry("v", (4, 5, 6), (1.0, 1.0, 1.5), (4, 5, 6), (1.0, 1.0, 1.0))
    z = _volume(4, (20, 20, 20))
    z = (z - z.mean()) / z.std()
    assert checks.zscored("z", z) == []
    assert checks.zscored("z", z + 1.0)
    assert checks.zscored("z", 2.0 * z)
    assert checks.binary("m", np.array([0, 1, 1], np.uint8)) == []
    assert checks.binary("m", np.array([0, 1, 2], np.uint8))
    assert checks.finite("g", np.ones(3)) == []
    assert checks.finite("g", np.ones(3), np.array([np.nan]))


def test_gradcheck_check_rejects_a_failed_row():
    from oocs3d.gradcheck import GradCheckCase

    row = GradCheckCase(3, 1, 4, 0, 1e-9, 27, 0, True)
    assert checks.gradcheck_rows([row] * 16, 16) == []
    assert checks.gradcheck_rows([row] * 15, 16)
    assert checks.gradcheck_rows([row] * 15 + [GradCheckCase(3, 1, 4, 1, 1e-3, 27, 0, False)], 16)


def test_train_step_checks_reject_wrong_output_and_gradients(tmp_path):
    wl = workloads.TrainStep(5, str(tmp_path))
    wl.setup()
    wl.warm_up()
    step = wl.op(workloads.no_span)
    assert wl.check(step, 0) == []
    assert wl.deferred_check() == []
    y = step.y
    step.y = type(y)(np.roll(y.data, 1, axis=3))
    assert any("block output" in p for p in wl.deferred_check())
    step.y = y
    g = step.grads.w2_on
    step.grads = replace(step.grads, w2_on=type(g)(-g.data, g.bias))
    assert any("direction" in p for p in wl.deferred_check())


class _SmallFilter(workloads.FilterVolume):
    n = 20


class _SmallRobustness(workloads.RobustnessEval):
    n = 24
    crop = (34, 22, 22)


def test_filter_workload_rejects_a_shifted_output(tmp_path):
    wl = _SmallFilter(6, str(tmp_path))
    wl.setup()
    assert wl.check(wl.op(workloads.no_span), 0) == []
    on, spacing, _ = mha.read(wl.path("on.mha"))
    mha.write(wl.path("on.mha"), np.roll(on, 1, axis=0), spacing)
    assert wl.check(0, 1)


def test_robustness_workload_rejects_wrong_outputs(tmp_path):
    wl = _SmallRobustness(7, str(tmp_path))
    wl.setup()
    assert wl.check(wl.op(workloads.no_span), 0) == []
    pre, spacing, _ = mha.read(wl.path("pre.mha"))
    mha.write(wl.path("pre.mha"), pre * 3.0, spacing)
    assert any("preprocessed image" in p for p in wl.check([0] * 5, 1))
    wl.op(workloads.no_span)
    blur, spacing, _ = mha.read(wl.path("blur.mha"))
    mha.write(wl.path("blur.mha"), blur[1:], spacing)
    assert any("blur" in p for p in wl.check([0] * 5, 2))
    assert wl.check([0, 0, 0, 0, 3], 3)


def test_a_check_that_cannot_run_is_a_failure():
    import worker

    def unreadable():
        raise FileNotFoundError("on.mha")

    assert worker._checked(unreadable) == ["check raised FileNotFoundError: on.mha"]
    assert worker._checked(lambda: []) == []
