"""The library names the benchmark under bench/ relies on.

The traced benchmark run wraps functions by identity and reads block
fields by name, so a simplification that merges, renames or removes one
of them, or stops calling it, breaks the benchmark without failing any
library test.  The names are read from the benchmark's source as
literals; nothing under bench/ is imported or edited.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from oocs3d import cli, preprocess, volio
from oocs3d.block import (
    BlockGrads, OocsBlockConfig, OocsBlockParams, block_backward, block_forward, init_block_params,
)
from oocs3d.gradcheck import GradCheckCase, block_gradient_check, run_gradcheck_grid
from oocs3d.tensor import BinaryMask, ConvWeights, Volume
from oocs3d.volio import write_mha

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literal(file_name, name):
    """The value of the module-level assignment `name = <literal>` in bench/`file_name`."""
    tree = ast.parse((BENCH / file_name).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{file_name} assigns no literal {name}")


def _row_attributes(file_name, *path):
    """Attributes the function at `path` (class and method names) in bench/`file_name` reads off `r`."""
    node = ast.parse((BENCH / file_name).read_text(encoding="utf-8"))
    for name in path:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "r"}


FUNCTIONS = _literal("tracing.py", "FUNCTIONS")
CONTAINERS = _literal("tracing.py", "CONTAINERS")
LEARNABLE = _literal("workloads.py", "LEARNABLE")


@pytest.mark.parametrize("module, attr, span", FUNCTIONS, ids=[f"{m}.{a}" for m, a, _ in FUNCTIONS])
def test_traced_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


def test_traced_functions_are_distinct_objects():
    # the tracer replaces every reference to a function object by one
    # wrapper, so two traced names bound to one object would share a span
    objects = [getattr(importlib.import_module(m), a) for m, a, _ in FUNCTIONS]
    assert len({id(f) for f in objects}) == len(objects)


@pytest.mark.parametrize("name", CONTAINERS)
def test_traced_container_exists(name):
    assert isinstance(getattr(importlib.import_module("oocs3d.tensor"), name), type)


def test_block_fields_read_by_the_training_workload():
    fields = {f.name for f in dataclasses.fields(OocsBlockParams)}
    assert set(LEARNABLE) <= fields
    assert set(LEARNABLE) <= {f.name for f in dataclasses.fields(BlockGrads)}
    params = init_block_params(OocsBlockConfig(c_in=2, c_out=4), seed=0)
    for name in ("fixed_on", "fixed_off"):
        assert isinstance(getattr(params, name), ConvWeights)


def test_preprocess_routes_masks_through_the_traced_twins(tmp_path, monkeypatch):
    # the tracer times the mask's geometry as preprocess.resample_mask and
    # preprocess.crop_or_pad_mask; if the CLI sent the mask through
    # resample or crop_or_pad, those spans would read 0 without an error
    calls = []
    for name in ("resample", "resample_mask", "crop_or_pad", "crop_or_pad_mask"):
        def spy(obj, arg, _orig=getattr(preprocess, name), _name=name):
            calls.append((_name, type(obj).__name__))
            return _orig(obj, arg)
        monkeypatch.setattr(preprocess, name, spy)
    rng = np.random.default_rng(3)
    spacing = (1.5, 1.0, 1.0)
    write_mha(Volume(rng.normal(size=(6, 6, 6)), spacing), str(tmp_path / "image.mha"))
    write_mha(BinaryMask(rng.random((6, 6, 6)) < 0.5, spacing), str(tmp_path / "mask.mha"))
    rc = cli.main([
        "preprocess", "--in", str(tmp_path / "image.mha"), "--out", str(tmp_path / "pre.mha"),
        "--mask", str(tmp_path / "mask.mha"), "--mask-out", str(tmp_path / "pre_mask.mha"),
        "--spacing", "1", "1", "1", "--crop", "8", "5", "5",
    ])
    assert rc == 0
    assert calls == [
        ("resample", "Volume"), ("resample_mask", "BinaryMask"),
        ("crop_or_pad", "Volume"), ("crop_or_pad_mask", "BinaryMask"),
    ]


def test_filter_reads_and_writes_through_the_traced_file_functions(tmp_path, monkeypatch):
    # volio.read.* and volio.write.* count calls of the module attributes
    # the tracer swaps; a writer the CLI held on to at import time would
    # skip the swap and read 0 without an error
    calls = []
    for name in ("read_mha", "write_mha"):
        def spy(*args, _orig=getattr(volio, name), _name=name):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(volio, name, spy)
    write_mha(Volume(np.random.default_rng(5).normal(size=(6, 6, 6))), str(tmp_path / "image.mha"))
    rc = cli.main([
        "filter", "--in", str(tmp_path / "image.mha"), "--k", "3",
        "--out-on", str(tmp_path / "on.mha"), "--out-off", str(tmp_path / "off.mha"),
    ])
    assert rc == 0
    assert calls == ["read_mha", "write_mha", "write_mha"]


@pytest.mark.parametrize("file_name, path", [
    ("workloads.py", ("GradcheckGrid", "counters")),
    ("checks.py", ("gradcheck_rows",)),
], ids=["GradcheckGrid.counters", "checks.gradcheck_rows"])
def test_gradcheck_case_fields_read_by_the_grid_workload(file_name, path):
    # counters sums directions and redraws into gradcheck.useful_ratio and
    # gradcheck.redraws; the row check names the failed case
    read = _row_attributes(file_name, *path)
    assert read
    assert read <= {f.name for f in dataclasses.fields(GradCheckCase)}


# the library callables bench/workloads.py calls, by the attribute name it calls them through
CALLED = {f.__name__: f for f in (OocsBlockConfig, block_forward, block_backward, run_gradcheck_grid,
                                  block_gradient_check)}


@pytest.mark.parametrize("name", list(CALLED))
def test_benchmark_calls_bind_to_the_library_signatures(name):
    # a deleted field or parameter the benchmark passes, by position or
    # by keyword, fails here rather than in the benchmark run
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = [n for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == name]
    assert calls, f"bench/workloads.py makes no {name} call"
    signature = inspect.signature(CALLED[name])
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        try:
            signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            pytest.fail(f"bench/workloads.py:{call.lineno} calls {name}{signature}: {exc}")
