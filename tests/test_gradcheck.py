"""Packaged finite-difference harness for the block gradients."""

import dataclasses

import numpy as np
import pytest

from oocs3d import block, gradcheck
from oocs3d.block import LEARNABLE, OocsBlockConfig
from oocs3d.errors import DomainError
from oocs3d.gradcheck import block_gradient_check, run_gradcheck_grid
from oocs3d.tensor import ConvWeights, FeatureMap

# the nine probe targets: data and bias of each learnable conv, then the input
TARGETS = [f"{name}.{field}" for name in LEARNABLE for field in ("data", "bias")] + ["input"]


class TestSingleCase:
    def test_default_config_passes_with_margin(self):
        cfg = OocsBlockConfig(c_in=1, c_out=4)
        case = block_gradient_check(cfg, seed=0, spatial=(5, 5, 5))
        assert case.passed
        # a quadratic objective puts the FD error at roundoff level, far
        # below the acceptance threshold
        assert case.max_rel_err < 1e-6
        assert case.directions > 0

    def test_result_identifies_configuration(self):
        cfg = OocsBlockConfig(c_in=2, c_out=4, k_oocs=5)
        case = block_gradient_check(cfg, seed=3, spatial=(5, 5, 5), n_dirs=1)
        assert (case.k_oocs, case.c_in, case.c_out, case.seed) == (5, 2, 4, 3)

    def test_determinism(self):
        cfg = OocsBlockConfig(c_in=1, c_out=4)
        a = block_gradient_check(cfg, seed=1, spatial=(5, 5, 5), n_dirs=2)
        b = block_gradient_check(cfg, seed=1, spatial=(5, 5, 5), n_dirs=2)
        assert a == b

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            block_gradient_check(OocsBlockConfig(c_in=1, c_out=4), seed=0, h=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"h": float("nan")}, {"h": float("inf")}, {"tol": float("nan")}, {"tol": -1.0}, {"tol": 0.0},
        {"n_dirs": 0}, {"spatial": (6, 6)}, {"spatial": (6, 0, 6)},
    ], ids=["h-nan", "h-inf", "tol-nan", "tol-negative", "tol-zero", "n_dirs-zero", "spatial-2d",
            "spatial-empty-axis"])
    def test_non_finite_or_non_positive_step_and_tolerance_rejected(self, kwargs):
        with pytest.raises(DomainError):
            block_gradient_check(OocsBlockConfig(c_in=1, c_out=4), seed=0, **kwargs)

    def test_impossible_tolerance_reports_failure(self):
        cfg = OocsBlockConfig(c_in=1, c_out=4)
        case = block_gradient_check(cfg, seed=0, spatial=(5, 5, 5), n_dirs=1, tol=1e-18)
        assert not case.passed


class TestProbeTargets:
    @pytest.mark.parametrize("target", TARGETS)
    def test_each_target_is_compared(self, target, monkeypatch):
        # a 1% error planted in one analytic gradient must fail the case
        # at about 1% relative error
        real = gradcheck.block_backward

        def one_gradient_off(*args):
            gx, grads = real(*args)
            if target == "input":
                return FeatureMap(gx.data * 1.01), grads
            name, field = target.split(".")
            w = getattr(grads, name)
            w = ConvWeights(w.data * 1.01, w.bias) if field == "data" else ConvWeights(w.data, w.bias * 1.01)
            return gx, dataclasses.replace(grads, **{name: w})

        monkeypatch.setattr(gradcheck, "block_backward", one_gradient_off)
        case = block_gradient_check(OocsBlockConfig(c_in=2, c_out=4), seed=0, spatial=(5, 5, 5), n_dirs=2)
        assert not case.passed
        assert 0.005 < case.max_rel_err < 0.02

    @pytest.mark.parametrize("n_dirs", [1, 3])
    def test_every_target_gets_n_dirs_directions(self, n_dirs):
        case = block_gradient_check(OocsBlockConfig(c_in=1, c_out=4), seed=0, spatial=(5, 5, 5), n_dirs=n_dirs)
        assert case.directions == len(TARGETS) * n_dirs == 9 * n_dirs


class TestStageReuse:
    def test_rows_equal_those_of_full_forwards(self, monkeypatch):
        # each probe's forward starts from the base point's cache, and its
        # kink test compares only the stages it recomputed; dropping that
        # cache, so every probe runs all five convs, and comparing all four
        # masks must change no row.  The larger step crosses kinks of both
        # stages, the second with its first stage recomputed and with it
        # taken from the base cache, so the rows' redraws are compared too
        grids = (dict(seeds=(0,), n_dirs=2, spatial=(5, 5, 5)),
                 dict(seeds=(0, 1), n_dirs=2, spatial=(5, 5, 5), h=1e-4))
        convs = []
        real_conv = block.conv3d_forward

        def counted_conv(*args, **kwargs):
            convs.append(None)
            return real_conv(*args, **kwargs)

        monkeypatch.setattr(block, "conv3d_forward", counted_conv)
        shipped = [run_gradcheck_grid(**grid) for grid in grids]
        shipped_convs = len(convs)
        real = gradcheck.block_forward
        monkeypatch.setattr(gradcheck, "block_forward", lambda x, params, cfg, base=None: real(x, params, cfg))

        def masks(cache):
            ch = cache.a1_on.channels
            return (cache.a1_on.data > 0, cache.a1_off.data > 0, cache.y.data[:ch] > 0, cache.y.data[ch:] > 0)

        monkeypatch.setattr(gradcheck, "_kink_free", lambda cache, base, _: all(
            np.array_equal(m, m0) for m, m0 in zip(masks(cache), masks(base))))
        assert [run_gradcheck_grid(**grid) for grid in grids] == shipped
        assert shipped_convs < len(convs) - shipped_convs
        assert sum(row.redraws for row in shipped[1]) > 0


class TestGrid:
    def test_row_per_config_and_seed(self):
        # the fixed (k_oocs, c_in, c_out) grid, nested in that order, seeds innermost
        rows = run_gradcheck_grid(seeds=(0, 1), n_dirs=1, spatial=(5, 5, 5))
        assert all(r.passed for r in rows)
        keys = [(r.k_oocs, r.c_in, r.c_out, r.seed) for r in rows]
        assert keys == [(k, ci, co, s) for k in (3, 5) for ci in (1, 2) for co in (4, 8) for s in (0, 1)]

    @pytest.mark.parametrize("axis", ["seeds"])
    def test_empty_grid_rejected(self, axis):
        with pytest.raises(DomainError, match="no case"):
            run_gradcheck_grid(**{axis: ()})
