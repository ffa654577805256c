"""Packaged finite-difference harness for the block gradients."""

import pytest

from oocs3d.block import OocsBlockConfig
from oocs3d.errors import DomainError
from oocs3d.gradcheck import block_gradient_check, run_gradcheck_grid


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
    ], ids=["h-nan", "h-inf", "tol-nan", "tol-negative", "tol-zero"])
    def test_non_finite_or_non_positive_step_and_tolerance_rejected(self, kwargs):
        with pytest.raises(DomainError):
            block_gradient_check(OocsBlockConfig(c_in=1, c_out=4), seed=0, **kwargs)

    def test_impossible_tolerance_reports_failure(self):
        cfg = OocsBlockConfig(c_in=1, c_out=4)
        case = block_gradient_check(cfg, seed=0, spatial=(5, 5, 5), n_dirs=1, tol=1e-18)
        assert not case.passed


class TestGrid:
    def test_row_per_config_and_seed(self):
        rows = run_gradcheck_grid(
            k_oocs=(3,), c_in=(1, 2), c_out=(4,), seeds=(0, 1),
            n_dirs=1, spatial=(5, 5, 5),
        )
        assert len(rows) == 4
        assert all(r.passed for r in rows)
        keys = {(r.k_oocs, r.c_in, r.c_out, r.seed) for r in rows}
        assert len(keys) == 4

    @pytest.mark.parametrize("axis", ["k_oocs", "c_in", "c_out", "seeds"])
    def test_empty_grid_rejected(self, axis):
        with pytest.raises(DomainError, match="no case"):
            run_gradcheck_grid(**{axis: ()})
