"""Release gate: one test per headline behavioral guarantee.

Each test prints a single `ACCEPT <nn> <name>: PASS` or `: FAIL` line and
enforces its stated runtime budget.  Derived expectations come from the
independent oracles in oracles.py or from frozen high-precision
constants, never from the implementation under test.
"""

import contextlib
import dataclasses
import time

import mpmath
import numpy as np
import pytest

from oocs3d.block import (
    OocsBlockConfig,
    block_backward,
    block_forward,
    init_block_params,
    learnable_param_count,
)
from oocs3d.errors import UndefinedDistanceError
from oocs3d.kernels import KernelSpec, compute_sigma, continuous_balance_check, make_kernel, sample_dog
from oocs3d.losses import PredictionPair, bce_dice_loss, bce_loss, soft_dice_loss
from oocs3d.metrics import dice, hausdorff_mm
from oocs3d.perturb import gaussian_blur, gaussian_noise, motion_artifact
from oocs3d.preprocess import resample, zscore
from oocs3d.tensor import (
    BinaryMask,
    ConvWeights,
    FeatureMap,
    Volume,
    conv3d_backward,
    conv3d_forward,
    conv3d_output_shape,
)
from oocs3d.volio import read_mha, read_raw_json, write_mha, write_raw_json

from oracles import (
    brute_dice,
    brute_hausdorff_mm,
    central_difference,
    max_rel_err,
    naive_conv3d,
    two_pathway_param_count,
)


@contextlib.contextmanager
def criterion(number, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPT {number:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPT {number:02d} {name}: PASS")


def test_criterion_01_kernel_balance():
    with criterion(1, "kernel-balance", 1.0):
        for k in (3, 5):
            spec = KernelSpec(k=k, gamma=2.0 / 3.0, c=3.0)
            on = make_kernel(spec, polarity="on")
            off = make_kernel(spec, polarity="off")
            w = on.weights
            assert abs(w[w > 0].sum() - 3.0) < 1e-9
            assert abs(w[w < 0].sum() + 3.0) < 1e-9
            assert abs(w.sum()) < 1e-9
            np.testing.assert_array_equal(off.weights, -on.weights)


def test_criterion_02_sigma_formula():
    # The second evaluation path re-derives the width constants at 50
    # significant digits with a different library.  Exact evaluation
    # gives 0.7168077 / 1.1946794; the 6-decimal values sometimes quoted
    # (0.716842 / 1.194736) embed an upstream rounding of the first
    # constant (their ratio is exactly 5/3), and no correct evaluation
    # of the formula lands within 1e-5 of them.
    with criterion(2, "sigma-formula", 1.0):
        with mpmath.workdps(50):
            g = mpmath.mpf(2) / 3
            ref_1 = float((1 / g) * mpmath.sqrt((1 - g * g) / (-6 * mpmath.log(g))))
            r53 = mpmath.mpf(5) / 3
            ref_53 = float((r53 / g) * mpmath.sqrt((1 - g * g) / (-6 * mpmath.log(g))))
        assert ref_1 == pytest.approx(0.716807659925885, abs=1e-14)
        assert ref_53 == pytest.approx(1.1946794332098085, abs=1e-13)
        assert abs(compute_sigma(1.0, 2.0 / 3.0) - ref_1) < 1e-5
        assert abs(compute_sigma(5.0 / 3.0, 2.0 / 3.0) - ref_53) < 1e-5


def test_criterion_03_continuous_limit_balance():
    with criterion(3, "continuous-limit-balance", 30.0):
        spec = KernelSpec(k=3)
        results = {n: continuous_balance_check(spec, n) for n in (64, 128, 256)}
        res128, l1_128 = results[128]
        assert res128 < 1e-3 * l1_128
        discrete_l1 = float(np.abs(sample_dog(spec)).sum())
        assert res128 < 1e-3 * discrete_l1
        assert results[64].residual > results[128].residual > results[256].residual


def test_criterion_04_convolution_oracle():
    with criterion(4, "convolution-oracle", 60.0):
        rng = np.random.default_rng(404)
        for _ in range(100):
            k = int(rng.choice([1, 3, 5]))
            spatial = tuple(int(rng.integers(k, 9)) for _ in range(3))
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            x = rng.normal(size=(c_in,) + spatial)
            bias = rng.normal(size=c_out) if rng.random() < 0.5 else None
            w = rng.normal(size=(c_out, c_in, k, k, k))
            padding = "same_zero" if rng.random() < 0.5 else "valid"
            got = conv3d_forward(
                FeatureMap(x), ConvWeights(w, bias=bias), padding
            ).data
            want = naive_conv3d(x, w, bias, padding)
            assert np.abs(got - want).max() < 1e-9


def _block_phi(x, params, cfg, probe):
    y, cache = block_forward(x, params, cfg)
    ch = cfg.c_half
    masks = (cache.a1_on.data > 0, cache.a1_off.data > 0, y.data[:ch] > 0, y.data[ch:] > 0)
    return float(np.sum(y.data * probe)), masks


def _masks_equal(a, b):
    return all(np.array_equal(u, v) for u, v in zip(a, b))


def _check_block_grads_fd(cfg, seed, h=1e-5, tol=1e-5):
    """Directional FD on every learnable tensor and the input.

    Directions whose +/-h evaluations flip any activation mask are
    redrawn: along mask-stable directions the probe objective is
    polynomial, so the central difference is exact up to roundoff.
    """
    rng = np.random.default_rng(seed)
    params = init_block_params(cfg, seed=seed)
    spatial = (5, 5, 5)
    x = FeatureMap(rng.uniform(-1.0, 1.0, size=(cfg.c_in,) + spatial))
    probe = rng.normal(size=(cfg.c_out,) + spatial)
    base_val, base_masks = _block_phi(x, params, cfg, probe)
    _, cache = block_forward(x, params, cfg)
    gx, grads = block_backward(FeatureMap(probe), cache, params, cfg)

    worst = 0.0

    def try_direction(evaluate, analytic_dot):
        nonlocal worst
        for _ in range(50):
            direction = evaluate.draw()
            up, mu = evaluate.at(direction, +h)
            down, md = evaluate.at(direction, -h)
            if not (_masks_equal(mu, base_masks) and _masks_equal(md, base_masks)):
                continue
            fd = (up - down) / (2.0 * h)
            an = analytic_dot(direction)
            worst = max(worst, max_rel_err(np.array([an]), np.array([fd])))
            return
        raise AssertionError("no mask-stable direction found in 50 draws")

    class WeightDir:
        def __init__(self, name, field):
            self.name, self.field = name, field
            self.arr = getattr(getattr(params, name), field)

        def draw(self):
            d = rng.normal(size=self.arr.shape)
            return d / np.linalg.norm(d)

        def at(self, direction, step):
            w = getattr(params, self.name)
            if self.field == "data":
                new = ConvWeights(self.arr + step * direction, bias=w.bias)
            else:
                new = ConvWeights(w.data, bias=self.arr + step * direction)
            shifted = dataclasses.replace(params, **{self.name: new})
            return _block_phi(x, shifted, cfg, probe)

    for name in ("w1_on", "w1_off", "w2_on", "w2_off"):
        for field in ("data", "bias"):
            target = WeightDir(name, field)
            g = getattr(getattr(grads, name), field)
            try_direction(target, lambda d, g=g: float(np.sum(g * d)))

    class InputDir:
        def draw(self):
            d = rng.normal(size=x.data.shape)
            return d / np.linalg.norm(d)

        def at(self, direction, step):
            return _block_phi(FeatureMap(x.data + step * direction), params, cfg, probe)

    try_direction(InputDir(), lambda d: float(np.sum(gx.data * d)))
    assert worst < tol, f"cfg {cfg} seed {seed}: max rel err {worst:.3e}"


def test_criterion_05_gradient_suite():
    with criterion(5, "gradient-suite", 300.0):
        # convolution backward, per-coordinate FD, 20 seeds
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            k = int(rng.choice([1, 3]))
            spatial = tuple(int(rng.integers(k, 6)) for _ in range(3))
            c_in = int(rng.integers(1, 3))
            c_out = int(rng.integers(1, 3))
            x0 = rng.normal(size=(c_in,) + spatial)
            w0 = rng.normal(size=(c_out, c_in, k, k, k))
            b0 = rng.normal(size=c_out)
            padding = "same_zero" if rng.random() < 0.5 else "valid"
            probe = rng.normal(size=(c_out,) + conv3d_output_shape(spatial, k, padding))
            gx, gw = conv3d_backward(
                FeatureMap(x0), ConvWeights(w0, bias=b0), FeatureMap(probe), padding
            )

            def phi_w(wd):
                return float(np.sum(
                    conv3d_forward(FeatureMap(x0), ConvWeights(wd, bias=b0), padding).data * probe
                ))

            def phi_x(xd):
                return float(np.sum(
                    conv3d_forward(FeatureMap(xd), ConvWeights(w0, bias=b0), padding).data * probe
                ))

            assert max_rel_err(gw.data, central_difference(phi_w, w0)) < 1e-5
            assert max_rel_err(gx.data, central_difference(phi_x, x0)) < 1e-5

        # block backward over the full shape grid, >= 20 distinct seeds
        grid = [
            (k_oocs, c_in, c_out)
            for k_oocs in (3, 5)
            for c_in in (1, 2)
            for c_out in (4, 8)
        ]
        for i, (k_oocs, c_in, c_out) in enumerate(grid):
            cfg = OocsBlockConfig(c_in=c_in, c_out=c_out, k_oocs=k_oocs)
            for j in range(3):
                _check_block_grads_fd(cfg, seed=1000 * (i + 1) + j)

        # all three losses, per-coordinate FD, 20 seeds
        for seed in range(20):
            rng = np.random.default_rng(700 + seed)
            logits = rng.normal(size=(1, 3, 3, 3))
            target = (rng.random(size=(3, 3, 3)) < 0.5).astype(np.float64)
            pair = PredictionPair(FeatureMap(logits), target)
            for loss_fn in (bce_loss, soft_dice_loss, bce_dice_loss):
                _, grad = loss_fn(pair)

                def phi(z, fn=loss_fn):
                    return fn(PredictionPair(FeatureMap(z), target))[0]

                fd = central_difference(phi, logits)
                assert max_rel_err(grad.data, fd) < 1e-5


def _gradient_scalars(grads):
    """Scalars that `block_backward` returns a gradient for, data plus bias."""
    total = 0
    for field in dataclasses.fields(grads):
        g = getattr(grads, field.name)
        total += g.data.size + (0 if g.bias is None else g.bias.size)
    return total


def test_criterion_06_parameter_count_parity():
    # Parity is with the same two-pathway block minus its On/Off
    # injections: the fixed kernels add no learnables.  That block is the
    # layout naive_block_forward and the benchmark's scipy block_ref both
    # compute, each pathway's second conv reading its own c_out/2 channels.
    with criterion(6, "parameter-count-parity", 30.0):
        rng = np.random.default_rng(606)
        for k_learn in (3, 5):
            for c_in in (1, 2):
                for c_out in (4, 8):
                    where = f"k={k_learn} c_in={c_in} c_out={c_out}"
                    cfg = OocsBlockConfig(c_in=c_in, c_out=c_out, k_learn=k_learn)
                    params = init_block_params(cfg, seed=0)
                    n_oocs = learnable_param_count(params)
                    n_bare = two_pathway_param_count(c_in, c_out, k_learn)
                    assert n_oocs == n_bare, (
                        f"{where}: block stores {n_oocs} learnables, the "
                        f"two-pathway block without injections has {n_bare}"
                    )

                    x = FeatureMap(rng.normal(size=(c_in, 3, 3, 3)))
                    y, cache = block_forward(x, params, cfg)
                    _, grads = block_backward(
                        FeatureMap(rng.normal(size=y.data.shape)), cache, params, cfg
                    )
                    n_trained = _gradient_scalars(grads)
                    assert n_trained == n_bare, (
                        f"{where}: block_backward returns gradients for "
                        f"{n_trained} scalars, the two-pathway block without "
                        f"injections has {n_bare} learnables"
                    )


def test_criterion_07_on_off_duality_end_to_end():
    with criterion(7, "on-off-duality", 30.0):
        rng = np.random.default_rng(707)
        for i in range(50):
            k = 3 if i % 2 == 0 else 5
            spec = KernelSpec(k=k)
            on = ConvWeights(make_kernel(spec, "on").weights[None, None])
            off = ConvWeights(make_kernel(spec, "off").weights[None, None])
            shape = tuple(int(rng.integers(k, 9)) for _ in range(3))
            x = FeatureMap(rng.normal(size=(1,) + shape))
            chi_on = conv3d_forward(x, on).data
            chi_off = conv3d_forward(x, off).data
            assert np.abs(chi_off + chi_on).max() < 1e-12
            const = FeatureMap(np.full((1,) + shape, float(rng.uniform(-5, 5))))
            interior = conv3d_forward(const, on, "valid").data
            assert np.abs(interior).max() < 1e-9


def test_criterion_08_metrics_oracle():
    with criterion(8, "metrics-oracle", 60.0):
        a = np.zeros((2, 3, 3), dtype=bool)
        b = np.zeros((2, 3, 3), dtype=bool)
        a[0, 0, :3] = True
        a[0, 1, 0] = True
        b[0, 0, :3] = True
        b[1, 0, :3] = True
        sp = (1.0, 1.0, 1.0)
        assert dice(BinaryMask(a, sp), BinaryMask(b, sp)) == 0.6
        ha = np.zeros((4, 1, 1), dtype=bool)
        hb = np.zeros((4, 1, 1), dtype=bool)
        ha[0] = True
        hb[3] = True
        sp6 = (0.6, 0.6, 0.6)
        assert hausdorff_mm(BinaryMask(ha, sp6), BinaryMask(hb, sp6)) == pytest.approx(
            1.8, rel=1e-12
        )
        for seed in range(200):
            rng = np.random.default_rng(800 + seed)
            shape = tuple(int(rng.integers(1, 7)) for _ in range(3))
            spacing = tuple(float(rng.choice([0.5, 1.0, 1.5])) for _ in range(3))
            da = rng.random(size=shape) < 0.4
            db = rng.random(size=shape) < 0.4
            ma = BinaryMask(da, spacing)
            mb = BinaryMask(db, spacing)
            assert dice(ma, mb) == brute_dice(da, db)
            if da.any() and db.any():
                assert hausdorff_mm(ma, mb) == brute_hausdorff_mm(da, db, spacing)
            else:
                with pytest.raises(UndefinedDistanceError):
                    hausdorff_mm(ma, mb)


def test_criterion_09_perturbation_contracts():
    with criterion(9, "perturbation-contracts", 120.0):
        rng = np.random.default_rng(909)
        for i in range(500):
            sigma = float(rng.uniform(0.4, 2.5))
            if i % 10 == 0:
                level = float(rng.uniform(-10, 10))
                v = Volume(np.full((5, 5, 5), level))
                out = gaussian_blur(v, sigma)
                assert np.abs(out.data - level).max() < 1e-12
            v = Volume(rng.normal(size=(5, 5, 5)))
            out = gaussian_blur(v, sigma)
            assert out.data.var() <= v.data.var() + 1e-12
        sigma = 45.0
        big = Volume(np.zeros((100, 100, 100)))
        noisy = gaussian_noise(big, sigma, seed=909)
        delta = noisy.data - big.data
        assert abs(delta.std() - sigma) < 0.01 * sigma
        assert abs(delta.mean()) < 4.0 * sigma / 1e3
        v = Volume(np.random.default_rng(910).normal(size=(9, 8, 7)))
        still = motion_artifact(v, n_transforms=1, max_rot_deg=0.0, max_trans_mm=0.0, seed=1)
        assert np.abs(still.data - v.data).max() < 1e-5


def test_criterion_10_pipeline_round_trips(tmp_path):
    with criterion(10, "pipeline-round-trips", 60.0):
        rng = np.random.default_rng(1010)
        v = Volume(rng.normal(size=(4, 5, 6)), spacing=(0.6, 0.8, 1.0))
        m = BinaryMask(rng.random(size=(4, 5, 6)) < 0.5, spacing=(0.6, 0.8, 1.0))
        write_mha(v, str(tmp_path / "v.mha"))
        back = read_mha(str(tmp_path / "v.mha"))
        np.testing.assert_array_equal(back.data, v.data)
        assert back.spacing == v.spacing
        write_mha(m, str(tmp_path / "m.mha"))
        back_m = read_mha(str(tmp_path / "m.mha"))
        np.testing.assert_array_equal(back_m.data, m.data)
        write_raw_json(v, str(tmp_path / "v.json"))
        np.testing.assert_array_equal(read_raw_json(str(tmp_path / "v.json")).data, v.data)
        write_raw_json(m, str(tmp_path / "m.json"))
        np.testing.assert_array_equal(read_raw_json(str(tmp_path / "m.json")).data, m.data)

        resampled = resample(v, v.spacing)
        assert resampled.shape == v.shape
        assert np.abs(resampled.data - v.data).max() < 1e-12

        normalized = zscore(v)
        assert abs(normalized.data.mean()) < 1e-9
        assert abs(normalized.data.std() - 1.0) < 1e-9
