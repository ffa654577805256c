"""Command-line surface: flags, exit codes, stream separation, determinism."""

import builtins
import json
import logging
import os
import re
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oocs3d import _strips, errors, perturb, tensor, volio
from oocs3d._strips import STRIP_ROWS
from oocs3d.cli import main
from oocs3d.kernels import KernelDerivation, KernelSpec, make_kernel
from oocs3d.perturb import gaussian_blur, gaussian_noise, motion_artifact
from oocs3d.tensor import BinaryMask, ConvWeights, FeatureMap, Volume, conv3d_forward
from oocs3d.volio import read_mha, read_raw_json, write_mha, write_raw_json

from oracles import naive_conv3d


# Prints a digest of one block forward and backward pass at the thread
# count given as argv[1], pinned the same way `--threads` pins it.  The
# input's 40 x 36 slices are wide enough that the engine splits every
# 4-channel conv into row strips, so the weight gradients sum over them.
_DIGEST_SHAPE = (4, 6, 40, 36)
_BLOCK_DIGEST = f"""
import hashlib, sys
from oocs3d.cli import _apply_threads
_apply_threads(int(sys.argv[1]))
import numpy as np
from oocs3d.block import OocsBlockConfig, block_backward, block_forward, init_block_params
from oocs3d.tensor import FeatureMap
cfg = OocsBlockConfig(c_in=4, c_out=8)
rng = np.random.default_rng(5)
params = init_block_params(cfg, 5)
y, cache = block_forward(FeatureMap(rng.normal(size={_DIGEST_SHAPE})), params, cfg)
gx, grads = block_backward(FeatureMap(rng.normal(size=y.shape)), cache, params, cfg)
h = hashlib.sha256(y.data.tobytes() + gx.data.tobytes())
for w in (grads.w1_on, grads.w1_off, grads.w2_on, grads.w2_off):
    h.update(w.data.tobytes() + w.bias.tobytes())
print(h.hexdigest())
"""

# Prints a digest of the gradient-check grid's rows (one seed, one
# direction per target) and of one training step on the block digest's
# input, at the thread count given as argv[1]: the block's output, a 1x1
# head's bce_dice_loss, and the head's and the block's gradients.
_STEP_DIGEST = f"""
import hashlib, sys
from oocs3d.cli import _apply_threads
_apply_threads(int(sys.argv[1]))
import numpy as np
from oocs3d.block import OocsBlockConfig, block_backward, block_forward, init_block_params
from oocs3d.gradcheck import run_gradcheck_grid
from oocs3d.losses import PredictionPair, bce_dice_loss
from oocs3d.tensor import ConvWeights, FeatureMap, conv3d_backward, conv3d_forward
h = hashlib.sha256(repr(run_gradcheck_grid(seeds=(0,), n_dirs=1)).encode())
cfg = OocsBlockConfig(c_in=4, c_out=8)
rng = np.random.default_rng(7)
params = init_block_params(cfg, 7)
head = ConvWeights(rng.uniform(-0.35, 0.35, (1, 8, 1, 1, 1)), np.zeros(1))
y, cache = block_forward(FeatureMap(rng.normal(size={_DIGEST_SHAPE})), params, cfg)
target = (rng.random(y.shape[1:]) < 0.3).astype(float)
loss, g_logits = bce_dice_loss(PredictionPair(conv3d_forward(y, head), target))
g_y, g_head = conv3d_backward(y, head, g_logits)
_, grads = block_backward(g_y, cache, params, cfg)
h.update(y.data.tobytes() + np.float64(loss).tobytes())
for w in (g_head, grads.w1_on, grads.w1_off, grads.w2_on, grads.w2_off):
    h.update(w.data.tobytes() + w.bias.tobytes())
print(h.hexdigest())
"""

# Prints the live thread count before and after the work that runs as one
# strip at a time and so must not start the strip pool (one block forward
# and backward pass on 40 x 6 slices, the gradient-check grid, and a
# preprocess resampling to a depth of 12 and an eval on the result), then
# after a filter whose conv has three strips, which must.  argv[1] is a
# directory holding the filter's input in.mha and the small image and
# mask small.mha and small_mask.mha.
_IDLE_COUNTS = """
import os, sys, threading
import numpy as np
from oocs3d.block import OocsBlockConfig, block_backward, block_forward, init_block_params
from oocs3d.cli import main
from oocs3d.gradcheck import run_gradcheck_grid
from oocs3d.tensor import FeatureMap
p = lambda name: os.path.join(sys.argv[1], name)
before = threading.active_count()
cfg = OocsBlockConfig(c_in=2, c_out=4)
params = init_block_params(cfg, 1)
y, cache = block_forward(FeatureMap(np.ones((2, 6, 40, 6))), params, cfg)
block_backward(FeatureMap(np.ones(y.shape)), cache, params, cfg)
run_gradcheck_grid()
assert main(["preprocess", "--in", p("small.mha"), "--out", p("pre.mha"), "--mask", p("small_mask.mha"),
             "--mask-out", p("pre_mask.mha"), "--spacing", "1", "0.8", "0.6"]) == 0
assert main(["eval", "--pred", p("pre_mask.mha"), "--ref", p("pre_mask.mha"), "--csv-out", p("eval.csv")]) == 0
idle = threading.active_count()
assert main(["filter", "--in", p("in.mha"), "--out-on", p("on.mha"), "--out-off", p("off.mha"),
             "--k", "5"]) == 0
print(before, idle, threading.active_count())
"""


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _documented_exit_codes():
    """{class name: exit code}, read from the table in the errors module docstring."""
    table, code = {}, None
    for line in errors.__doc__.splitlines():
        row = re.match(r"\s+(\d)\s+[^:]*:(.*)", line)
        if row:
            code, line = int(row.group(1)), row.group(2)
        if code is not None:
            for name in re.findall(r"\b[A-Z]\w*Error\b", line):
                table[name] = code
    return table


_EXIT_CODES = _documented_exit_codes()
_FAILURE_KIND = {2: "configuration error", 3: "file error", 4: "numeric failure"}


class TestExitCodes:
    def test_table_names_every_error_class(self):
        classes = {n for n, c in vars(errors).items() if isinstance(c, type) and issubclass(c, Exception)}
        assert set(_EXIT_CODES) == classes | {"OSError", "MemoryError"}

    @pytest.mark.parametrize("name,code", sorted(_EXIT_CODES.items()))
    def test_raised_class_ends_in_its_exit_code(self, name, code, capsys, caplog, monkeypatch):
        exc_type = getattr(errors, name, None) or getattr(builtins, name)
        kind = "out of memory" if exc_type is MemoryError else _FAILURE_KIND[code]

        def handler(args):
            raise exc_type("handler failed")

        monkeypatch.setattr("oocs3d.cli._cmd_kernel", handler)
        rc, _, _ = _run(capsys, "kernel", "--k", "3")
        assert rc == code
        assert f"{kind}: handler failed" in caplog.text

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_allocation_past_address_space_limit_exits_3(self, tmp_path):
        # 1001^3 taps pass the size rule but ask for 7.5 GiB; the limit
        # applies to the child only
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        out = tmp_path / "k.json"
        r = subprocess.run(
            [sys.executable, "-m", "oocs3d.cli", "kernel", "--k", "1001", "--out", str(out)],
            capture_output=True, text=True, timeout=120, preexec_fn=limit,
        )
        assert r.returncode == 3, r.stderr
        assert "out of memory" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()


class TestKernelCommand:
    def test_defaults_and_json_reparse(self, capsys):
        rc, out, _ = _run(capsys, "kernel", "--k", "3")
        assert rc == 0
        doc = json.loads(out)
        want = make_kernel(KernelSpec(k=3))
        assert KernelSpec(**doc["spec"]) == KernelSpec(k=3, gamma=2.0 / 3.0, c=3.0, dims=3)
        assert doc["polarity"] == "on"
        np.testing.assert_array_equal(np.array(doc["weights"]), want.weights)
        assert KernelDerivation(**doc["derivation"]) == want.derivation

    def test_even_k_is_usage_error(self, capsys):
        rc, out, err = _run(capsys, "kernel", "--k", "4")
        assert rc == 2
        assert out == ""  # data stream stays clean on failure

    def test_csv_format(self, capsys):
        rc, out, _ = _run(capsys, "kernel", "--k", "3", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,z,weight"
        assert len(lines) == 28

    def test_output_file_and_idempotence(self, capsys, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert main(["kernel", "--k", "5", "--out", str(p1)]) == 0
        assert main(["kernel", "--k", "5", "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_off_polarity(self, capsys):
        rc, out, _ = _run(capsys, "kernel", "--k", "3", "--polarity", "off")
        assert rc == 0
        doc = json.loads(out)
        assert doc["polarity"] == "off"
        np.testing.assert_array_equal(
            np.array(doc["weights"]), -make_kernel(KernelSpec(k=3)).weights
        )


class TestFilterCommand:
    def _write_volume(self, tmp_path, data, name="in.mha"):
        v = Volume(data, spacing=(1.0, 1.0, 1.0))
        p = tmp_path / name
        write_mha(v, str(p))
        return p, v

    def test_off_response_is_exact_negation(self, capsys, tmp_path):
        rng = np.random.default_rng(263)
        p, _ = self._write_volume(tmp_path, rng.normal(size=(6, 6, 6)))
        on_p = tmp_path / "on.mha"
        off_p = tmp_path / "off.mha"
        rc = main([
            "filter", "--in", str(p), "--out-on", str(on_p),
            "--out-off", str(off_p), "--k", "3",
        ])
        capsys.readouterr()
        assert rc == 0
        on = read_mha(str(on_p))
        off = read_mha(str(off_p))
        np.testing.assert_array_equal(off.data, -on.data)

    def test_constant_volume_valid_padding_gives_zero(self, capsys, tmp_path):
        p, _ = self._write_volume(tmp_path, np.full((7, 7, 7), 5.5))
        on_p = tmp_path / "on.mha"
        off_p = tmp_path / "off.mha"
        rc = main([
            "filter", "--in", str(p), "--out-on", str(on_p),
            "--out-off", str(off_p), "--k", "3", "--padding", "valid",
        ])
        capsys.readouterr()
        assert rc == 0
        on = read_mha(str(on_p))
        assert on.shape == (5, 5, 5)
        assert np.abs(on.data).max() < 1e-9

    def test_matches_direct_convolution(self, capsys, tmp_path):
        rng = np.random.default_rng(269)
        data = rng.normal(size=(5, 6, 7))
        p, v = self._write_volume(tmp_path, data)
        on_p = tmp_path / "on.json"
        off_p = tmp_path / "off.json"
        rc = main([
            "filter", "--in", str(p), "--out-on", str(on_p),
            "--out-off", str(off_p), "--k", "5",
        ])
        capsys.readouterr()
        assert rc == 0
        kern = make_kernel(KernelSpec(k=5)).weights
        want = naive_conv3d(data[None], kern[None, None], None, "same_zero")[0]
        on = read_raw_json(str(on_p))
        assert np.abs(on.data - want).max() < 1e-9

    @pytest.mark.parametrize("ext", [".mha", ".json"])
    @pytest.mark.parametrize("padding", ["same_zero", "valid"])
    def test_off_matches_direct_convolution(self, capsys, tmp_path, padding, ext):
        rng = np.random.default_rng(271)
        data = rng.normal(size=(6, 7, 8))
        p, _ = self._write_volume(tmp_path, data)
        on_p = tmp_path / f"on{ext}"
        off_p = tmp_path / f"off{ext}"
        rc = main([
            "filter", "--in", str(p), "--out-on", str(on_p),
            "--out-off", str(off_p), "--k", "5", "--padding", padding,
        ])
        capsys.readouterr()
        assert rc == 0
        read = read_mha if ext == ".mha" else read_raw_json
        for polarity, path in (("on", on_p), ("off", off_p)):
            kern = make_kernel(KernelSpec(k=5), polarity).weights
            want = naive_conv3d(data[None], kern[None, None], None, padding)[0]
            got = read(str(path)).data
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-9

    def test_sphere_phantom_rim_is_positive(self, capsys, tmp_path):
        # On-center voxels just inside the boundary see the dark outside
        # through their negative surround, so their response is positive;
        # rim membership uses corner neighbours because face neighbours
        # carry zero weight at k=3
        n = 13
        z, y, x = np.indices((n, n, n), dtype=np.float64)
        c = (n - 1) / 2.0
        inside = (z - c) ** 2 + (y - c) ** 2 + (x - c) ** 2 <= 4.5 ** 2
        p, _ = self._write_volume(tmp_path, inside.astype(np.float64))
        on_p = tmp_path / "on.mha"
        off_p = tmp_path / "off.mha"
        rc = main([
            "filter", "--in", str(p), "--out-on", str(on_p),
            "--out-off", str(off_p), "--k", "3",
        ])
        capsys.readouterr()
        assert rc == 0
        resp = read_mha(str(on_p)).data
        shifted_out = np.zeros_like(inside)
        for dz in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if abs(dz) + abs(dy) + abs(dx) == 3:
                        shifted_out |= ~np.roll(inside, (dz, dy, dx), axis=(0, 1, 2))
        rim = inside & shifted_out
        core = inside.copy()
        for _ in range(2):  # erode twice to clear every weighted neighbour
            er = core.copy()
            for ax in (0, 1, 2):
                er &= np.roll(core, 1, axis=ax) & np.roll(core, -1, axis=ax)
                er &= np.roll(np.roll(core, 1, axis=ax), 1, axis=(ax + 1) % 3)
            core = er
        assert rim.any() and core.any()
        assert resp[rim].min() > 0.0
        assert np.abs(resp[core]).max() < 1e-9


class TestEvalCommand:
    def _write_mask(self, path, data, spacing=(1.0, 1.0, 1.0)):
        write_mha(BinaryMask(data, spacing=spacing), str(path))

    def test_identical_masks(self, capsys, tmp_path):
        rng = np.random.default_rng(271)
        data = rng.random(size=(4, 4, 4)) < 0.5
        data[0, 0, 0] = True
        a = tmp_path / "a.mha"
        b = tmp_path / "b.mha"
        self._write_mask(a, data)
        self._write_mask(b, data)
        rc, out, _ = _run(capsys, "eval", "--pred", str(a), "--ref", str(b), "--case", "t0")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "case,dsc,hsd_mm"
        cells = lines[1].split(",")
        assert cells[0] == "t0"
        assert float(cells[1]) == 1.0
        assert float(cells[2]) == 0.0

    def test_known_pair_with_spacing(self, capsys, tmp_path):
        a_data = np.zeros((4, 1, 1), dtype=bool)
        b_data = np.zeros((4, 1, 1), dtype=bool)
        a_data[0] = True
        b_data[3] = True
        a = tmp_path / "a.mha"
        b = tmp_path / "b.mha"
        self._write_mask(a, a_data, spacing=(0.6, 0.6, 0.6))
        self._write_mask(b, b_data, spacing=(0.6, 0.6, 0.6))
        rc, out, _ = _run(capsys, "eval", "--pred", str(a), "--ref", str(b))
        assert rc == 0
        cells = out.strip().split("\n")[1].split(",")
        assert float(cells[1]) == 0.0
        assert float(cells[2]) == pytest.approx(1.8, rel=1e-12)

    def test_empty_mask_reports_undefined(self, capsys, tmp_path):
        a = tmp_path / "a.mha"
        b = tmp_path / "b.mha"
        self._write_mask(a, np.zeros((3, 3, 3), dtype=bool))
        full = np.zeros((3, 3, 3), dtype=bool)
        full[1, 1, 1] = True
        self._write_mask(b, full)
        rc, out, err = _run(capsys, "eval", "--pred", str(a), "--ref", str(b))
        assert rc == 0
        cells = out.strip().split("\n")[1].split(",")
        assert float(cells[1]) == 0.0
        assert cells[2] == "undefined"

    def test_csv_out_file(self, capsys, tmp_path):
        # the file is UTF-8, so a label from --case or the --pred name may be non-ASCII
        data = np.ones((2, 2, 2), dtype=bool)
        out_csv = tmp_path / "scores.csv"
        for pred, case_args, label in [
            ("a.mha", [], "a"),
            ("a.mha", ["--case", "café"], "café"),
            ("préd.mha", [], "préd"),
        ]:
            a = tmp_path / pred
            self._write_mask(a, data)
            rc = main(["eval", "--pred", str(a), "--ref", str(a), "--csv-out", str(out_csv), *case_args])
            capsys.readouterr()
            assert rc == 0
            assert out_csv.read_bytes().decode("utf-8") == f"case,dsc,hsd_mm\n{label},1.0,0.0\n"

    def test_non_mask_input_is_usage_error(self, capsys, tmp_path):
        v = Volume(np.array([[[0.5, 2.0]]]), spacing=(1.0, 1.0, 1.0))
        p = tmp_path / "v.mha"
        write_mha(v, str(p))
        rc, _, _ = _run(capsys, "eval", "--pred", str(p), "--ref", str(p))
        assert rc == 2

    def test_mismatched_spacing_is_usage_error(self, capsys, tmp_path):
        data = np.ones((2, 2, 2), dtype=bool)
        a = tmp_path / "a.mha"
        b = tmp_path / "b.mha"
        self._write_mask(a, data, spacing=(1.0, 1.0, 1.0))
        self._write_mask(b, data, spacing=(2.0, 1.0, 1.0))
        rc, _, _ = _run(capsys, "eval", "--pred", str(a), "--ref", str(b))
        assert rc == 2


class TestPerturbCommand:
    def test_same_seed_same_bytes(self, capsys, tmp_path):
        rng = np.random.default_rng(277)
        v = Volume(rng.normal(size=(6, 6, 6)), spacing=(1.0, 1.0, 1.0))
        src = tmp_path / "in.mha"
        write_mha(v, str(src))
        o1 = tmp_path / "o1.mha"
        o2 = tmp_path / "o2.mha"
        for o in (o1, o2):
            rc = main([
                "--seed", "9", "perturb", "--in", str(src), "--out", str(o),
                "--kind", "gaussian_noise", "--sigma", "2.0",
            ])
            assert rc == 0
        capsys.readouterr()
        assert o1.read_bytes() == o2.read_bytes()

    def test_seed_changes_output(self, capsys, tmp_path):
        rng = np.random.default_rng(281)
        v = Volume(rng.normal(size=(6, 6, 6)), spacing=(1.0, 1.0, 1.0))
        src = tmp_path / "in.mha"
        write_mha(v, str(src))
        o1 = tmp_path / "o1.mha"
        o2 = tmp_path / "o2.mha"
        main(["--seed", "1", "perturb", "--in", str(src), "--out", str(o1),
              "--kind", "gaussian_noise", "--sigma", "2.0"])
        main(["--seed", "2", "perturb", "--in", str(src), "--out", str(o2),
              "--kind", "gaussian_noise", "--sigma", "2.0"])
        capsys.readouterr()
        assert o1.read_bytes() != o2.read_bytes()

    @pytest.mark.parametrize("kind", ["gaussian_blur", "gaussian_noise", "motion"])
    def test_output_equals_direct_call(self, kind, capsys, tmp_path):
        v = Volume(np.random.default_rng(293).normal(size=(8, 6, 7)), spacing=(1.5, 1.0, 0.75))
        src = tmp_path / "in.mha"
        write_mha(v, str(src))
        out = tmp_path / "o.mha"
        rc, _, _ = _run(capsys, "--seed", "17", "perturb", "--in", str(src), "--out", str(out),
                        "--kind", kind, "--sigma", "1.25", "--n", "3",
                        "--max-rot", "7.5", "--max-trans", "2.5")
        assert rc == 0
        want = {
            "gaussian_blur": lambda: gaussian_blur(v, 1.25),
            "gaussian_noise": lambda: gaussian_noise(v, 1.25, 17),
            "motion": lambda: motion_artifact(v, 3, 7.5, 2.5, 17),
        }[kind]()
        write_mha(want, str(tmp_path / "want.mha"))
        assert out.read_bytes() == (tmp_path / "want.mha").read_bytes()

    @pytest.mark.parametrize("kind, flag, value", [
        ("gaussian_blur", "--sigma", "0"),
        ("gaussian_noise", "--sigma", "-1"),
        ("gaussian_noise", "--sigma", "nan"),
        ("motion", "--n", "0"),
        ("motion", "--max-rot", "-1"),
        ("motion", "--max-trans", "-0.5"),
    ])
    def test_bad_parameter_on_readable_input_writes_nothing(self, kind, flag, value, capsys, tmp_path):
        src = tmp_path / "in.mha"
        write_mha(Volume(np.ones((4, 4, 4))), str(src))
        out = tmp_path / "o.mha"
        rc, _, _ = _run(capsys, "perturb", "--in", str(src), "--out", str(out),
                        "--kind", kind, flag, value)
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--max-rot", "--max-trans"])
    def test_negative_zero_motion_bound_acts_as_zero(self, flag, capsys, tmp_path):
        # -0.0 passes the >= 0 check and must draw exactly as 0.0 does
        src = tmp_path / "in.mha"
        write_mha(Volume(np.random.default_rng(271).normal(size=(6, 5, 4))), str(src))
        outs = {}
        for value in ("-0.0", "0.0"):
            outs[value] = tmp_path / f"o{value}.mha"
            rc, _, err = _run(capsys, "perturb", "--in", str(src), "--out", str(outs[value]),
                              "--kind", "motion", flag, value)
            assert rc == 0, err
        assert outs["-0.0"].read_bytes() == outs["0.0"].read_bytes()

    def test_unknown_kind_is_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["perturb", "--in", "x.mha", "--out", "y.mha", "--kind", "shear"])
        assert exc.value.code == 2

    def test_motion_on_shallow_volume_is_usage_error(self, capsys, caplog, tmp_path):
        v = Volume(np.random.default_rng(283).normal(size=(3, 6, 6)), spacing=(1.0, 1.0, 1.0))
        src = tmp_path / "in.mha"
        write_mha(v, str(src))
        out = tmp_path / "o.mha"
        rc, _, _ = _run(capsys, "perturb", "--in", str(src), "--out", str(out),
                        "--kind", "motion", "--n", "3")
        assert rc == 2
        assert "D=3" in caplog.text and "n=3" in caplog.text
        assert not out.exists()

    def test_blur_on_mask_input_is_usage_error(self, capsys, tmp_path):
        m = BinaryMask(np.ones((3, 3, 3), dtype=bool), spacing=(1.0, 1.0, 1.0))
        src = tmp_path / "m.mha"
        write_mha(m, str(src))
        rc, _, _ = _run(capsys, "perturb", "--in", str(src), "--out",
                        str(tmp_path / "o.mha"), "--kind", "gaussian_blur")
        assert rc in (0, 2)  # masks may be promoted or refused, never crash


class TestPreprocessCommand:
    def test_pipeline_order_and_shapes(self, capsys, tmp_path):
        rng = np.random.default_rng(283)
        v = Volume(rng.normal(size=(10, 10, 10)), spacing=(1.0, 1.0, 1.0))
        src = tmp_path / "in.mha"
        write_mha(v, str(src))
        out = tmp_path / "out.mha"
        rc = main([
            "preprocess", "--in", str(src), "--out", str(out),
            "--spacing", "2", "2", "2", "--zscore", "--crop", "4", "4", "4",
        ])
        capsys.readouterr()
        assert rc == 0
        got = read_mha(str(out))
        assert got.shape == (4, 4, 4)
        assert got.spacing == (2.0, 2.0, 2.0)

    def test_mask_carried_through_same_geometry(self, capsys, tmp_path):
        rng = np.random.default_rng(293)
        v = Volume(rng.normal(size=(8, 8, 8)), spacing=(1.0, 1.0, 1.0))
        m = BinaryMask(rng.random(size=(8, 8, 8)) < 0.4, spacing=(1.0, 1.0, 1.0))
        src = tmp_path / "in.mha"
        msk = tmp_path / "m.mha"
        write_mha(v, str(src))
        write_mha(m, str(msk))
        out = tmp_path / "out.mha"
        mout = tmp_path / "mout.mha"
        rc = main([
            "preprocess", "--in", str(src), "--out", str(out),
            "--mask", str(msk), "--mask-out", str(mout),
            "--spacing", "0.5", "0.5", "0.5",
        ])
        capsys.readouterr()
        assert rc == 0
        got_m = read_mha(str(mout))
        assert isinstance(got_m, BinaryMask)
        assert got_m.shape == (16, 16, 16)

    @pytest.mark.parametrize("shape, spacing", [
        ((6, 9, 8), (1.5, 1.0, 1.0)),
        ((8, 8, 8), (1.0, 1.0, 1.0)),
        ((6, 9, 8), (1.0, 1.0, 1.0)),
    ], ids=["shape", "spacing", "both"])
    def test_misaligned_mask_is_dimension_error(self, shape, spacing, capsys, caplog, tmp_path, monkeypatch):
        # checked before any operation runs, so nothing is written
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(313)
        write_mha(Volume(rng.normal(size=(8, 8, 8)), spacing=(1.5, 1.0, 1.0)), "in.mha")
        write_mha(BinaryMask(rng.random(size=shape) < 0.4, spacing=spacing), "m.mha")
        rc, _, _ = _run(capsys, "preprocess", "--in", "in.mha", "--out", "out.mha",
                        "--mask", "m.mha", "--mask-out", "mout.mha",
                        "--spacing", "1", "1", "1", "--crop", "8", "8", "8")
        assert rc == 2
        assert "configuration error: mask 'm.mha' has shape" in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.mha", "m.mha"]

    def test_mask_without_mask_out_is_usage_error(self, capsys, tmp_path):
        rng = np.random.default_rng(307)
        src = tmp_path / "in.mha"
        write_mha(Volume(rng.normal(size=(4, 4, 4)), spacing=(1.0, 1.0, 1.0)), str(src))
        rc, _, _ = _run(capsys, "preprocess", "--in", str(src),
                        "--out", str(tmp_path / "o.mha"), "--mask", str(src), "--zscore")
        assert rc == 2

    def test_no_operation_is_usage_error(self, capsys, tmp_path):
        rng = np.random.default_rng(311)
        src = tmp_path / "in.mha"
        write_mha(Volume(rng.normal(size=(4, 4, 4)), spacing=(1.0, 1.0, 1.0)), str(src))
        rc, _, _ = _run(capsys, "preprocess", "--in", str(src),
                        "--out", str(tmp_path / "o.mha"))
        assert rc == 2

    def test_constant_volume_zscore_is_data_error(self, capsys, tmp_path):
        src = tmp_path / "in.mha"
        write_mha(Volume(np.full((4, 4, 4), 2.0), spacing=(1.0, 1.0, 1.0)), str(src))
        rc, _, _ = _run(capsys, "preprocess", "--in", str(src),
                        "--out", str(tmp_path / "o.mha"), "--zscore")
        assert rc == 4

    def test_overflowing_zscore_is_data_error(self, capsys, caplog, tmp_path):
        # every value is finite, but their sum and squares overflow float64
        src = tmp_path / "in.mha"
        data = np.where(np.indices((4, 4, 4)).sum(axis=0) % 2 == 0, 1e308, -1e308)
        write_mha(Volume(data), str(src))
        out = tmp_path / "o.mha"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the overflow is reported, not warned
            rc, stdout, _ = _run(capsys, "preprocess", "--in", str(src), "--out", str(out), "--zscore")
        assert rc == 4
        assert "numeric failure" in caplog.text and "overflows" in caplog.text
        assert stdout == "" and not out.exists()


class TestOverflowOfFiniteData:
    # every value is finite, but float64 overflows in the arithmetic; the
    # result container's finiteness check reports it as a data failure, and
    # numpy's floating-point warnings stay silent on every thread
    @staticmethod
    def _assert_numeric_failure(capsys, caplog, tmp_path, monkeypatch, argv, message, shape):
        monkeypatch.chdir(tmp_path)
        data = np.where(np.indices(shape).sum(axis=0) % 2 == 0, 1e308, -1e308)
        write_mha(Volume(data), "in.mha")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, stdout, _ = _run(capsys, *argv, "--in", "in.mha")
        assert rc == 4
        assert f"numeric failure: {message} contains non-finite values" in caplog.text
        assert stdout == "" and [p.name for p in tmp_path.iterdir()] == ["in.mha"]

    @pytest.mark.parametrize("argv, message", [
        (["filter", "--k", "3", "--out-on", "on.mha", "--out-off", "off.mha"], "feature map (C, D, H, W)"),
        (["perturb", "--kind", "gaussian_blur", "--out", "out.mha"], "volume data"),
        (["perturb", "--kind", "gaussian_noise", "--sigma", "1e308", "--out", "out.mha"], "volume data"),
        (["perturb", "--kind", "motion", "--n", "2", "--out", "out.mha"], "volume data"),
    ], ids=["filter", "gaussian_blur", "gaussian_noise", "motion"])
    def test_overflow_is_numeric_failure(self, argv, message, capsys, caplog, tmp_path, monkeypatch):
        self._assert_numeric_failure(capsys, caplog, tmp_path, monkeypatch, argv, message, (8, 8, 8))

    def test_overflow_on_a_pool_thread_is_numeric_failure(self, capsys, caplog, tmp_path, monkeypatch):
        # 40 rows make three strips; each thread's first strip waits until
        # the other holds one too, so the pool thread overflows as well
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(_strips, "thread_count", lambda: 2)
        monkeypatch.setattr(_strips, "_pool", lambda: pool)
        barrier, seen = threading.Barrier(2), threading.local()

        def for_strips_meeting(n_rows, fn):
            def meet_then_fn(rows):
                if not getattr(seen, "met", False):
                    seen.met = True
                    barrier.wait(timeout=10)
                fn(rows)
            _strips.for_strips(n_rows, meet_then_fn)

        monkeypatch.setattr(perturb, "for_strips", for_strips_meeting)
        try:
            self._assert_numeric_failure(capsys, caplog, tmp_path, monkeypatch,
                                         ["perturb", "--kind", "motion", "--n", "2", "--out", "out.mha"],
                                         "volume data", (40, 40, 40))
        finally:
            pool.shutdown()

    @staticmethod
    def _conv_strips_on_two_workers(monkeypatch, pool, fault=None):
        """Run the conv engine's strips on two workers; return the list of threads that ran one.

        In a call of more than one strip each thread's first strip waits
        until the other holds one; a pool thread then raises `fault`, if
        given, instead of computing its strip.
        """
        monkeypatch.setattr(_strips, "thread_count", lambda: 2)
        monkeypatch.setattr(_strips, "_pool", lambda: pool)
        ran = []

        def for_strips_meeting(n_rows, fn, rows):
            barrier, seen = threading.Barrier(2), threading.local()

            def meet_then_fn(ys):
                if n_rows > rows and not getattr(seen, "met", False):
                    seen.met = True
                    barrier.wait(timeout=10)
                ran.append(threading.current_thread())
                if fault is not None and threading.current_thread() is not threading.main_thread():
                    raise fault
                fn(ys)
            _strips.for_strips(n_rows, meet_then_fn, rows)

        monkeypatch.setattr(tensor, "for_strips", for_strips_meeting)
        return ran

    def test_overflow_in_a_conv_strip_on_a_pool_thread_is_numeric_failure(self, capsys, caplog, tmp_path,
                                                                           monkeypatch):
        # a 40 x 128 slice at k = 3 is three strips of 16, 16 and 8 rows,
        # so a pool thread's strip overflows too
        pool = ThreadPoolExecutor(1)
        ran = self._conv_strips_on_two_workers(monkeypatch, pool)
        try:
            self._assert_numeric_failure(capsys, caplog, tmp_path, monkeypatch,
                                         ["filter", "--k", "3", "--out-on", "on.mha", "--out-off", "off.mha"],
                                         "feature map (C, D, H, W)", (8, 40, 128))
        finally:
            pool.shutdown()
        assert any(t is not threading.main_thread() for t in ran)
        assert [r.levelname for r in caplog.records] == ["ERROR"]

    def test_memory_error_in_a_conv_strip_on_a_pool_thread_is_out_of_memory(self, capsys, caplog, tmp_path,
                                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_mha(Volume(np.random.default_rng(337).normal(size=(40, 40, 40))), "in.mha")
        pool = ThreadPoolExecutor(1)
        ran = self._conv_strips_on_two_workers(monkeypatch, pool, MemoryError("strip buffer"))
        try:
            rc, stdout, stderr = _run(capsys, "filter", "--k", "5", "--in", "in.mha",
                                      "--out-on", "on.mha", "--out-off", "off.mha")
        finally:
            pool.shutdown()
        assert rc == 3
        assert any(t is not threading.main_thread() for t in ran)
        assert [r.getMessage() for r in caplog.records] == ["out of memory: strip buffer"]
        assert stdout == "" and "Traceback" not in stderr
        assert [p.name for p in tmp_path.iterdir()] == ["in.mha"]


def _nonfinite_image(ext):
    """Write an 8^3 image with one NaN and one +inf outside its centered 4^3 crop; return its `ext` path."""
    data = np.random.default_rng(331).normal(size=(8, 8, 8))
    data[0, 0, 0], data[7, 7, 7] = np.nan, np.inf
    path = "in" + ext
    if ext == ".mha":
        write_mha(Volume(np.zeros((8, 8, 8))), path)
        with open(path, "r+b") as f:
            f.seek(-data.nbytes, os.SEEK_END)
            f.write(data.astype("<f8").tobytes())
    else:
        write_raw_json(Volume(np.zeros((8, 8, 8))), path)
        with open("in.raw", "wb") as f:
            f.write(data.astype("<f8").tobytes())
    return path


class TestNonFiniteFileData:
    # NaN or inf in an image file is bad data (exit 4) for every command
    # that reads one, whatever it would do to the values next
    @pytest.mark.parametrize("ext", [".mha", ".json"])
    @pytest.mark.parametrize("argv", [
        ["filter", "--k", "3", "--out-on", "on.mha", "--out-off", "off.mha"],
        ["perturb", "--kind", "gaussian_blur", "--out", "out.mha"],
        ["perturb", "--kind", "gaussian_noise", "--out", "out.mha"],
        ["perturb", "--kind", "motion", "--n", "2", "--out", "out.mha"],
        ["preprocess", "--spacing", "2", "2", "2", "--out", "out.mha"],
        ["preprocess", "--zscore", "--out", "out.mha"],
        ["preprocess", "--crop", "4", "4", "4", "--out", "out.mha"],
    ], ids=["filter", "gaussian_blur", "gaussian_noise", "motion", "spacing", "zscore", "crop"])
    def test_nonfinite_file_data_is_numeric_failure(self, argv, ext, capsys, caplog, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = _nonfinite_image(ext)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, stdout, stderr = _run(capsys, *argv, "--in", src)
        assert rc == 4
        assert [r.getMessage() for r in caplog.records] == [
            f"numeric failure: volume read from {src!r} contains non-finite values"]
        assert caught == [] and "Warning" not in stderr and stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs


class TestGradcheckCommand:
    def test_passing_run(self, capsys):
        rc, out, _ = _run(
            capsys, "gradcheck", "--seeds", "1", "--n-dirs", "1",
            "--spatial", "5", "5", "5",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k_oocs,c_in,c_out,seed,max_rel_err,redraws,status"
        assert len(lines) > 1
        assert all(ln.endswith(",pass") for ln in lines[1:])

    def test_impossible_tolerance_fails_with_exit_4(self, capsys):
        rc, out, _ = _run(
            capsys, "gradcheck", "--seeds", "1", "--n-dirs", "1",
            "--spatial", "5", "5", "5", "--tol", "1e-18",
        )
        assert rc == 4
        assert any(ln.endswith(",FAIL") for ln in out.strip().split("\n")[1:])

    @pytest.mark.parametrize("flag, value, reason", [
        ("--tol", "nan", "tolerance tol"), ("--tol", "-1", "tolerance tol"),
        ("--h", "nan", "step size h"), ("--h", "inf", "step size h"),
        ("--seeds", "0", "no case"), ("--seeds", "-3", "no case"),
    ])
    def test_meaningless_request_is_usage_error(self, capsys, caplog, flag, value, reason):
        # these used to fail every check (exit 4), blame the conv weights,
        # or pass zero checks with exit 0
        rc, out, _ = _run(capsys, "gradcheck", "--n-dirs", "1", "--spatial", "5", "5", "5", flag, value)
        assert rc == 2
        assert out == ""
        assert "configuration error" in caplog.text and reason in caplog.text


class TestSizeLimit:
    """Arguments that size an array past `tensor.MAX_ELEMENTS` exit 2 before allocating it."""

    @pytest.mark.parametrize("argv", [
        ["perturb", "--out", "{out}", "--kind", "gaussian_blur", "--sigma", "1e300"],
        ["perturb", "--out", "{out}", "--kind", "gaussian_blur", "--sigma", "1e308"],
        ["preprocess", "--out", "{out}", "--spacing", "1e-300", "1", "1"],
        ["preprocess", "--out", "{out}", "--crop", "100000000000000000000000", "2", "2"],
        ["filter", "--out-on", "{out}", "--out-off", "{out}", "--k", "100001"],
    ], ids=["blur-1e300", "blur-1e308", "spacing", "crop", "filter-k"])
    def test_oversized_argument_is_usage_error(self, argv, capsys, caplog, tmp_path):
        src, out = tmp_path / "in.mha", tmp_path / "o.mha"
        write_mha(Volume(np.arange(24.0).reshape(4, 3, 2)), str(src))
        argv = [a.format(out=out) for a in argv]
        rc, _, _ = _run(capsys, argv[0], "--in", str(src), *argv[1:])
        assert rc == 2
        assert "more than 2147483648 elements" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["kernel", "--k", "100001"],
        ["gradcheck", "--spatial", "100000", "100000", "100000"],
    ], ids=["kernel-k", "gradcheck-spatial"])
    def test_oversized_argument_without_input_is_usage_error(self, argv, capsys, caplog):
        rc, out, _ = _run(capsys, *argv)
        assert rc == 2
        assert "more than 2147483648 elements" in caplog.text
        assert out == ""


class TestTopLevel:
    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--seeds", "1", "--n-dirs", "1", "--spatial", "5", "5", "5"],
        ["perturb", "--kind", "gaussian_noise"],
        ["perturb", "--kind", "motion"],
    ], ids=["gradcheck", "noise", "motion"])
    def test_negative_seed_is_usage_error(self, argv, capsys, caplog, tmp_path):
        if argv[0] == "perturb":
            write_mha(Volume(np.ones((4, 4, 4))), str(tmp_path / "in.mha"))
            argv = argv + ["--in", str(tmp_path / "in.mha"), "--out", str(tmp_path / "o.mha")]
        rc, out, err = _run(capsys, "--seed", "-1", *argv)
        assert rc == 2
        assert out == "" and "Traceback" not in err
        assert "seed must be >= 0" in caplog.text
        assert not (tmp_path / "o.mha").exists()

    def test_missing_input_file_is_io_error(self, capsys, tmp_path):
        rc, _, _ = _run(capsys, "filter", "--in", str(tmp_path / "nope.mha"),
                        "--out-on", str(tmp_path / "a.mha"),
                        "--out-off", str(tmp_path / "b.mha"), "--k", "3")
        assert rc == 3

    def test_unsupported_extension_is_io_error(self, capsys, tmp_path):
        p = tmp_path / "vol.nii"
        p.write_bytes(b"xx")
        rc, _, _ = _run(capsys, "eval", "--pred", str(p), "--ref", str(p))
        assert rc == 3

    @pytest.mark.parametrize("argv", [
        ["filter", "--k", "3", "--out-on", "on.mha", "--out-off", "off.nii"],
        ["preprocess", "--zscore", "--out", "out.mha", "--mask", "m.mha", "--mask-out", "mout.nii"],
        ["perturb", "--kind", "gaussian_blur", "--out", "out.nii"],
    ], ids=["filter", "preprocess", "perturb"])
    def test_bad_output_extension_writes_nothing(self, argv, capsys, caplog, tmp_path, monkeypatch):
        # every output's writer is found before the input is read
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(337)
        write_mha(Volume(rng.normal(size=(4, 4, 4))), "in.mha")
        write_mha(BinaryMask(rng.random(size=(4, 4, 4)) < 0.5), "m.mha")
        reads = []

        def spy(path, _read=volio.read_mha):
            reads.append(path)
            return _read(path)
        monkeypatch.setattr(volio, "read_mha", spy)
        rc, _, _ = _run(capsys, *argv, "--in", "in.mha")
        assert rc == 3
        assert "file error: unrecognized output extension" in caplog.text
        assert reads == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.mha", "m.mha"]

    @pytest.mark.parametrize("argv", [
        ["filter", "--k", "3", "--out-on", "on.mha", "--out-off", "nodir/off.mha"],
        ["filter", "--k", "3", "--out-on", "on.json", "--out-off", "nodir/off.json"],
        ["preprocess", "--zscore", "--out", "pre.json", "--mask", "m.mha", "--mask-out", "nodir/pm.mha"],
        ["preprocess", "--zscore", "--out", "pre.mha", "--mask", "m.mha", "--mask-out", "nodir/pm.json"],
    ], ids=["filter-mha", "filter-json", "preprocess-json", "preprocess-mha"])
    def test_unwritable_later_output_leaves_no_earlier_one(self, argv, capsys, caplog, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(339)
        write_mha(Volume(rng.normal(size=(4, 4, 4))), "in.mha")
        write_mha(BinaryMask(rng.random(size=(4, 4, 4)) < 0.5), "m.mha")
        rc, _, _ = _run(capsys, *argv, "--in", "in.mha")
        assert rc == 3
        assert "file error" in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.mha", "m.mha"]

    def test_directory_at_later_output_leaves_no_earlier_one(self, capsys, caplog, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_mha(Volume(np.random.default_rng(345).normal(size=(4, 4, 4))), "in.mha")
        (tmp_path / "off.json").mkdir()
        rc, _, _ = _run(capsys, "filter", "--in", "in.mha", "--k", "3", "--out-on", "on.mha", "--out-off", "off.json")
        assert rc == 3
        assert "file error" in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.mha", "off.json"]
        assert not any((tmp_path / "off.json").iterdir())

    @pytest.mark.parametrize("ext", ["mha", "json"])
    def test_write_failing_midway_leaves_nothing(self, ext, capsys, caplog, tmp_path, monkeypatch):
        # the second writer gets its files out, then fails as on a full disk
        monkeypatch.chdir(tmp_path)
        write_mha(Volume(np.random.default_rng(341).normal(size=(4, 4, 4))), "in.mha")
        name = "write_mha" if ext == "mha" else "write_raw_json"
        written = []

        def second_fails(obj, path, _write=getattr(volio, name)):
            _write(obj, path)
            written.append(path)
            if len(written) == 2:
                raise OSError(28, "No space left on device")
        monkeypatch.setattr(volio, name, second_fails)
        rc, _, _ = _run(capsys, "filter", "--in", "in.mha", "--k", "3",
                        "--out-on", f"on.{ext}", "--out-off", f"off.{ext}")
        assert rc == 3
        assert "No space left on device" in caplog.text
        assert [p.name for p in tmp_path.iterdir()] == ["in.mha"]

    def test_outputs_land_under_their_own_names(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_mha(Volume(np.random.default_rng(343).normal(size=(4, 4, 4))), "in.mha")
        (tmp_path / "sub").mkdir()
        for _ in range(2):  # the second run replaces the first one's files
            rc, _, _ = _run(capsys, "filter", "--in", "in.mha", "--k", "3",
                            "--out-on", "on.json", "--out-off", "sub/off.mha")
            assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.mha", "on.json", "on.raw", "sub"]
        assert [p.name for p in (tmp_path / "sub").iterdir()] == ["off.mha"]
        on, off = read_raw_json("on.json"), read_mha("sub/off.mha")
        assert off.data.tobytes() == (-on.data).tobytes()

    def test_payload_outside_header_directory_is_io_error(self, capsys, caplog, tmp_path):
        m = BinaryMask(np.ones((2, 2, 2), dtype=bool))
        (tmp_path / "hdr").mkdir()
        write_raw_json(m, str(tmp_path / "outside.json"))
        ref = tmp_path / "hdr" / "ref.json"
        write_raw_json(m, str(ref))
        doc = json.loads(ref.read_text())
        doc["raw_file"] = "../outside.raw"
        ref.write_text(json.dumps(doc))
        rc, _, _ = _run(capsys, "eval", "--pred", str(ref), "--ref", str(ref))
        assert rc == 3
        assert "raw_file" in caplog.text

    def test_nonpositive_sidecar_spacing_is_io_error(self, capsys, caplog, tmp_path):
        ref = tmp_path / "ref.json"
        write_raw_json(BinaryMask(np.ones((2, 2, 2), dtype=bool)), str(ref))
        doc = json.loads(ref.read_text())
        doc["spacing"] = [1.0, -1.0, 1.0]
        ref.write_text(json.dumps(doc))
        rc, _, _ = _run(capsys, "eval", "--pred", str(ref), "--ref", str(ref))
        assert rc == 3
        assert "spacing" in caplog.text

    def test_huge_integer_sidecar_spacing_is_io_error(self, capsys, caplog, tmp_path):
        ref = tmp_path / "ref.json"
        write_raw_json(BinaryMask(np.ones((2, 2, 2), dtype=bool)), str(ref))
        doc = json.loads(ref.read_text())
        doc["spacing"] = [1, 10 ** 400, 1]
        ref.write_text(json.dumps(doc))
        rc, _, _ = _run(capsys, "eval", "--pred", str(ref), "--ref", str(ref))
        assert rc == 3
        assert "sidecar" in caplog.text

    def test_non_numeric_sidecar_spacing_is_io_error(self, capsys, caplog, tmp_path):
        ref = tmp_path / "ref.json"
        write_raw_json(BinaryMask(np.ones((2, 2, 2), dtype=bool)), str(ref))
        doc = json.loads(ref.read_text())
        doc["spacing"] = ["1", "2", "3"]
        ref.write_text(json.dumps(doc))
        rc, _, _ = _run(capsys, "eval", "--pred", str(ref), "--ref", str(ref))
        assert rc == 3
        assert "spacing" in caplog.text

    def test_non_utf8_sidecar_is_io_error(self, capsys, caplog, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_bytes(b"\xff\xfe{\x00}\x00")
        rc, _, _ = _run(capsys, "eval", "--pred", str(ref), "--ref", str(ref))
        assert rc == 3
        assert "sidecar" in caplog.text

    def test_deeply_nested_sidecar_is_io_error(self, capsys, caplog, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text("[" * 100_000 + "]" * 100_000)
        rc, _, _ = _run(capsys, "eval", "--pred", str(ref), "--ref", str(ref))
        assert rc == 3
        assert "sidecar" in caplog.text

    def test_invalid_threads_is_usage_error(self, capsys, caplog):
        for threads in ("0", "-1"):
            rc, _, _ = _run(capsys, "--threads", threads, "kernel", "--k", "3")
            assert rc == 2
            assert f"thread count must be >= 1, got {threads}" in caplog.text

    def test_threads_after_numpy_import_warns(self, capsys, caplog, monkeypatch):
        # in-process main() always runs after numpy is loaded, when the
        # thread pools can no longer be resized; monkeypatch restores the
        # pool variables main() sets
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        with caplog.at_level(logging.WARNING, logger="oocs3d"):
            rc, _, _ = _run(capsys, "--threads", "2", "kernel", "--k", "3")
        assert rc == 0
        assert any("no effect" in r.getMessage() for r in caplog.records)

    def test_unset_threads_does_not_warn(self, capsys, caplog):
        with caplog.at_level(logging.WARNING, logger="oocs3d"):
            rc, _, _ = _run(capsys, "kernel", "--k", "3")
        assert rc == 0
        assert not caplog.records

    def test_conv_outputs_are_byte_identical_across_thread_counts(self, tmp_path):
        # the engine's contract: byte-identical results at any thread count,
        # for the single-channel filter and the multichannel block; both run
        # their row strips on the strip pool, and 5 workers are more than
        # there are strips or, on most machines, cores
        c, _, h, w = _DIGEST_SHAPE
        # a strip of whole rows cannot hold the 3k - 2 lowered slices the
        # engine asks for, so the first conv runs on row strips
        assert (3 * 3 - 2) * c * 3 ** 2 * h * w * 8 > tensor._COL_BYTES
        rng = np.random.default_rng(287)
        src = tmp_path / "in.mha"
        write_mha(Volume(rng.normal(size=(20, 24, 28))), str(src))
        filtered, block = [], []
        for threads in ("1", "2", "5"):
            on_p = tmp_path / f"on{threads}.mha"
            off_p = tmp_path / f"off{threads}.mha"
            r = subprocess.run(
                [sys.executable, "-m", "oocs3d.cli", "--threads", threads, "filter",
                 "--in", str(src), "--out-on", str(on_p), "--out-off", str(off_p), "--k", "5"],
                capture_output=True, text=True, timeout=120,
            )
            assert r.returncode == 0, r.stderr
            assert "no effect" not in r.stderr
            filtered.append(on_p.read_bytes() + off_p.read_bytes())
            r = subprocess.run(
                [sys.executable, "-c", _BLOCK_DIGEST, threads],
                capture_output=True, text=True, timeout=120,
            )
            assert r.returncode == 0, r.stderr
            block.append(r.stdout)
        assert filtered[0] == filtered[1] == filtered[2]
        assert block[0] == block[1] == block[2]

    def test_gradcheck_rows_and_a_training_step_are_byte_identical_across_thread_counts(self):
        digests = []
        for threads in ("1", "2", "5"):
            r = subprocess.run([sys.executable, "-c", _STEP_DIGEST, threads],
                               capture_output=True, text=True, timeout=120)
            assert r.returncode == 0, r.stderr
            digests.append(r.stdout)
        assert len(digests[0].strip()) == 64
        assert digests[0] == digests[1] == digests[2]

    def test_strip_pool_outputs_are_byte_identical_across_thread_counts(self, tmp_path):
        # blur, motion and resampling run on the strip pool, and eval's
        # CSV must not move with the thread count either; H is two full
        # strips and a short one, resampling the depth to 1 mm makes 30
        # rows, and 5 workers are more than there are strips or, on most
        # machines, cores
        rng = np.random.default_rng(293)
        shape = (20, 2 * STRIP_ROWS + 5, 24)
        image = tmp_path / "in.mha"
        write_mha(Volume(rng.normal(size=shape) * 40.0 + 100.0, (1.5, 1.0, 0.7)), str(image))
        masks = {}
        for name in ("pred", "ref"):
            masks[name] = tmp_path / f"{name}.mha"
            write_mha(BinaryMask(rng.random(shape) < 0.3, (1.5, 1.0, 0.7)), str(masks[name]))
        runs = []
        for threads in ("1", "2", "5"):
            blur, motion, scores, *resampled = (
                tmp_path / f"{threads}{name}" for name in (
                    "blur.mha", "motion.mha", "eval.csv", "one.mha", "one_mask.mha", "all.mha",
                    "all_mask.mha"))
            for argv in (
                ["perturb", "--in", str(image), "--out", str(blur), "--kind", "gaussian_blur",
                 "--sigma", "1.5"],
                ["--seed", "3", "perturb", "--in", str(image), "--out", str(motion), "--kind", "motion",
                 "--n", "3"],
                ["eval", "--pred", str(masks["pred"]), "--ref", str(masks["ref"]), "--csv-out", str(scores)],
                ["preprocess", "--in", str(image), "--out", str(resampled[0]), "--mask", str(masks["ref"]),
                 "--mask-out", str(resampled[1]), "--spacing", "1", "1", "0.7"],
                ["preprocess", "--in", str(image), "--out", str(resampled[2]), "--mask", str(masks["ref"]),
                 "--mask-out", str(resampled[3]), "--spacing", "1", "0.8", "0.5"],
            ):
                r = subprocess.run([sys.executable, "-m", "oocs3d.cli", "--threads", threads, *argv],
                                   capture_output=True, text=True, timeout=120)
                assert r.returncode == 0, r.stderr
            runs.append([p.read_bytes() for p in (blur, motion, scores, *resampled)])
        assert runs[0] == runs[1] == runs[2]

    def test_single_strip_work_starts_no_pool_thread(self, tmp_path):
        # a 40 x 24 slice at k = 5 is three strips of 16, 16 and 8 rows;
        # the small volume resamples to (12, 25, 30), one strip per pass
        rng = np.random.default_rng(307)
        write_mha(Volume(rng.normal(size=(20, 40, 24))), str(tmp_path / "in.mha"))
        write_mha(Volume(rng.normal(size=(8, 20, 18)), (1.5, 1.0, 1.0)), str(tmp_path / "small.mha"))
        write_mha(BinaryMask(rng.random((8, 20, 18)) < 0.3, (1.5, 1.0, 1.0)), str(tmp_path / "small_mask.mha"))
        r = subprocess.run(
            [sys.executable, "-c", _IDLE_COUNTS, str(tmp_path)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "OMP_NUM_THREADS": "2"},
        )
        assert r.returncode == 0, r.stderr
        before, idle, after = map(int, r.stdout.split())
        assert idle == before
        assert after > before  # the filter's conv runs on pool threads

    def test_threads_flag_does_not_change_results(self, tmp_path):
        # run as real subprocesses so the thread pinning can take effect
        # before the numeric libraries load
        out = []
        for threads in ("1", "2"):
            r = subprocess.run(
                [sys.executable, "-m", "oocs3d.cli", "--threads", threads,
                 "kernel", "--k", "5"],
                capture_output=True, text=True, timeout=120,
            )
            assert r.returncode == 0
            out.append(r.stdout)
        a = np.array(json.loads(out[0])["weights"], dtype=np.float64)
        b = np.array(json.loads(out[1])["weights"], dtype=np.float64)
        assert np.abs(a - b).max() < 1e-12

    def test_stderr_carries_logs_not_stdout(self, capsys):
        rc, out, err = _run(capsys, "--log-level", "info", "kernel", "--k", "3")
        assert rc == 0
        json.loads(out)  # stdout is pure data
