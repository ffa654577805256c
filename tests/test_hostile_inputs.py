"""Property tests: malformed files and arguments never escape as tracebacks.

The readers may return a volume or a mask, or raise an `OocsError` or
`OSError` subclass, which the CLI maps to exit codes 2-4; anything else
would end `oocs3d` in a traceback (exit 1).  Each subcommand that reads a
volume is run on mutated files with fuzzed numeric arguments and must end
in 0, 2, 3 or 4 without leaking a numpy floating-point `RuntimeWarning`.
Arguments that set the size of an array the command builds (`--k`,
`--crop`, `--spacing` and the blur `--sigma`) are drawn from small valid
values, invalid ones and sizes past the `MAX_ELEMENTS` limit only: a
valid size below the limit makes the command allocate what it asks for.
`filter` also runs with valid arguments on mutated files of a 3x3x3
volume, so every intact file reaches the conv, and on finite images of
+-1e308-scale values, whose convolution overflows float64: it must end
in 0 or 4.  The fuzzed `filter`, `perturb` and `preprocess` tests also
draw intact images of +-1e308-scale values, and `filter` valid `--k`,
`--gamma` and `--c` on intact files, so some of their draws get through
the arguments and the file to a result container: each test requires
that some draws exit 0 and some exit 4.  Every output stays far below
64^3 voxels.
Examples are derandomized and bounded so each run checks the same cases
in about a second.
"""

import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oocs3d.cli import main
from oocs3d.errors import OocsError
from oocs3d.tensor import BinaryMask, Volume
from oocs3d.volio import read_mha, read_raw_json, write_mha, write_raw_json

FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_KEYS = ["ObjectType", "NDims", "BinaryData", "BinaryDataByteOrderMSB", "ElementByteOrderMSB",
         "CompressedData", "DimSize", "ElementSpacing", "ElementType", "ElementNumberOfChannels",
         "Comment"]
_TOKENS = ["0", "1", "2", "3", "-1", "1.5", "1e400", "-0", "nan", "inf", "1_0", "9" * 40,
           "True", "False", "Image", "MET_UCHAR", "MET_SHORT", "MET_FLOAT", "MET_DOUBLE", "MET_INT"]
_NAMES = ["payload.raw", "missing.raw", "", ".", "..", "a/b.raw", "/abs.raw", "in.mha", "in.json"]
# fixed alphabets: the default Unicode text strategy builds a character table on first use
_ASCII = "".join(map(chr, range(32, 127)))
_JSON_CHARS = "abimx01.-/\\\0\u00e9"

_header_value = st.lists(
    st.sampled_from(_TOKENS) | st.text(_ASCII, max_size=6),
    max_size=4,
).map(" ".join)
_header_line = (
    st.tuples(st.sampled_from(_KEYS), _header_value).map(lambda kv: f"{kv[0]} = {kv[1]}\n".encode())
    | st.binary(max_size=16)
)
_data_file = st.sampled_from(["LOCAL"] + _NAMES)

_json_scalar = (
    st.none() | st.booleans() | st.integers(-(10 ** 400), 10 ** 400) | st.integers(-2, 4)
    | st.floats() | st.text(_JSON_CHARS, max_size=5)
)
_json_value = st.recursive(
    _json_scalar,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(_JSON_CHARS, max_size=4), inner, max_size=3),
    max_leaves=8,
)
_sidecar = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["image", "mask"]) | _json_value,
        "dtype": st.sampled_from(["float64", "uint8"]) | _json_value,
        "shape": st.lists(st.integers(-1, 3), max_size=4) | _json_value,
        "spacing": st.lists(st.integers(-(10 ** 400), 10 ** 400) | st.floats(), max_size=4) | _json_value,
        "raw_file": st.sampled_from(_NAMES) | _json_value,
    },
)
_mutations = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=6)


def _mutate(data: bytes, edits, cut: int) -> bytes:
    """Overwrite bytes at the given positions (modulo the length), then truncate."""
    buf = bytearray(data)
    for pos, value in edits:
        if buf:
            buf[pos % len(buf)] = value
    return bytes(buf[:cut])


def _read_or_reject(reader, path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            obj = reader(path)
        except (OocsError, OSError):
            return
    assert isinstance(obj, (Volume, BinaryMask))


def _valid_files(d, shape=(2, 3, 2), image=None):
    """A small image (`image`'s values if given) and mask in both formats; returns their paths."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=shape)  # drawn either way, so the mask stays the same
    v = Volume(values if image is None else np.reshape(image, shape), (1.0, 0.5, 2.0))
    m = BinaryMask(rng.random(shape) < 0.5)
    paths = []
    for name, obj in (("image", v), ("mask", m)):
        for ext, writer in ((".mha", write_mha), (".json", write_raw_json)):
            paths.append(os.path.join(d, name + ext))
            writer(obj, paths[-1])
    return paths


class TestMetaImageReader:
    @FUZZ
    @given(lines=st.lists(_header_line, max_size=8), data_file=_data_file,
           payload=st.binary(max_size=48), sibling=st.binary(max_size=48))
    def test_fuzzed_header(self, lines, data_file, payload, sibling):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "in.mha")
            with open(path, "wb") as f:
                f.write(b"".join(lines) + f"ElementDataFile = {data_file}\n".encode() + payload)
            with open(os.path.join(d, "payload.raw"), "wb") as f:
                f.write(sibling)
            _read_or_reject(read_mha, path)

    @FUZZ
    @given(which=st.sampled_from([0, 2]), edits=_mutations, cut=st.integers(0, 400))
    def test_mutated_valid_file(self, which, edits, cut):
        with tempfile.TemporaryDirectory() as d:
            path = _valid_files(d)[which]
            with open(path, "rb") as f:
                data = f.read()
            with open(path, "wb") as f:
                f.write(_mutate(data, edits, cut))
            _read_or_reject(read_mha, path)


class TestSidecarReader:
    @FUZZ
    @given(doc=_sidecar, payload=st.binary(max_size=48))
    def test_fuzzed_fields(self, doc, payload):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "in.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            with open(os.path.join(d, "payload.raw"), "wb") as f:
                f.write(payload)
            _read_or_reject(read_raw_json, path)

    @FUZZ
    @given(which=st.sampled_from([1, 3]), edits=_mutations, cut=st.integers(0, 200),
           raw=st.none() | st.binary(max_size=64))
    def test_mutated_valid_sidecar(self, which, edits, cut, raw):
        with tempfile.TemporaryDirectory() as d:
            path = _valid_files(d)[which]
            with open(path, "rb") as f:
                data = f.read()
            with open(path, "wb") as f:
                f.write(raw if raw is not None else _mutate(data, edits, cut))
            _read_or_reject(read_raw_json, path)


def _exit_code(argv):
    """main(argv)'s exit code; a numpy floating-point warning that leaks from it raises instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            return exc.code


class TestEvalCommand:
    @settings(FUZZ, max_examples=60)
    @given(which=st.integers(0, 3), edits=_mutations, cut=st.integers(0, 400), swap=st.booleans())
    def test_eval_never_exits_1(self, which, edits, cut, swap):
        with tempfile.TemporaryDirectory() as d:
            paths = _valid_files(d)
            hostile = paths[which]
            with open(hostile, "rb") as f:
                data = f.read()
            with open(hostile, "wb") as f:
                f.write(_mutate(data, edits, cut))
            pair = [hostile, paths[2]]
            if swap:
                pair.reverse()
            rc = _exit_code(["eval", "--pred", pair[0], "--ref", pair[1],
                             "--csv-out", os.path.join(d, "out.csv")])
            assert rc in (0, 2, 3, 4)


_EXTREME = st.sampled_from(["nan", "inf", "-inf", "1e+308", "-1e+308", "5e-324", "-0.0"])


def _number(valid):
    """A float argument: from its `valid` range, an extreme value, or any float."""
    return valid.map(repr) | _EXTREME | st.floats().map(repr)


_invalid_size = st.sampled_from(["nan", "inf", "-inf", "0.0", "-1.0", "-1e+300"])
# which valid file, and its mutation; None leaves it intact so the arguments get checked
_files = st.tuples(st.integers(0, 3), st.none() | st.tuples(_mutations, st.integers(0, 400)))
_intact = st.tuples(st.integers(0, 3), st.none())


def _hostile_input(d, files, shape=(2, 3, 2), image=None):
    """One of the four valid files, byte-mutated and truncated in place; returns its path."""
    which, mutation = files
    path = _valid_files(d, shape, image)[which]
    if mutation is not None:
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(_mutate(data, *mutation))
    return path


# finite voxel values near the float64 limit, whose weighted sums overflow
_huge = st.sampled_from([1e308, -1e308, 1.7976931348623157e308]) | st.floats(-1e308, 1e308)
# the image of the 2x3x2 files: the default normal draw, or +-1e308-scale values
_image = st.none() | st.lists(_huge, min_size=12, max_size=12)


class TestVolumeCommands:
    @settings(FUZZ, max_examples=40)
    @given(data=st.lists(_huge, min_size=27, max_size=27),
           k_padding=st.sampled_from([(3, "same_zero"), (5, "same_zero"), (3, "valid")]),
           gamma=st.floats(0.01, 0.99), c=st.floats(1.0, 10.0))
    def test_filter_overflow_of_finite_data_exits_4(self, data, k_padding, gamma, c):
        # valid arguments, so the conv runs; an overflow of its products is a
        # data failure (exit 4), never a configuration error or a warning
        k, padding = k_padding
        with tempfile.TemporaryDirectory() as d:
            src = os.path.join(d, "huge.mha")
            write_mha(Volume(np.reshape(data, (3, 3, 3))), src)
            rc = _exit_code(["filter", "--in", src, "--out-on", os.path.join(d, "on.mha"),
                             "--out-off", os.path.join(d, "off.mha"),
                             f"--k={k}", f"--gamma={gamma!r}", f"--c={c!r}", f"--padding={padding}"])
            assert rc in (0, 4)

    @settings(FUZZ, max_examples=80)
    @given(files=_files, ext=st.sampled_from([".mha", ".json"]),
           k_padding=st.sampled_from([(3, "same_zero"), (5, "same_zero"), (7, "same_zero"), (3, "valid")]),
           gamma=st.floats(0.01, 0.99), c=st.floats(1.0, 10.0))
    def test_filter_with_valid_arguments_never_exits_1(self, files, ext, k_padding, gamma, c):
        # every argument valid and a 3x3x3 input that a k = 3 valid conv fits,
        # so each intact file reaches the conv and only the file can fail
        k, padding = k_padding
        with tempfile.TemporaryDirectory() as d:
            rc = _exit_code(["filter", "--in", _hostile_input(d, files, shape=(3, 3, 3)),
                             "--out-on", os.path.join(d, "on" + ext),
                             "--out-off", os.path.join(d, "off" + ext),
                             f"--k={k}", f"--gamma={gamma!r}", f"--c={c!r}", f"--padding={padding}"])
            assert rc in (0, 2, 3, 4)

    def test_filter_never_exits_1(self):
        # fuzzed, mostly invalid arguments exercise the argument checks;
        # valid ones on an intact file reach the conv and its result containers
        fuzzed = st.tuples(_files, st.integers(-3, 9) | st.just(100001),
                           _number(st.floats(0.01, 0.99)), _number(st.floats(1.0, 10.0)),
                           st.sampled_from(["same_zero", "valid"]))
        valid = st.tuples(_intact, st.sampled_from([3, 5]),
                          st.floats(0.01, 0.99).map(repr), st.floats(1.0, 10.0).map(repr),
                          st.just("same_zero"))
        codes = []

        @settings(FUZZ, max_examples=80)
        @given(args=fuzzed | valid, ext=st.sampled_from([".mha", ".json"]), image=_image)
        def run(args, ext, image):
            files, k, gamma, c, padding = args
            with tempfile.TemporaryDirectory() as d:
                rc = _exit_code(["filter", "--in", _hostile_input(d, files, image=image),
                                 "--out-on", os.path.join(d, "on" + ext),
                                 "--out-off", os.path.join(d, "off" + ext),
                                 f"--k={k}", f"--gamma={gamma}", f"--c={c}", f"--padding={padding}"])
                assert rc in (0, 2, 3, 4)
                codes.append(rc)

        run()
        assert {0, 4} <= set(codes)

    def test_perturb_never_exits_1(self):
        # valid arguments on an intact file reach the result container
        fuzzed = st.tuples(_files, st.floats(0.05, 4.0).map(repr) | _invalid_size | st.sampled_from(["1e300", "1e308"]),
                           _number(st.floats(0.01, 10.0)), st.just(1) | st.integers(),
                           _number(st.floats(0.0, 30.0)), _number(st.floats(0.0, 10.0)))
        valid = st.tuples(_intact, st.floats(0.05, 4.0).map(repr), st.floats(0.01, 10.0).map(repr), st.just(1),
                          st.floats(0.0, 30.0).map(repr), st.floats(0.0, 10.0).map(repr))
        codes = []

        @settings(FUZZ, max_examples=200)
        @given(args=fuzzed | valid, image=_image, kind=st.sampled_from(["gaussian_blur", "gaussian_noise", "motion"]))
        def run(args, image, kind):
            files, blur_sigma, sigma, n, max_rot, max_trans = args
            if kind == "gaussian_blur":
                sigma = blur_sigma
            with tempfile.TemporaryDirectory() as d:
                rc = _exit_code(["perturb", "--in", _hostile_input(d, files, image=image),
                                 "--out", os.path.join(d, "o.mha"),
                                 f"--kind={kind}", f"--sigma={sigma}", f"--n={n}",
                                 f"--max-rot={max_rot}", f"--max-trans={max_trans}"])
                assert rc in (0, 2, 3, 4)
                codes.append(rc)

        run()
        assert {0, 4} <= set(codes)

    def test_preprocess_never_exits_1(self):
        # valid arguments on an intact file reach the result container
        fuzzed = st.tuples(_files, st.none() | st.lists(
            st.floats(0.25, 1e300).map(repr) | _invalid_size | st.just("1e-300"), min_size=3, max_size=3),
            st.none() | st.lists(st.integers(-2, 6) | st.just(10 ** 23), min_size=3, max_size=3))
        valid = st.tuples(_intact, st.none() | st.lists(st.floats(0.25, 4.0).map(repr), min_size=3, max_size=3),
                          st.none() | st.lists(st.integers(1, 6), min_size=3, max_size=3))
        codes = []

        @settings(FUZZ, max_examples=60)
        @given(args=fuzzed | valid, image=_image, mask=st.booleans(), zscore=st.booleans())
        def run(args, image, mask, zscore):
            files, spacing, crop = args
            with tempfile.TemporaryDirectory() as d:
                argv = ["preprocess", "--in", _hostile_input(d, files, image=image),
                        "--out", os.path.join(d, "o.json")]
                if mask:
                    argv += ["--mask", os.path.join(d, "mask.mha"), "--mask-out", os.path.join(d, "mo.mha")]
                if zscore:
                    argv.append("--zscore")
                if spacing is not None:
                    argv += ["--spacing", *spacing]
                if crop is not None:
                    argv += ["--crop", *map(str, crop)]
                rc = _exit_code(argv)
                assert rc in (0, 2, 3, 4)
                codes.append(rc)

        run()
        assert {0, 4} <= set(codes)
