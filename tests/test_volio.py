"""MetaImage subset and raw+JSON sidecar readers/writers."""

import gc
import json
import os
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from oocs3d.errors import (
    ConfigError,
    CorruptFileError,
    NonFiniteError,
    UnsupportedFormatError,
)
from oocs3d.tensor import BinaryMask, Volume
from oocs3d.volio import read_mha, read_raw_json, write_mha, write_raw_json


def _volume(rng, shape=(3, 4, 5), spacing=(0.5, 0.75, 1.25)):
    return Volume(rng.normal(size=shape), spacing=spacing)


def _mask(rng, shape=(3, 4, 5), spacing=(1.0, 1.0, 1.0)):
    return BinaryMask(rng.random(size=shape) < 0.5, spacing=spacing)


class TestMhaRoundTrips:
    def test_double_volume_bit_exact(self, tmp_path):
        v = _volume(np.random.default_rng(193))
        p = str(tmp_path / "v.mha")
        write_mha(v, p)
        back = read_mha(p)
        assert isinstance(back, Volume)
        np.testing.assert_array_equal(back.data, v.data)
        assert back.spacing == v.spacing

    def test_float_volume_round_trip(self, tmp_path):
        # a MET_FLOAT payload widens exactly, and rewrites as MET_DOUBLE losslessly
        values = np.random.default_rng(197).normal(size=3).astype(np.float32)
        p = str(tmp_path / "f.mha")
        _write_header_and_payload(p, struct.pack("<3f", *values), DimSize="3 1 1", ElementType="MET_FLOAT")
        back = read_mha(p)
        assert isinstance(back, Volume)
        np.testing.assert_array_equal(back.data, values.astype(np.float64).reshape(1, 1, 3))
        q = str(tmp_path / "d.mha")
        write_mha(back, q)
        np.testing.assert_array_equal(read_mha(q).data, back.data)

    def test_short_payload_reads_full_range(self, tmp_path):
        p = str(tmp_path / "s.mha")
        _write_header_and_payload(p, struct.pack("<3h", -32768, 0, 32767), DimSize="3 1 1", ElementType="MET_SHORT")
        back = read_mha(p)
        assert isinstance(back, Volume)
        np.testing.assert_array_equal(back.data, [[[-32768.0, 0.0, 32767.0]]])

    def test_uchar_binary_payload_reads_as_mask(self, tmp_path):
        m = _mask(np.random.default_rng(199))
        p = str(tmp_path / "m.mha")
        write_mha(m, p)
        back = read_mha(p)
        assert isinstance(back, BinaryMask)
        np.testing.assert_array_equal(back.data, m.data)
        assert back.spacing == m.spacing

    def test_uchar_nonbinary_payload_reads_as_volume(self, tmp_path):
        p = str(tmp_path / "v.mha")
        _write_header_and_payload(p, bytes([0, 1, 2]), DimSize="3 1 1", ElementType="MET_UCHAR")
        back = read_mha(p)
        assert isinstance(back, Volume)
        np.testing.assert_array_equal(back.data, [[[0.0, 1.0, 2.0]]])

    def test_writes_are_byte_identical(self, tmp_path):
        v = _volume(np.random.default_rng(211))
        p1 = str(tmp_path / "a.mha")
        p2 = str(tmp_path / "b.mha")
        write_mha(v, p1)
        write_mha(v, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_mask_forced_to_uchar(self, tmp_path):
        # the writer emits MET_DOUBLE images and MET_UCHAR masks, nothing else
        rng = np.random.default_rng(223)
        for obj, element_type in ((_volume(rng), b"MET_DOUBLE"), (_mask(rng), b"MET_UCHAR")):
            p = tmp_path / "x.mha"
            write_mha(obj, str(p))
            assert b"ElementType = " + element_type + b"\n" in p.read_bytes()
        with pytest.raises(ConfigError):
            write_mha(np.zeros((2, 2, 2)), str(tmp_path / "a.mha"))


class TestMhaHandFixture:
    def test_hand_written_bytes_read_exactly(self, tmp_path):
        # 2x2x2 double payload at 0.6 mm isotropic; DimSize is W H D and
        # ElementSpacing is sx sy sz, both reversed against the (D, H, W)
        # internal order
        values = [1.5, -2.0, 0.25, 8.0, 0.0, 3.5, -0.125, 42.0]
        header = (
            "ObjectType = Image\n"
            "NDims = 3\n"
            "BinaryData = True\n"
            "BinaryDataByteOrderMSB = False\n"
            "DimSize = 2 2 2\n"
            "ElementSpacing = 0.6 0.6 0.6\n"
            "ElementType = MET_DOUBLE\n"
            "ElementDataFile = LOCAL\n"
        )
        p = tmp_path / "hand.mha"
        with open(p, "wb") as f:
            f.write(header.encode("ascii"))
            f.write(struct.pack("<8d", *values))
        back = read_mha(str(p))
        assert isinstance(back, Volume)
        assert back.spacing == (0.6, 0.6, 0.6)
        np.testing.assert_array_equal(back.data, np.array(values).reshape(2, 2, 2))

    def test_sibling_raw_payload(self, tmp_path):
        header = (
            "ObjectType = Image\n"
            "NDims = 3\n"
            "BinaryData = True\n"
            "BinaryDataByteOrderMSB = False\n"
            "DimSize = 1 1 3\n"
            "ElementSpacing = 1 1 1\n"
            "ElementType = MET_DOUBLE\n"
            "ElementDataFile = payload.raw\n"
        )
        (tmp_path / "vol.mhd").write_bytes(header.encode("ascii"))
        (tmp_path / "payload.raw").write_bytes(struct.pack("<3d", 1.0, 2.0, 3.0))
        back = read_mha(str(tmp_path / "vol.mhd"))
        # DimSize 1 1 3 means W=1 H=1 D=3
        assert back.shape == (3, 1, 1)
        np.testing.assert_array_equal(back.data.ravel(), [1.0, 2.0, 3.0])


def _write_header_and_payload(path, payload, data_file="LOCAL", **overrides):
    """Write a MetaImage header with `payload` inline, or in sibling file `data_file`."""
    fields = {
        "ObjectType": "Image",
        "NDims": "3",
        "BinaryData": "True",
        "BinaryDataByteOrderMSB": "False",
        "DimSize": "2 1 1",
        "ElementSpacing": "1 1 1",
        "ElementType": "MET_DOUBLE",
    }
    fields.update(overrides)
    lines = "".join(f"{k} = {v}\n" for k, v in fields.items())
    lines += f"ElementDataFile = {data_file}\n"
    with open(path, "wb") as f:
        f.write(lines.encode("ascii"))
        if data_file == "LOCAL":
            f.write(payload)
    if data_file != "LOCAL":
        with open(os.path.join(os.path.dirname(path), data_file), "wb") as f:
            f.write(payload)


class TestMhaErrorPaths:
    def test_payload_size_mismatch(self, tmp_path):
        p = str(tmp_path / "bad.mha")
        _write_header_and_payload(p, struct.pack("<1d", 1.0))  # header says 2
        with pytest.raises(CorruptFileError):
            read_mha(p)

    def test_unknown_element_type(self, tmp_path):
        p = str(tmp_path / "bad.mha")
        _write_header_and_payload(p, b"\x00" * 8, ElementType="MET_INT")
        with pytest.raises(UnsupportedFormatError):
            read_mha(p)

    def test_big_endian_rejected(self, tmp_path):
        p = str(tmp_path / "bad.mha")
        _write_header_and_payload(p, b"\x00" * 16, BinaryDataByteOrderMSB="True")
        with pytest.raises(UnsupportedFormatError):
            read_mha(p)

    def test_compressed_rejected(self, tmp_path):
        p = str(tmp_path / "bad.mha")
        _write_header_and_payload(p, b"\x00" * 16, CompressedData="True")
        with pytest.raises(UnsupportedFormatError):
            read_mha(p)

    def test_ascii_data_rejected(self, tmp_path):
        p = str(tmp_path / "bad.mha")
        _write_header_and_payload(p, b"1 2\n", BinaryData="False")
        with pytest.raises(UnsupportedFormatError):
            read_mha(p)

    def test_wrong_ndims_rejected(self, tmp_path):
        p = str(tmp_path / "bad.mha")
        _write_header_and_payload(p, b"\x00" * 16, NDims="2", DimSize="2 1")
        with pytest.raises(UnsupportedFormatError):
            read_mha(p)

    def test_missing_dimsize_rejected(self, tmp_path):
        p = str(tmp_path / "bad.mha")
        header = (
            "ObjectType = Image\nNDims = 3\nBinaryData = True\n"
            "BinaryDataByteOrderMSB = False\nElementType = MET_DOUBLE\n"
            "ElementDataFile = LOCAL\n"
        )
        with open(p, "wb") as f:
            f.write(header.encode("ascii"))
        with pytest.raises(CorruptFileError):
            read_mha(p)

    def test_unknown_key_warns_but_reads(self, tmp_path):
        p = str(tmp_path / "odd.mha")
        _write_header_and_payload(
            p, struct.pack("<2d", 5.0, 6.0), AnatomicalOrientation="RAI"
        )
        with pytest.warns(UserWarning, match="AnatomicalOrientation"):
            back = read_mha(p)
        np.testing.assert_array_equal(back.data.ravel(), [5.0, 6.0])

    def test_nonfinite_payload_refused(self, tmp_path):
        p = str(tmp_path / "nan.mha")
        _write_header_and_payload(p, struct.pack("<2d", np.nan, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="nan.mha.*non-finite"):
                read_mha(p)

    @pytest.mark.parametrize("name", ["../outside.raw", "sub/inside.raw", "{abs}", ".", ".."])
    def test_payload_name_must_be_bare_sibling(self, tmp_path, name):
        # every name below points at a readable, correctly sized payload
        payload = struct.pack("<2d", 1.0, 2.0)
        (tmp_path / "hdr" / "sub").mkdir(parents=True)
        (tmp_path / "outside.raw").write_bytes(payload)
        (tmp_path / "hdr" / "sub" / "inside.raw").write_bytes(payload)
        name = name.format(abs=tmp_path / "outside.raw")
        p = tmp_path / "hdr" / "vol.mhd"
        p.write_bytes(
            "ObjectType = Image\nNDims = 3\nDimSize = 2 1 1\nElementType = MET_DOUBLE\n"
            f"ElementDataFile = {name}\n".encode("ascii")
        )
        with pytest.raises(CorruptFileError, match="ElementDataFile"):
            read_mha(str(p))

    @pytest.mark.parametrize("key, value, voxels", [
        ("DimSize", "1_0 1 1", 10),  # int() reads 10
        ("ElementSpacing", "1_5 1 1", 2),  # float() reads 15.0
    ])
    def test_digit_group_underscore_rejected(self, tmp_path, key, value, voxels):
        p = str(tmp_path / "bad.mha")
        _write_header_and_payload(p, b"\x00" * 8 * voxels, **{key: value})
        with pytest.raises(CorruptFileError, match=key):
            read_mha(p)

    @pytest.mark.parametrize("overrides, error, match", [
        ({"ElementNumberOfChannels": "2"}, UnsupportedFormatError, "multi-channel"),
        ({"DimSize": "2 1 0"}, CorruptFileError, "DimSize entries must be positive"),
        ({"ElementSpacing": "1 0 1"}, CorruptFileError, "ElementSpacing must be positive"),
    ])
    def test_header_value_refused(self, tmp_path, overrides, error, match):
        # the 16-byte payload fits a 2 x 1 x 1 MET_DOUBLE image, so only the header check refuses
        p = str(tmp_path / "bad.mha")
        _write_header_and_payload(p, struct.pack("<2d", 1.0, 2.0), **overrides)
        with pytest.raises(error, match=match):
            read_mha(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_mha(str(tmp_path / "absent.mha"))


class TestRawJson:
    def test_volume_round_trip_bit_exact(self, tmp_path):
        v = _volume(np.random.default_rng(227))
        p = str(tmp_path / "vol.json")
        write_raw_json(v, p)
        back = read_raw_json(p)
        assert isinstance(back, Volume)
        np.testing.assert_array_equal(back.data, v.data)
        assert back.spacing == v.spacing

    def test_mask_round_trip(self, tmp_path):
        m = _mask(np.random.default_rng(229))
        p = str(tmp_path / "mask.json")
        write_raw_json(m, p)
        back = read_raw_json(p)
        assert isinstance(back, BinaryMask)
        np.testing.assert_array_equal(back.data, m.data)

    def test_sidecar_layout(self, tmp_path):
        v = _volume(np.random.default_rng(233), shape=(2, 2, 2))
        p = tmp_path / "vol.json"
        write_raw_json(v, str(p))
        doc = json.loads(p.read_text())
        assert sorted(doc) == ["dtype", "kind", "raw_file", "shape", "spacing"]
        assert doc["kind"] == "image"
        assert (tmp_path / doc["raw_file"]).stat().st_size == 8 * 8

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        with pytest.raises(CorruptFileError):
            read_raw_json(str(p))

    def test_non_utf8_sidecar_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(CorruptFileError):
            read_raw_json(str(p))

    def test_deeply_nested_sidecar_rejected(self, tmp_path):
        # deep enough to exhaust the JSON decoder's recursion
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(CorruptFileError, match="sidecar"):
            read_raw_json(str(p))

    def test_huge_integer_spacing_rejected(self, tmp_path):
        # a JSON integer beyond the float range makes float() raise OverflowError
        v = _volume(np.random.default_rng(283), shape=(1, 1, 1))
        p = tmp_path / "vol.json"
        write_raw_json(v, str(p))
        doc = json.loads(p.read_text())
        doc["spacing"] = [10 ** 400, 1, 1]
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError, match="sidecar"):
            read_raw_json(str(p))

    @pytest.mark.parametrize(
        "shape, payload, match",
        [
            ("[1e400, 1, 1]", 8, "shape"),  # parses as an infinite float
            ("[1.5, 1, 1]", 8, "shape"),
            ("[true, 1, 1]", 8, "shape"),
            # a fixed-width product of these sizes wraps around to 0 bytes
            (f"[{2**62}, {2**62}, 4]", 0, "payload holds 0 bytes"),
        ],
    )
    def test_shape_must_be_three_json_integers(self, tmp_path, shape, payload, match):
        v = _volume(np.random.default_rng(271), shape=(1, 1, 1))
        p = tmp_path / "vol.json"
        write_raw_json(v, str(p))
        doc = json.loads(p.read_text())
        (tmp_path / doc["raw_file"]).write_bytes(b"\x00" * payload)
        doc["shape"] = "SHAPE"
        p.write_text(json.dumps(doc).replace('"SHAPE"', shape))
        with pytest.raises(CorruptFileError, match=match):
            read_raw_json(str(p))

    def test_unknown_kind_rejected(self, tmp_path):
        v = _volume(np.random.default_rng(239), shape=(1, 1, 1))
        p = tmp_path / "vol.json"
        write_raw_json(v, str(p))
        doc = json.loads(p.read_text())
        doc["kind"] = "tensor"
        p.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedFormatError):
            read_raw_json(str(p))

    def test_payload_size_mismatch_rejected(self, tmp_path):
        v = _volume(np.random.default_rng(241), shape=(2, 2, 2))
        p = tmp_path / "vol.json"
        write_raw_json(v, str(p))
        doc = json.loads(p.read_text())
        (tmp_path / doc["raw_file"]).write_bytes(b"\x00" * 9)
        with pytest.raises(CorruptFileError):
            read_raw_json(str(p))

    def test_nonbinary_mask_payload_rejected(self, tmp_path):
        m = _mask(np.random.default_rng(251), shape=(1, 1, 2))
        p = tmp_path / "mask.json"
        write_raw_json(m, str(p))
        doc = json.loads(p.read_text())
        (tmp_path / doc["raw_file"]).write_bytes(bytes([1, 2]))
        with pytest.raises(CorruptFileError):
            read_raw_json(str(p))

    @pytest.mark.parametrize("name", ["../outside.raw", "sub/inside.raw", "{abs}", ".", "..", 7])
    def test_payload_name_must_be_bare_sibling(self, tmp_path, name):
        # every string below points at a readable, correctly sized payload
        v = _volume(np.random.default_rng(263), shape=(1, 1, 2))
        (tmp_path / "hdr").mkdir()
        p = tmp_path / "hdr" / "vol.json"
        write_raw_json(v, str(p))
        doc = json.loads(p.read_text())
        payload = (tmp_path / "hdr" / doc["raw_file"]).read_bytes()
        (tmp_path / "hdr" / "sub").mkdir()
        (tmp_path / "outside.raw").write_bytes(payload)
        (tmp_path / "hdr" / "sub" / "inside.raw").write_bytes(payload)
        doc["raw_file"] = name.format(abs=tmp_path / "outside.raw") if isinstance(name, str) else name
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError, match="raw_file"):
            read_raw_json(str(p))

    @pytest.mark.parametrize(
        "spacing", [[-1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, float("nan")],
                    [float("inf"), 1.0, 1.0], [1.0, 1.0],
                    # not a JSON list of three numbers, though iterating gives three
                    "123", {"1": 0, "2": 0, "3": 0}, ["1", "2", "3"], [True, True, True]]
    )
    def test_bad_spacing_is_corrupt(self, tmp_path, spacing):
        v = _volume(np.random.default_rng(269), shape=(1, 1, 2))
        p = tmp_path / "vol.json"
        write_raw_json(v, str(p))
        doc = json.loads(p.read_text())
        doc["spacing"] = spacing
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError, match="spacing"):
            read_raw_json(str(p))

    def test_nonfinite_volume_payload_refused(self, tmp_path):
        v = _volume(np.random.default_rng(257), shape=(1, 1, 2))
        p = tmp_path / "vol.json"
        write_raw_json(v, str(p))
        doc = json.loads(p.read_text())
        (tmp_path / doc["raw_file"]).write_bytes(struct.pack("<2d", np.inf, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="vol.json.*non-finite"):
                read_raw_json(str(p))


# a DimSize (W H D) whose MET_DOUBLE payload would be 8 PiB
_HUGE = (1048576, 1048576, 1024)


def _write_payload(tmp_path, form, payload, dims=(2, 1, 1), element_type="MET_DOUBLE"):
    """Write `payload` under a header of DimSize `dims` (W H D) in `form`; return the header path.

    "inline" and "sibling" are MetaImage forms; "raw" is the JSON sidecar,
    whose kind follows `element_type` (MET_DOUBLE image, MET_UCHAR mask).
    """
    if form == "raw":
        kind, dtype = ("image", "float64") if element_type == "MET_DOUBLE" else ("mask", "uint8")
        doc = {"dtype": dtype, "kind": kind, "raw_file": "vol.raw",
               "shape": list(dims[::-1]), "spacing": [1.0, 1.0, 1.0]}
        (tmp_path / "vol.json").write_text(json.dumps(doc))
        (tmp_path / "vol.raw").write_bytes(payload)
        return str(tmp_path / "vol.json")
    p = str(tmp_path / "vol.mhd")
    _write_header_and_payload(p, payload, data_file="LOCAL" if form == "inline" else "vol.raw",
                              DimSize=" ".join(map(str, dims)), ElementType=element_type)
    return p


def _read(path):
    return read_raw_json(path) if path.endswith(".json") else read_mha(path)


def _traced_peak(fn, *args) -> int:
    """Peak bytes traced while `fn(*args)` runs, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_FORMATS = [(write_mha, "vol.mha"), (write_raw_json, "vol.json")]


class TestPayloadIO:
    """Each payload is touched once: read into the array it stays in, written from the container's buffer."""

    @pytest.mark.parametrize("write, name", _FORMATS)
    def test_double_read_peaks_near_one_payload(self, tmp_path, write, name):
        v = _volume(np.random.default_rng(271), shape=(64, 64, 64))
        p = str(tmp_path / name)
        write(v, p)
        # the payload array plus isfinite's 1-byte-per-voxel temporary
        assert _traced_peak(_read, p) <= 1.25 * v.data.nbytes

    @pytest.mark.parametrize("write, name", _FORMATS)
    def test_write_copies_no_payload(self, tmp_path, write, name):
        v = _volume(np.random.default_rng(277), shape=(64, 64, 64))
        assert _traced_peak(write, v, str(tmp_path / name)) <= 0.1 * v.data.nbytes

    @pytest.mark.parametrize("write, name", _FORMATS)
    def test_mask_read_peaks_near_payload_and_mask(self, tmp_path, write, name):
        m = _mask(np.random.default_rng(283), shape=(64, 64, 64))
        p = str(tmp_path / name)
        write(m, p)
        # the u1 payload plus the mask's one bool copy
        assert _traced_peak(_read, p) <= 2.4 * m.data.size

    @pytest.mark.parametrize("write, name", _FORMATS)
    def test_mask_write_copies_no_payload(self, tmp_path, write, name):
        m = _mask(np.random.default_rng(281), shape=(64, 64, 64))
        assert _traced_peak(write, m, str(tmp_path / name)) <= 0.1 * m.data.size

    def test_mask_from_odd_bool_bytes_stores_and_writes_zero_one(self, tmp_path):
        # a bool view of bytes other than 0/1 reads as True; the mask keeps 1 for it
        raw = bytes([0, 2, 1, 0, 5, 1, 0, 0])
        m = BinaryMask(np.frombuffer(raw, dtype=bool).reshape(2, 2, 2))
        assert m.data.view(np.uint8).tobytes() == bytes([0, 1, 1, 0, 1, 1, 0, 0])
        write_mha(m, str(tmp_path / "m.mha"))
        assert (tmp_path / "m.mha").read_bytes().endswith(b"LOCAL\n" + bytes([0, 1, 1, 0, 1, 1, 0, 0]))
        write_raw_json(m, str(tmp_path / "m.json"))
        assert (tmp_path / "m.raw").read_bytes() == bytes([0, 1, 1, 0, 1, 1, 0, 0])

    @pytest.mark.parametrize("form", ["inline", "sibling", "raw"])
    def test_size_is_checked_before_allocating(self, tmp_path, form):
        p = _write_payload(tmp_path, form, b"\x00" * 8, dims=_HUGE)

        def refused():
            with pytest.raises(CorruptFileError, match="header implies"):
                _read(p)

        assert _traced_peak(refused) < 2 ** 20

    @pytest.mark.parametrize("n_bytes", [15, 17])
    def test_sibling_payload_one_byte_off_rejected(self, tmp_path, n_bytes):
        p = _write_payload(tmp_path, "sibling", b"\x00" * n_bytes)
        with pytest.raises(CorruptFileError, match=f"holds {n_bytes} bytes, header implies 16"):
            read_mha(p)

    @pytest.mark.parametrize("form", ["inline", "sibling", "raw"])
    def test_named_pipe_payload_is_corrupt(self, tmp_path, form):
        # the size of a pipe cannot be checked before reading it
        p = _write_payload(tmp_path, form, struct.pack("<2d", 1.0, 2.0))
        fifo = p if form == "inline" else str(tmp_path / "vol.raw")
        with open(fifo, "rb") as f:
            data = f.read()
        os.remove(fifo)
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as w:
                    w.write(data)
            except BrokenPipeError:  # the reader may close first
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        with pytest.raises(CorruptFileError, match="not a regular file"):
            _read(p)
        writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.parametrize("form, payload, element_type, error", [
        ("inline", b"\x00" * 15, "MET_DOUBLE", CorruptFileError),
        ("sibling", b"\x00" * 17, "MET_DOUBLE", CorruptFileError),
        ("raw", b"\x00" * 9, "MET_DOUBLE", CorruptFileError),
        ("raw", bytes([1, 2]), "MET_UCHAR", CorruptFileError),
        ("inline", b"\x00" * 16, "MET_INT", UnsupportedFormatError),
        ("sibling", None, "MET_DOUBLE", FileNotFoundError),
    ], ids=["inline-short", "sibling-long", "raw-long", "raw-nonbinary-mask", "bad-element-type",
            "missing-sibling"])
    def test_error_paths_close_every_file(self, tmp_path, form, payload, element_type, error):
        p = _write_payload(tmp_path, form, payload or b"", element_type=element_type)
        if payload is None:
            os.remove(tmp_path / "vol.raw")
        # an unclosed file warns when it is collected; record instead of letting it pass unseen
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(error):
                _read(p)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
