"""Volume file I/O: a MetaImage subset and a raw-plus-JSON sidecar format.

MetaImage files store DimSize as (W H D) and ElementSpacing as
(sx sy sz); in memory arrays are (D, H, W) with spacing (sz, sy, sx), so
both tuples reverse at the boundary.  Payloads are little-endian binary,
either inline (ElementDataFile = LOCAL, the only form written) or in a
sibling file named by the header.  A payload name must be a bare file
name in the header's own directory: absolute names, names with a path
separator, and `.`/`..` are rejected as corrupt.  The reader takes
MET_UCHAR, MET_SHORT, MET_FLOAT and MET_DOUBLE payloads: MET_UCHAR
payloads whose values are all 0 or 1 load as masks, everything else
loads as an image volume.  An image's values must be finite: a NaN or
an infinity in the payload raises NonFiniteError naming the file.  The
writer emits MET_DOUBLE images and MET_UCHAR masks.

Each payload is touched once.  The reader checks the payload file's size
against the size the header implies before it allocates anything, then
reads the bytes straight into the array a MET_DOUBLE volume keeps; other
element types make their one conversion copy.  So a payload must be a
regular file: a named pipe or a device is rejected as corrupt.  The
writers stream the container's own buffer to the file.

Written headers have a fixed key order and shortest-round-trip float
formatting, so writing the same object twice yields identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
import warnings

import numpy as np

from .errors import ConfigError, CorruptFileError, NonFiniteError, UnsupportedFormatError
from .tensor import BinaryMask, Volume, _seal, _zero_one

# element type -> little-endian dtype; all four read, MET_DOUBLE and MET_UCHAR written
_ELEMENT_TYPES = {
    "MET_UCHAR": np.dtype("u1"),
    "MET_SHORT": np.dtype("<i2"),
    "MET_FLOAT": np.dtype("<f4"),
    "MET_DOUBLE": np.dtype("<f8"),
}

# element type -> the raw sidecar's (kind, dtype)
_RAW_KINDS = {"MET_UCHAR": ("mask", "uint8"), "MET_DOUBLE": ("image", "float64")}

_TRUE = ("true", "1")
_FALSE = ("false", "0")


def _parse_bool(key: str, value: str) -> bool:
    v = value.strip().lower()
    if v in _TRUE:
        return True
    if v in _FALSE:
        return False
    raise CorruptFileError(f"header key {key} has non-boolean value {value!r}")


def _encode(obj) -> tuple[str, np.ndarray]:
    """(element type, little-endian payload) of a Volume or BinaryMask, as `write_mha` describes."""
    if isinstance(obj, BinaryMask):
        return "MET_UCHAR", obj.data.view(np.uint8)  # a mask stores bytes 0 and 1
    if not isinstance(obj, Volume):
        raise ConfigError(f"expected a Volume or BinaryMask to write, got {type(obj).__name__}")
    return "MET_DOUBLE", obj.data.astype("<f8", copy=False)


def write_mha(obj, path: str) -> None:
    """Write a Volume as a MET_DOUBLE, or a BinaryMask as a MET_UCHAR, single-file MetaImage."""
    element_type, payload = _encode(obj)
    d, h, w = obj.shape
    sz, sy, sx = obj.spacing
    header = (
        "ObjectType = Image\n"
        "NDims = 3\n"
        "BinaryData = True\n"
        "BinaryDataByteOrderMSB = False\n"
        f"DimSize = {w} {h} {d}\n"
        f"ElementSpacing = {sx!r} {sy!r} {sz!r}\n"
        f"ElementType = {element_type}\n"
        "ElementDataFile = LOCAL\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(memoryview(payload))


_KNOWN_OK = {
    "ObjectType", "NDims", "BinaryData", "BinaryDataByteOrderMSB", "ElementByteOrderMSB",
    "CompressedData", "DimSize", "ElementSpacing", "ElementType", "ElementNumberOfChannels",
}


def _sibling(header_path: str, name, key: str) -> str:
    """Path of payload file `name` beside `header_path`, which must be a bare file name."""
    # an absolute name always holds a separator; NUL would make open() raise ValueError
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise CorruptFileError(f"{key} must be a bare file name beside the header, got {name!r}")
    return os.path.join(os.path.dirname(os.path.abspath(header_path)), name)


def _read_header(f) -> dict:
    """Parse 'Key = Value' lines up to ElementDataFile; leave `f` at the first payload byte."""
    fields: dict[str, str] = {}
    while True:
        line = f.readline()
        if not line:
            raise CorruptFileError("header ended before ElementDataFile")
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"non-ASCII bytes in header: {exc}") from exc
        text = text.strip()
        if not text:
            continue
        if "=" not in text:
            raise CorruptFileError(f"malformed header line {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        fields[key] = value
        if key == "ElementDataFile":
            return fields


def _three_numbers(fields: dict, key: str, convert) -> tuple:
    """Header value `key` as three numbers, each parsed by `convert` (int or float)."""
    value = fields[key]
    try:
        # int() and float() read "1_0" as 10; MetaImage numbers have no digit separators
        if "_" in value:
            raise ValueError("digit-group underscore")
        a, b, c = (convert(part) for part in value.split())
    except ValueError as exc:
        raise CorruptFileError(f"{key} must be three {convert.__name__} values, got {value!r}") from exc
    return a, b, c


def read_mha(path: str):
    """Read a MetaImage file; returns a BinaryMask for binary MET_UCHAR, else a Volume."""
    with open(path, "rb") as f:
        fields = _read_header(f)
        layout = _mha_layout(fields)
        if fields["ElementDataFile"] == "LOCAL":
            return _load_payload(f, *layout, path)
    with open(_sibling(path, fields["ElementDataFile"], "ElementDataFile"), "rb") as f:
        return _load_payload(f, *layout, path)


def _mha_layout(fields: dict) -> tuple:
    """(dtype, shape, spacing, mask) of a checked MetaImage header, as `_load_payload` takes them."""
    for key in fields:
        if key not in _KNOWN_OK and key != "ElementDataFile":
            warnings.warn(f"ignoring unknown MetaImage header key {key!r}")
    if fields.get("ObjectType", "Image") != "Image":
        raise UnsupportedFormatError(f"unsupported ObjectType {fields['ObjectType']!r}")
    if fields.get("NDims", "3") != "3":
        raise UnsupportedFormatError(f"only 3D images are supported, NDims = {fields['NDims']!r}")
    if not _parse_bool("BinaryData", fields.get("BinaryData", "True")):
        raise UnsupportedFormatError("ASCII payloads are not supported")
    for key in ("BinaryDataByteOrderMSB", "ElementByteOrderMSB"):
        if key in fields and _parse_bool(key, fields[key]):
            raise UnsupportedFormatError("big-endian payloads are not supported")
    if "CompressedData" in fields and _parse_bool("CompressedData", fields["CompressedData"]):
        raise UnsupportedFormatError("compressed payloads are not supported")
    if fields.get("ElementNumberOfChannels", "1") != "1":
        raise UnsupportedFormatError("multi-channel images are not supported")

    for key in ("DimSize", "ElementType"):
        if key not in fields:
            raise CorruptFileError(f"missing required header key {key}")
    w, h, d = _three_numbers(fields, "DimSize", int)
    if min(w, h, d) < 1:
        raise CorruptFileError(f"DimSize entries must be positive, got {fields['DimSize']!r}")
    if "ElementSpacing" in fields:
        sx, sy, sz = _three_numbers(fields, "ElementSpacing", float)
        if not all(np.isfinite(s) and s > 0 for s in (sx, sy, sz)):
            raise CorruptFileError(f"ElementSpacing must be positive, got {fields['ElementSpacing']!r}")
    else:
        sx = sy = sz = 1.0
    element_type = fields["ElementType"]
    if element_type not in _ELEMENT_TYPES:
        raise UnsupportedFormatError(f"unsupported element type {element_type!r}")
    # disk order is x-fastest, so the payload fills a (D, H, W) array directly
    mask = None if element_type == "MET_UCHAR" else False
    return _ELEMENT_TYPES[element_type], (d, h, w), (sz, sy, sx), mask


def write_raw_json(obj, json_path: str) -> None:
    """Write a JSON sidecar plus a same-stem .raw payload next to it.

    Images store little-endian float64, masks store uint8 {0, 1}; the
    sidecar records shape (D, H, W), spacing (sz, sy, sx), kind, and dtype.
    """
    element_type, payload = _encode(obj)
    kind, dtype = _RAW_KINDS[element_type]
    raw_path = os.path.splitext(json_path)[0] + ".raw"
    doc = {
        "dtype": dtype,
        "kind": kind,
        "raw_file": os.path.basename(raw_path),
        "shape": list(obj.shape),
        "spacing": list(obj.spacing),
    }
    with open(json_path, "w", encoding="ascii") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")
    with open(raw_path, "wb") as f:
        f.write(memoryview(payload))


def read_raw_json(json_path: str):
    """Read a raw-plus-JSON pair; returns a Volume or BinaryMask per the sidecar."""
    with open(json_path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        # malformed JSON, bytes that are not UTF-8, or nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise CorruptFileError(f"malformed JSON sidecar: {exc}") from exc
    try:
        kind = doc["kind"]
        dtype = doc["dtype"]
        shape = doc["shape"]
        spacing = doc["spacing"]
        raw_name = doc["raw_file"]
    except (KeyError, TypeError) as exc:
        raise CorruptFileError(f"JSON sidecar missing or mistyping a field: {exc}") from exc
    if kind not in ("image", "mask"):
        raise UnsupportedFormatError(f"unsupported kind {kind!r}")
    if (kind, dtype) not in _RAW_KINDS.values():
        raise UnsupportedFormatError(f"unsupported dtype {dtype!r} for kind {kind!r}")
    # JSON true/false parse as bool, a subclass of int; they are not sizes
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(n) is int and n >= 1 for n in shape)):
        raise CorruptFileError(f"shape must be three positive integers, got {shape!r}")
    # the upper bound also refuses JSON integers that float() cannot hold
    if not (isinstance(spacing, list) and len(spacing) == 3
            and all(type(s) in (int, float) and 0 < s <= sys.float_info.max for s in spacing)):
        raise CorruptFileError(f"sidecar spacing must be three positive finite numbers, got {spacing!r}")
    np_dtype = np.dtype("<f8") if kind == "image" else np.dtype("u1")
    with open(_sibling(json_path, raw_name, "raw_file"), "rb") as f:
        return _load_payload(f, np_dtype, tuple(shape), spacing, kind == "mask", json_path)


def _load_payload(f, dtype: np.dtype, shape, spacing, mask, path: str):
    """Read the little-endian payload of `shape`, `f`'s position to its end, as a BinaryMask or a Volume.

    `mask` True requires 0/1 values, None makes 0/1 values a mask and other
    values a volume, False always makes a volume.
    """
    # only a regular file has a size to check before allocating; tell() would fail on a pipe
    st = os.fstat(f.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise CorruptFileError(f"payload of {path!r} is not a regular file")
    # Python integers: a numpy product of huge header sizes can wrap around
    expected = math.prod(shape) * dtype.itemsize
    size = st.st_size - f.tell()
    if size != expected:
        raise CorruptFileError(f"payload holds {size} bytes, header implies {expected}")
    arr = np.empty(shape, dtype)
    got = f.readinto(arr)
    if got != expected:  # the file shrank after fstat
        raise CorruptFileError(f"payload holds {got} bytes, header implies {expected}")
    if mask is not False:
        if _zero_one(arr):
            return BinaryMask(arr.view(bool), spacing)  # a u1 array of 0s and 1s
        if mask:
            raise CorruptFileError("mask payload contains values other than 0 and 1")
    values = arr.astype(np.float64, copy=False)  # a MET_DOUBLE array is taken as read
    try:
        return Volume(_seal(values), spacing)
    except NonFiniteError as exc:
        raise NonFiniteError(f"volume read from {path!r} contains non-finite values") from exc
