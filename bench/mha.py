"""A minimal MetaImage reader and writer, independent of `oocs3d.volio`.

The benchmark writes its synthetic inputs and reads the program's outputs
back through this file, so the output checks never pass through the I/O
code they are checking.  Only what the benchmark needs is supported:
uncompressed little-endian 3D MET_DOUBLE or MET_UCHAR with inline data.
Arrays are (D, H, W) with spacing (sz, sy, sx); the header stores both
reversed.
"""

from __future__ import annotations

import numpy as np

_DTYPES = {"MET_DOUBLE": np.dtype("<f8"), "MET_UCHAR": np.dtype("u1")}


def write(path: str, data: np.ndarray, spacing) -> None:
    """Write float data as MET_DOUBLE and uint8 data as MET_UCHAR."""
    element_type = "MET_UCHAR" if data.dtype == np.uint8 else "MET_DOUBLE"
    d, h, w = data.shape
    sz, sy, sx = (float(s) for s in spacing)
    header = (
        "ObjectType = Image\nNDims = 3\nBinaryData = True\nBinaryDataByteOrderMSB = False\n"
        f"DimSize = {w} {h} {d}\nElementSpacing = {sx!r} {sy!r} {sz!r}\n"
        f"ElementType = {element_type}\nElementDataFile = LOCAL\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(data, dtype=_DTYPES[element_type]).tobytes())


def read(path: str) -> tuple[np.ndarray, tuple[float, float, float], str]:
    """Return (array, spacing, element type); raises ValueError on anything unexpected."""
    with open(path, "rb") as f:
        raw = f.read()
    fields = {}
    pos = 0
    while "ElementDataFile" not in fields:
        end = raw.find(b"\n", pos)
        if end < 0:
            raise ValueError(f"{path}: header ended before ElementDataFile")
        key, sep, value = raw[pos:end].decode("ascii").partition("=")
        if sep:
            fields[key.strip()] = value.strip()
        pos = end + 1
    if fields["ElementDataFile"] != "LOCAL":
        raise ValueError(f"{path}: payload is not inline")
    element_type = fields.get("ElementType")
    if element_type not in _DTYPES:
        raise ValueError(f"{path}: unexpected element type {element_type!r}")
    w, h, d = (int(n) for n in fields["DimSize"].split())
    sx, sy, sz = (float(s) for s in fields["ElementSpacing"].split())
    dtype = _DTYPES[element_type]
    payload = raw[pos:]
    if len(payload) != w * h * d * dtype.itemsize:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes for a {d}x{h}x{w} {element_type} grid")
    return np.frombuffer(payload, dtype=dtype).reshape(d, h, w), (sz, sy, sx), element_type
