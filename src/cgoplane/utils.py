"""Small shared helpers: interpolation, slope fits, deterministic output files."""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile

import numpy as np

from .errors import BlobFormatError


def bilinear_sample(grid, values, points):
    """Bilinear interpolation of grid values at (..., 2) points inside the square."""
    pts = np.atleast_2d(np.asarray(points, float))
    x0 = grid.z1[0]
    y0 = grid.z2[0]
    h = grid.h
    n = grid.n_per_side
    fx = (pts[:, 0] - x0) / h
    fy = (pts[:, 1] - y0) / h
    ix = np.clip(np.floor(fx).astype(int), 0, n - 2)
    iy = np.clip(np.floor(fy).astype(int), 0, n - 2)
    tx = np.clip(fx - ix, 0.0, 1.0)
    ty = np.clip(fy - iy, 0.0, 1.0)
    v00 = values[iy, ix]
    v01 = values[iy, ix + 1]
    v10 = values[iy + 1, ix]
    v11 = values[iy + 1, ix + 1]
    out = (v00 * (1 - tx) * (1 - ty) + v01 * tx * (1 - ty)
           + v10 * (1 - tx) * ty + v11 * tx * ty)
    return out


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs); None below two positive points."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    keep = (xs > 0) & (ys > 0)
    if keep.sum() < 2:
        return None
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])


def _fmt(v):
    # float() drops the NumPy scalar type, whose repr would name it: np.float64(...)
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, complex):
        # the sign by copysign, so an imaginary part of -0.0 keeps its minus
        sign = "-" if math.copysign(1.0, v.imag) < 0 else "+"
        return f"{float(v.real)!r}{sign}{float(abs(v.imag))!r}j"
    return str(v)


def write_csv(path, header, rows):
    """CSV with shortest-roundtrip float formatting; byte-deterministic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path, obj):
    """Sorted, indented JSON; NaN and Infinity raise ValueError before the file opens."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _json_default(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    raise TypeError(f"not JSON serializable: {type(v)}")


def write_blob(path, magic: bytes, header: dict, array):
    """Write magic, 8-byte header length, JSON header, raw complex128 bytes.

    ``shape`` and ``dtype`` are added to the header.  The bytes go to a
    temporary file in the same directory that is then renamed over ``path``,
    so a reader never sees a partly written blob.
    """
    arr = np.asarray(array, dtype=np.complex128)
    head = json.dumps({**header, "shape": list(arr.shape), "dtype": "complex128"},
                      sort_keys=True, allow_nan=False).encode()
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(magic)
            fh.write(len(head).to_bytes(8, "little"))
            fh.write(head)
            fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_blob(path, magic: bytes):
    """Read a blob written by write_blob; returns (header, array).

    Raises BlobFormatError on a wrong magic, a header that does not fit the
    file, or a payload whose size does not match the header's shape.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(magic) + 8
    end = start + int.from_bytes(data[len(magic):start], "little")
    try:
        if data[:len(magic)] != magic or end > len(data):
            raise ValueError("wrong magic or truncated header")
        header = json.loads(data[start:end])
        shape = tuple(header["shape"])
        if header["dtype"] != "complex128" or len(data) - end != math.prod(shape) * 16:
            raise ValueError("dtype or payload size does not match the header")
        array = np.frombuffer(data, dtype=np.complex128, offset=end).reshape(shape)
    except (ValueError, TypeError, KeyError) as exc:
        raise BlobFormatError(f"{path}: not a valid {magic.decode()} blob: {exc}") from exc
    return header, array.copy()
