import csv

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cgoplane.utils import read_blob, write_blob, write_csv


@settings(max_examples=30, deadline=None)
@given(array=hnp.arrays(np.complex128, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0)),
       tag=st.text(max_size=20))
def test_blob_roundtrip_is_exact(tmp_path_factory, array, tag):
    path = tmp_path_factory.mktemp("blob") / "x.blob"
    write_blob(path, b"TESTBLOB", {"tag": tag}, array)
    header, back = read_blob(path, b"TESTBLOB")
    assert header == {"tag": tag, "shape": list(array.shape), "dtype": "complex128"}
    assert back.shape == array.shape
    assert back.tobytes() == array.tobytes()  # bit for bit, NaN payloads and -0.0 included


_FLOATS = st.floats(allow_nan=False)  # -0.0, subnormals, the largest values and inf included
_CELLS = st.one_of(_FLOATS, _FLOATS.map(np.float64),
                   st.complex_numbers(allow_nan=False), st.booleans(), st.just(""))


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, min_size=1, max_size=6), max_size=8))
@example(rows=[[complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), -0.0]])
def test_csv_bytes_are_deterministic_and_numbers_parse_back(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("csv")
    header = [f"c{j}" for j in range(max(map(len, rows), default=1))]
    write_csv(out / "a.csv", header, rows)
    write_csv(out / "b.csv", header, rows)
    assert (out / "a.csv").read_bytes() == (out / "b.csv").read_bytes()
    with open(out / "a.csv", newline="") as fh:
        back = list(csv.reader(fh))
    assert back[0] == header and len(back) == len(rows) + 1
    for row, cells in zip(rows, back[1:]):
        assert len(cells) == len(row)
        for v, cell in zip(row, cells):
            if isinstance(v, bool) or v == "":
                assert cell == str(v)
            elif isinstance(v, float):
                assert _bits(float(cell)) == _bits(v)  # bit for bit, -0.0 included
            else:
                back_v = complex(cell)
                assert _bits(back_v.real) == _bits(v.real)
                assert _bits(back_v.imag) == _bits(v.imag)
