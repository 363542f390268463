import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cgoplane.utils import read_blob, write_blob


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
