import json
import re

import numpy as np
import pytest

from vidtext.arrayio import load_int_vector, load_matrix, load_order_head
from vidtext.losses import OrderHeadParams


def test_matrix_npy_round_trip(tmp_path):
    path = tmp_path / "m.npy"
    m = np.arange(12, dtype=np.float64).reshape(3, 4)
    np.save(path, m)
    np.testing.assert_array_equal(load_matrix(str(path)), m)


def test_matrix_from_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1.0, 2.0], [3.0, 4.0]]))
    m = load_matrix(str(path))
    assert m.dtype == np.float64
    np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "load,name,content,message",
    [
        (load_matrix, "m.npy", b"not an array", "not a .npy file"),
        (load_matrix, "m.npy", b"", "not a .npy file"),
        (load_int_vector, "v.npy", b"\x80\x04K\x01.", "not a .npy file"),  # a pickle
        (load_order_head, "h.npz", b"not an archive", "not a .npz archive"),
        (load_order_head, "h.npz", b"PK\x03\x04" + bytes(20), "not a .npz archive"),  # cut short
        (load_matrix, "m.npz", b"PK\x03\x04\xff", "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
    ],
)
def test_a_file_that_is_not_a_numpy_file_is_named(tmp_path, load, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"


def test_an_npy_file_is_not_an_npz_archive(tmp_path):
    path = tmp_path / "h.npz"
    with open(path, "wb") as fp:
        np.save(fp, np.ones(3))
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a .npz archive")):
        load_order_head(path)


def test_matrix_rejects_integer_npy(tmp_path):
    path = tmp_path / "m.npy"
    np.save(path, np.arange(6).reshape(2, 3))
    with pytest.raises(ValueError, match="float"):
        load_matrix(str(path))


def test_int_vector_json_and_npy(tmp_path):
    jpath = tmp_path / "v.json"
    jpath.write_text("[1, -100, 3]")
    assert load_int_vector(str(jpath)).tolist() == [1, -100, 3]
    npath = tmp_path / "v.npy"
    np.save(npath, np.array([5, 6], dtype=np.int64))
    assert load_int_vector(str(npath)).tolist() == [5, 6]


@pytest.mark.parametrize(
    "text, message",
    [
        ('[1.7, 1, 3]', "[0] must be an integer, got 1.7"),
        ('[1, true, 3]', "[1] must be an integer, got True"),
        ('[1, 2, "3"]', "[2] must be an integer, got '3'"),
        ('[[1, 2]]', "[0] must be an integer, got [1, 2]"),
    ],
)
def test_int_vector_json_is_strict(tmp_path, text, message):
    path = tmp_path / "labels.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        load_int_vector(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ('[["0.5", 1.0]]', "[0][0] must be a finite number, got '0.5'"),
        ('[[0.5, true]]', "[0][1] must be a finite number, got True"),
        ('[[0.5, NaN]]', "[0][1] must be a finite number, got nan"),
        ('[0.5, Infinity]', "[1] must be a finite number, got inf"),
        ('[[0.5, 1.0], 2.0]', "[1] must be a list, got 2.0"),
        ('{"a": 1}', " must be a list"),
        ("[1,", ": Expecting value: line 1 column 4 (char 3)"),
    ],
)
def test_matrix_json_is_strict(tmp_path, text, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        load_matrix(str(path))


def test_order_head_npz_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = OrderHeadParams(
        w1=rng.normal(size=(6, 10)),
        b1=rng.normal(size=6),
        w2=rng.normal(size=(4, 6)),
        b2=rng.normal(size=4),
    )
    path = tmp_path / "head.npz"
    np.savez(path, w1=params.w1, b1=params.b1, w2=params.w2, b2=params.b2)
    loaded = load_order_head(str(path))
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))


def test_order_head_requires_all_keys(tmp_path):
    path = tmp_path / "head.npz"
    np.savez(path, w1=np.ones((2, 4)), b1=np.zeros(2))
    with pytest.raises(ValueError, match="w2"):
        load_order_head(str(path))
