"""Tests for the LIBSVM format reader/writer."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_of
from repro.datasets.libsvm import dumps_libsvm, load_libsvm, loads_libsvm, save_libsvm
from repro.errors import DatasetError


SAMPLE = """\
+1 1:0.5 3:-2.0
-1 2:1.25
# a comment line
+1 1:1 2:2 3:3  # trailing comment
"""


class TestParse:
    def test_basic(self):
        A, y = loads_libsvm(SAMPLE)
        assert A.shape == (3, 3)
        assert np.array_equal(y, [1.0, -1.0, 1.0])
        assert A[0, 0] == 0.5 and A[0, 2] == -2.0
        assert A[1, 1] == 1.25

    def test_zero_based(self):
        A, y = loads_libsvm("1 0:5.0\n", zero_based=True)
        assert A[0, 0] == 5.0

    def test_n_features_padding(self):
        A, _ = loads_libsvm("1 1:1\n", n_features=10)
        assert A.shape == (1, 10)

    def test_n_features_too_small(self):
        with pytest.raises(DatasetError):
            loads_libsvm("1 5:1\n", n_features=2)

    def test_empty_rows_allowed(self):
        A, y = loads_libsvm("1\n-1 1:2\n")
        assert A.shape == (2, 1) and A[0].nnz == 0

    def test_bad_label(self):
        with pytest.raises(DatasetError, match="invalid label"):
            loads_libsvm("abc 1:1\n")

    def test_bad_token(self):
        with pytest.raises(DatasetError, match="invalid feature token"):
            loads_libsvm("1 1:xyz\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value(self, token):
        with pytest.raises(DatasetError, match=f"line 2: non-finite feature value in '1:{token}'"):
            loads_libsvm(f"1 1:1.0\n-1 1:{token} 2:1.0\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_label(self, token):
        with pytest.raises(DatasetError, match=f"line 3: non-finite label '{token}'"):
            loads_libsvm(f"1 1:1.0\n# comment\n{token} 1:2.0\n")

    def test_first_non_finite_token_is_reported(self):
        # the NaN value on line 1 is found before the NaN label on line 2
        with pytest.raises(DatasetError, match=r"line 1: .*'1:nan'"):
            loads_libsvm("1 1:nan 2:1.0\nnan 1:2.0\n-1 2:inf\n")

    def test_non_finite_in_file(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("1 1:1.0\n-1 2:inf\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_libsvm(path)

    def test_non_increasing_indices(self):
        with pytest.raises(DatasetError, match="strictly increasing"):
            loads_libsvm("1 2:1 1:1\n")

    def test_index_out_of_range(self):
        with pytest.raises(DatasetError):
            loads_libsvm("1 0:1\n")  # 1-based input may not use index 0

    def test_empty_input(self):
        A, y = loads_libsvm("")
        assert A.shape == (0, 0) and y.shape == (0,)


class TestRoundTrip:
    def test_roundtrip_sparse(self, small_regression):
        A, b, _ = small_regression
        text = dumps_libsvm(A, b)
        A2, b2 = loads_libsvm(text, n_features=A.shape[1])
        assert np.allclose(dense_of(A), dense_of(A2))
        assert np.allclose(b, b2)

    def test_roundtrip_file(self, tmp_path, small_classification):
        A, b = small_classification
        path = tmp_path / "data.svm"
        save_libsvm(path, A, b)
        A2, b2 = load_libsvm(path, n_features=A.shape[1])
        assert np.allclose(dense_of(A), dense_of(A2))
        assert np.array_equal(b, b2)

    def test_label_length_mismatch(self):
        with pytest.raises(DatasetError):
            dumps_libsvm(sp.eye(3, format="csr"), np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), m=st.integers(1, 20), n=st.integers(1, 15))
    def test_roundtrip_random(self, seed, m, n):
        rng = np.random.default_rng(seed)
        A = sp.random(m, n, density=0.4, random_state=seed, format="csr")
        y = rng.standard_normal(m)
        A2, y2 = loads_libsvm(dumps_libsvm(A, y), n_features=n)
        assert np.allclose(dense_of(A), dense_of(A2))
        assert np.allclose(y, y2)
