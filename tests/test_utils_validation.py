"""Tests for repro.utils.validation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import SALasso, SASVMClassifier, fit_lasso, fit_svm
from repro.errors import SolverError
from repro.streaming import StreamingSweep
from repro.utils.validation import (
    as_float64_array,
    check_dense_or_csr,
    check_in_range,
    check_positive,
    check_vector,
    is_sparse,
    nnz_of,
)


class TestCheckDenseOrCsr:
    def test_dense_passthrough(self):
        A = check_dense_or_csr([[1.0, 2.0], [3.0, 4.0]])
        assert isinstance(A, np.ndarray) and A.dtype == np.float64

    def test_sparse_to_csr(self):
        A = check_dense_or_csr(sp.coo_matrix(np.eye(3)))
        assert sp.issparse(A) and A.format == "csr"

    def test_sparse_dtype_coerced(self):
        A = check_dense_or_csr(sp.csr_matrix(np.eye(3, dtype=np.float32)))
        assert A.dtype == np.float64

    def test_1d_rejected(self):
        with pytest.raises(SolverError):
            check_dense_or_csr(np.arange(4.0))

    def test_nan_rejected(self):
        with pytest.raises(SolverError):
            check_dense_or_csr(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sparse_nonfinite_rejected(self, bad):
        A = sp.csr_matrix(np.array([[bad, 1.0], [0.0, 2.0]]))
        with pytest.raises(SolverError, match="non-finite"):
            check_dense_or_csr(A)

    def test_duplicates_summed(self):
        A = sp.coo_matrix(([1.0, 2.0], ([0, 0], [0, 0])), shape=(1, 1))
        out = check_dense_or_csr(A)
        assert out[0, 0] == 3.0


class TestCheckVector:
    def test_accepts_list(self):
        v = check_vector([1, 2, 3], 3)
        assert v.dtype == np.float64

    def test_wrong_length(self):
        with pytest.raises(SolverError):
            check_vector([1, 2], 3)

    def test_inf_rejected(self):
        with pytest.raises(SolverError):
            check_vector([1.0, np.inf], 2)


class TestScalarChecks:
    def test_positive_ok(self):
        assert check_positive(2.5, "x") == 2.5

    def test_zero_rejected_strict(self):
        with pytest.raises(SolverError):
            check_positive(0.0, "x")

    def test_zero_ok_nonstrict(self):
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_in_range(self):
        assert check_in_range(3, 1, 5, "k") == 3
        with pytest.raises(SolverError):
            check_in_range(6, 1, 5, "k")


class TestHelpers:
    def test_nnz_of_sparse(self):
        assert nnz_of(sp.eye(4, format="csr")) == 4

    def test_nnz_of_dense(self):
        assert nnz_of(np.zeros((2, 3))) == 6

    def test_is_sparse(self):
        assert is_sparse(sp.eye(2)) and not is_sparse(np.eye(2))

    def test_as_float64(self):
        out = as_float64_array([1, 2])
        assert out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]


class TestNonFiniteSparseBoundaries:
    """Sparse input with a NaN or inf entry is refused at every public
    boundary, as dense input already was."""

    @staticmethod
    def _data(bad, svm=False):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((16, 10))
        y = np.where(rng.standard_normal(16) > 0, 1.0, -1.0) if svm else A[:, 0]
        clean = sp.csr_matrix(A)
        A[3, 2] = bad
        return clean, sp.csr_matrix(A), y

    @pytest.fixture(params=[np.nan, np.inf], ids=["nan", "inf"])
    def bad(self, request):
        return request.param

    def test_fit_lasso(self, bad):
        _, A, y = self._data(bad)
        with pytest.raises(SolverError, match="non-finite"):
            fit_lasso(A, y, 0.1, solver="sa-accbcd", max_iter=8)

    def test_fit_svm(self, bad):
        _, A, y = self._data(bad, svm=True)
        with pytest.raises(SolverError, match="non-finite"):
            fit_svm(A, y, solver="sa-svm", max_iter=8)

    def test_estimator_fit(self, bad):
        _, A, y = self._data(bad)
        with pytest.raises(SolverError, match="non-finite"):
            SALasso(max_iter=8).fit(A, y)
        _, A, y = self._data(bad, svm=True)
        with pytest.raises(SolverError, match="non-finite"):
            SASVMClassifier(max_iter=8).fit(A, y)

    def test_estimator_partial_fit(self, bad):
        clean, A, y = self._data(bad)
        with pytest.raises(SolverError, match="non-finite"):
            SALasso(max_iter=8).partial_fit(A, y)
        est = SALasso(max_iter=8).partial_fit(clean, y)
        with pytest.raises(SolverError, match="non-finite"):
            est.partial_fit(A, y)
        clean, A, y = self._data(bad, svm=True)
        with pytest.raises(SolverError, match="non-finite"):
            SASVMClassifier(max_iter=8).partial_fit(A, y)
        clf = SASVMClassifier(max_iter=8).partial_fit(clean, y)
        with pytest.raises(SolverError, match="non-finite"):
            clf.partial_fit(A, y)

    @pytest.mark.parametrize("task", ["lasso", "svm"])
    def test_streaming_append(self, bad, task):
        clean, A, y = self._data(bad, svm=task == "svm")
        sweep = StreamingSweep(clean, y, task=task, max_iter=8)
        rev = sweep.revision
        with pytest.raises(SolverError, match="non-finite"):
            sweep.append(A, y)
        assert sweep.revision == rev
        assert sweep.dist.shape == clean.shape
