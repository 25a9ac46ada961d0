"""Fused (fast=True) vs reference (fast=False) inner-loop parity.

The kernel layer's contract is *bit-identical* iterate sequences: the
fused loops remove Python/NumPy overhead, allocations, and redundant
eigensolves but never re-associate floating-point reductions. These
tests enforce exact equality (``np.array_equal``, not ``allclose``) on
the solution, the recorded objective/gap history, and the modelled cost
ledger — any arithmetic drift in the fast path fails loudly here.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.experiments.runner import load_scaled
from repro.mpi.thread_backend import spmd_run
from repro.prox.penalties import ElasticNetPenalty, GroupLassoPenalty
from repro.solvers.lasso import sa_acc_bcd, sa_acc_cd, sa_bcd
from repro.solvers.svm.dcd import sa_dcd

LAM = 0.7


def _assert_same(rf, rn, check_cost=True):
    assert np.array_equal(rf.x, rn.x)
    assert rf.iterations == rn.iterations
    assert rf.converged == rn.converged
    assert rf.history.iterations == rn.history.iterations
    assert rf.history.metric == rn.history.metric
    if check_cost:
        # the model charges the algorithm's work, not Python overhead:
        # fused and naive must cost the same modelled seconds
        assert rf.cost.seconds == rn.cost.seconds
        assert rf.cost.messages == rn.cost.messages
        assert rf.cost.words == rn.cost.words


class TestSaAccBcdParity:
    @pytest.mark.parametrize("mu,s", [(1, 1), (1, 8), (1, 64), (4, 8), (3, 16)])
    def test_sparse(self, small_regression, mu, s):
        A, b, _ = small_regression
        rf = sa_acc_bcd(A, b, LAM, mu=mu, s=s, max_iter=96, seed=5, fast=True)
        rn = sa_acc_bcd(A, b, LAM, mu=mu, s=s, max_iter=96, seed=5, fast=False)
        _assert_same(rf, rn)

    @pytest.mark.parametrize("mu,s", [(1, 16), (4, 8)])
    def test_dense(self, dense_regression, mu, s):
        A, b, _ = dense_regression
        rf = sa_acc_bcd(A, b, LAM, mu=mu, s=s, max_iter=64, seed=1, fast=True)
        rn = sa_acc_bcd(A, b, LAM, mu=mu, s=s, max_iter=64, seed=1, fast=False)
        _assert_same(rf, rn)

    def test_elastic_net(self, small_regression):
        A, b, _ = small_regression
        pen = ElasticNetPenalty(lam=0.3, scale=0.5)
        rf = sa_acc_bcd(A, b, pen, mu=2, s=12, max_iter=72, seed=6, fast=True)
        rn = sa_acc_bcd(A, b, pen, mu=2, s=12, max_iter=72, seed=6, fast=False)
        _assert_same(rf, rn)

    def test_group_lasso_blocks(self, small_regression):
        A, b, _ = small_regression
        n = A.shape[1]
        pen = GroupLassoPenalty(lam=0.4, group_ids=np.arange(n) // 4)
        rf = sa_acc_bcd(A, b, pen, mu=2, s=8, max_iter=48, seed=2, fast=True)
        rn = sa_acc_bcd(A, b, pen, mu=2, s=8, max_iter=48, seed=2, fast=False)
        _assert_same(rf, rn)

    def test_x0_and_tolerance_stop(self, small_regression):
        A, b, _ = small_regression
        x0 = np.linspace(-0.4, 0.4, A.shape[1])
        kw = dict(mu=1, s=16, max_iter=400, seed=3, x0=x0, tol=1e-4)
        rf = sa_acc_bcd(A, b, LAM, fast=True, **kw)
        rn = sa_acc_bcd(A, b, LAM, fast=False, **kw)
        _assert_same(rf, rn)

    def test_record_every_zero(self, small_regression):
        A, b, _ = small_regression
        kw = dict(mu=1, s=8, max_iter=50, seed=0, record_every=0)
        rf = sa_acc_bcd(A, b, LAM, fast=True, **kw)
        rn = sa_acc_bcd(A, b, LAM, fast=False, **kw)
        _assert_same(rf, rn)

    def test_sa_acc_cd_passthrough(self, small_regression):
        A, b, _ = small_regression
        rf = sa_acc_cd(A, b, LAM, s=24, max_iter=96, seed=7, fast=True)
        rn = sa_acc_cd(A, b, LAM, s=24, max_iter=96, seed=7, fast=False)
        _assert_same(rf, rn)

    def test_theta_extras_match(self, small_regression):
        A, b, _ = small_regression
        rf = sa_acc_bcd(A, b, LAM, mu=2, s=8, max_iter=64, seed=0, fast=True)
        rn = sa_acc_bcd(A, b, LAM, mu=2, s=8, max_iter=64, seed=0, fast=False)
        assert rf.extras["theta"] == rn.extras["theta"]


class TestSaBcdParity:
    """SA-BCD runs the fused loops shared with SA-accBCD under the
    identity momentum: the same coverage as :class:`TestSaAccBcdParity`."""

    @pytest.mark.parametrize("mu,s", [(1, 8), (1, 32), (4, 8), (1, 1), (3, 16)])
    def test_sparse(self, small_regression, mu, s):
        A, b, _ = small_regression
        rf = sa_bcd(A, b, LAM, mu=mu, s=s, max_iter=96, seed=2, fast=True)
        rn = sa_bcd(A, b, LAM, mu=mu, s=s, max_iter=96, seed=2, fast=False)
        _assert_same(rf, rn)

    def test_dense(self, dense_regression):
        A, b, _ = dense_regression
        rf = sa_bcd(A, b, LAM, mu=2, s=16, max_iter=64, seed=9, fast=True)
        rn = sa_bcd(A, b, LAM, mu=2, s=16, max_iter=64, seed=9, fast=False)
        _assert_same(rf, rn)

    @pytest.mark.parametrize("mu,s", [(1, 16), (4, 8)])
    def test_dense_blocks(self, dense_regression, mu, s):
        A, b, _ = dense_regression
        rf = sa_bcd(A, b, LAM, mu=mu, s=s, max_iter=64, seed=1, fast=True)
        rn = sa_bcd(A, b, LAM, mu=mu, s=s, max_iter=64, seed=1, fast=False)
        _assert_same(rf, rn)

    def test_elastic_net(self, small_regression):
        A, b, _ = small_regression
        pen = ElasticNetPenalty(lam=0.3, scale=0.5)
        rf = sa_bcd(A, b, pen, mu=2, s=12, max_iter=72, seed=6, fast=True)
        rn = sa_bcd(A, b, pen, mu=2, s=12, max_iter=72, seed=6, fast=False)
        _assert_same(rf, rn)

    def test_group_lasso_blocks(self, small_regression):
        A, b, _ = small_regression
        n = A.shape[1]
        pen = GroupLassoPenalty(lam=0.4, group_ids=np.arange(n) // 4)
        rf = sa_bcd(A, b, pen, mu=2, s=8, max_iter=48, seed=2, fast=True)
        rn = sa_bcd(A, b, pen, mu=2, s=8, max_iter=48, seed=2, fast=False)
        _assert_same(rf, rn)

    @pytest.mark.parametrize("mu", [1, 3])
    def test_x0_and_tolerance_stop(self, small_regression, mu):
        A, b, _ = small_regression
        x0 = np.linspace(-0.4, 0.4, A.shape[1])
        kw = dict(mu=mu, s=16, max_iter=400, seed=3, x0=x0, tol=1e-4)
        rf = sa_bcd(A, b, LAM, fast=True, **kw)
        rn = sa_bcd(A, b, LAM, fast=False, **kw)
        assert rn.converged and rn.iterations < 400
        _assert_same(rf, rn)

    @pytest.mark.parametrize("mu", [1, 4])
    def test_record_every_zero(self, small_regression, mu):
        A, b, _ = small_regression
        kw = dict(mu=mu, s=8, max_iter=50, seed=0, record_every=0)
        rf = sa_bcd(A, b, LAM, fast=True, **kw)
        rn = sa_bcd(A, b, LAM, fast=False, **kw)
        _assert_same(rf, rn)


class TestSaDcdParity:
    @pytest.mark.parametrize("loss,s", [("l1", 8), ("l1", 32), ("l2", 16)])
    def test_sparse(self, small_classification, loss, s):
        A, b = small_classification
        rf = sa_dcd(A, b, loss=loss, s=s, max_iter=200, seed=4, fast=True)
        rn = sa_dcd(A, b, loss=loss, s=s, max_iter=200, seed=4, fast=False)
        _assert_same(rf, rn)
        assert np.array_equal(rf.extras["alpha"], rn.extras["alpha"])
        assert np.array_equal(rf.extras["x_local"], rn.extras["x_local"])

    def test_dense(self, dense_classification):
        A, b = dense_classification
        rf = sa_dcd(A, b, loss="l1", s=8, max_iter=120, seed=1, fast=True)
        rn = sa_dcd(A, b, loss="l1", s=8, max_iter=120, seed=1, fast=False)
        _assert_same(rf, rn)
        assert np.array_equal(rf.extras["alpha"], rn.extras["alpha"])

    def test_record_every(self, small_classification):
        A, b = small_classification
        kw = dict(loss="l2", s=12, max_iter=96, seed=8, record_every=24)
        rf = sa_dcd(A, b, fast=True, **kw)
        rn = sa_dcd(A, b, fast=False, **kw)
        _assert_same(rf, rn)


def _rel_drift(x, ref):
    return np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300)


class TestParityModes:
    """The parity knob: exact keeps the bit-parity contract at mu > 1;
    fp-tolerant re-associates but stays within 1e-9 relative drift."""

    @pytest.mark.parametrize("mu,s", [(4, 8), (8, 32)])
    def test_exact_parity_mu_gt_1(self, small_regression, mu, s):
        A, b, _ = small_regression
        kw = dict(mu=mu, s=s, max_iter=96, seed=5)
        rn = sa_acc_bcd(A, b, LAM, fast=False, **kw)
        rf = sa_acc_bcd(A, b, LAM, fast=True, parity="exact", **kw)
        _assert_same(rf, rn)

    @pytest.mark.parametrize("mu,s", [(4, 8), (8, 32)])
    def test_exact_parity_mu_gt_1_sa_bcd(self, small_regression, mu, s):
        A, b, _ = small_regression
        kw = dict(mu=mu, s=s, max_iter=96, seed=5)
        rn = sa_bcd(A, b, LAM, fast=False, **kw)
        rf = sa_bcd(A, b, LAM, fast=True, parity="exact", **kw)
        _assert_same(rf, rn)

    @pytest.mark.parametrize("solver", [sa_bcd, sa_acc_bcd])
    def test_fp_tolerant_drift_bounded(self, small_regression, solver):
        A, b, _ = small_regression
        kw = dict(mu=4, s=16, max_iter=96, seed=2)
        rn = solver(A, b, LAM, fast=False, **kw)
        rf = solver(A, b, LAM, fast=True, parity="fp-tolerant", **kw)
        assert _rel_drift(rf.x, rn.x) <= 1e-9
        # the ledger charges the algorithm's work: identical in both modes
        assert rf.cost.seconds == rn.cost.seconds
        assert rf.cost.messages == rn.cost.messages
        assert rf.cost.words == rn.cost.words

    def test_fp_tolerant_fig3_config(self):
        """Acceptance: <= 1e-9 relative iterate drift at mu=8, s=32 on
        the fig3 benchmark configuration."""
        ds = load_scaled("news20", target_cells=20_000.0, seed=0)
        kw = dict(mu=8, s=32, max_iter=384, seed=3, record_every=32)
        rn = sa_acc_bcd(ds.A, ds.b, 1.0, fast=False, **kw)
        rf = sa_acc_bcd(ds.A, ds.b, 1.0, fast=True, parity="fp-tolerant", **kw)
        assert _rel_drift(rf.x, rn.x) <= 1e-9
        assert rf.iterations == rn.iterations

    @pytest.mark.parametrize("solver", [sa_bcd, sa_acc_bcd])
    def test_fp_tolerant_dense_blocks(self, dense_regression, solver):
        A, b, _ = dense_regression
        kw = dict(mu=4, s=8, max_iter=64, seed=9)
        rn = solver(A, b, LAM, fast=False, **kw)
        rf = solver(A, b, LAM, fast=True, parity="fp-tolerant", **kw)
        assert _rel_drift(rf.x, rn.x) <= 1e-9
        assert rf.cost.seconds == rn.cost.seconds

    def test_fp_tolerant_mu1_shares_exact_loop(self, small_regression):
        A, b, _ = small_regression
        kw = dict(mu=1, s=16, max_iter=96, seed=4)
        re_ = sa_acc_bcd(A, b, LAM, parity="exact", **kw)
        rf = sa_acc_bcd(A, b, LAM, parity="fp-tolerant", **kw)
        _assert_same(rf, re_)

    def test_fp_tolerant_mu1_shares_exact_loop_sa_bcd(self, small_regression):
        A, b, _ = small_regression
        kw = dict(mu=1, s=16, max_iter=96, seed=4)
        re_ = sa_bcd(A, b, LAM, parity="exact", **kw)
        rf = sa_bcd(A, b, LAM, parity="fp-tolerant", **kw)
        _assert_same(rf, re_)

    @pytest.mark.parametrize("solver", [sa_bcd, sa_acc_bcd])
    def test_unknown_parity_rejected(self, small_regression, solver):
        A, b, _ = small_regression
        with pytest.raises(SolverError):
            solver(A, b, LAM, parity="sloppy")

    def test_sa_dcd_accepts_parity(self, small_classification):
        A, b = small_classification
        rf = sa_dcd(A, b, loss="l1", s=8, max_iter=80, seed=4,
                    parity="fp-tolerant")
        rn = sa_dcd(A, b, loss="l1", s=8, max_iter=80, seed=4, fast=False)
        _assert_same(rf, rn)
        with pytest.raises(SolverError):
            sa_dcd(A, b, parity="sloppy")


class TestDistributedParity:
    """The fused loops run the same SPMD code path on thread ranks."""

    def test_thread_spmd_matches(self, small_regression):
        A, b, _ = small_regression

        def run(comm, rank, fast):
            from repro.linalg.distmatrix import RowPartitionedMatrix

            dist = RowPartitionedMatrix.from_global(A, comm)
            res = sa_acc_bcd(dist, b, LAM, mu=2, s=8, max_iter=48, seed=5, fast=fast)
            return res.x

        xs_fast = spmd_run(run, 3, args=(True,)).values
        xs_naive = spmd_run(run, 3, args=(False,)).values
        for xf, xn in zip(xs_fast, xs_naive, strict=True):
            assert np.array_equal(xf, xs_fast[0])
            assert np.array_equal(xf, xn)
