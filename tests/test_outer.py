"""The shared SA outer driver (:mod:`repro.solvers.outer`).

Pins what the one driver owns for all three SA families:

* the schedule knobs map onto one in-flight depth and one ring-depth
  rule;
* reductions still in flight when a solve ends early — an exception
  from a checkpoint sink, or ``tol`` convergence mid-ring — are drained,
  so a second async solve on the *same* communicator matches the same
  solve on a fresh one bit for bit;
* aborts (``CommAborted``, ``RankDiedError``, ``KeyboardInterrupt``)
  propagate without a drain attempt, while any other exception drains
  and then propagates unchanged;
* checkpoints fire only at outer-step boundaries that cross a cadence
  multiple, never on the converging step.
"""

import numpy as np
import pytest

from repro.datasets import make_classification, make_sparse_regression
from repro.errors import CommAborted, RankDiedError, SolverError
from repro.faults import InjectedFailure
from repro.mpi.thread_backend import NB_RING_DEPTH, spmd_run
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers import outer
from repro.solvers.lasso import sa_acc_bcd, sa_bcd
from repro.solvers.objectives import lambda_max
from repro.solvers.outer import inflight_depth, ring_depth, schedule_depth
from repro.solvers.svm import sa_dcd

FAMILIES = ("lasso-plain", "lasso-acc", "svm")
TAU = 2
#: ring for tau = 2: three reductions in flight plus the prefetch
NB_DEPTH = ring_depth(inflight_depth(async_=True, tau=TAU))


@pytest.fixture(scope="module")
def lasso_problem():
    A, b, _ = make_sparse_regression(200, 60, density=0.2, seed=1)
    return A, b, 0.1 * lambda_max(A, b)


@pytest.fixture(scope="module")
def svm_problem():
    return make_classification(60, 24, density=0.4, seed=4, margin=0.3)


def _solve(family, problems, comm, **kw):
    lasso, svm = problems
    kw.setdefault("seed", 7)
    if family == "svm":
        X, y = svm
        return sa_dcd(X, y, loss="l1", s=4, comm=comm, **kw)
    A, b, lam = lasso
    fn = sa_bcd if family == "lasso-plain" else sa_acc_bcd
    return fn(A, b, lam, mu=2, s=4, comm=comm, **kw)


def _fingerprint(res):
    """Everything a solve computes, minus the comm-cumulative ledger."""
    return res.x.copy(), list(res.history.iterations), list(res.history.metric)


def _assert_same(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


class _Sink:
    """Per-rank checkpoint sink; raises from ``raise_at`` on."""

    def __init__(self, raise_at=None):
        self.raise_at = raise_at
        self.iterations = []

    def __call__(self, payload):
        self.iterations.append(payload["iteration"])
        if self.raise_at is not None and payload["iteration"] >= self.raise_at:
            raise InjectedFailure(f"sink failed at {payload['iteration']}")


SECOND = dict(async_=True, tau=TAU, max_iter=48, record_every=4)


def _fresh(family, problems):
    def run_rank(comm, rank):
        return _fingerprint(_solve(family, problems, comm, **SECOND))

    return spmd_run(run_rank, 2, nb_depth=NB_DEPTH).values


class TestDepthRule:
    def test_inflight_depth(self):
        assert inflight_depth() == 0
        assert inflight_depth(pipeline=True) == 1
        assert inflight_depth(async_=True, tau=0) == 1
        assert inflight_depth(async_=True, tau=3) == 4

    def test_ring_depth(self):
        # blocking and pipelined solves fit the backends' default ring
        assert ring_depth(0) == NB_RING_DEPTH
        assert ring_depth(1) == NB_RING_DEPTH
        assert ring_depth(inflight_depth(async_=True, tau=3)) == 5

    def test_schedule_depth_validates(self):
        assert schedule_depth(4, False, True, 2) == 3
        with pytest.raises(SolverError, match="s must be"):
            schedule_depth(0, False, False, 1)
        with pytest.raises(SolverError, match="tau must be"):
            schedule_depth(4, False, True, -1)
        with pytest.raises(SolverError, match="mutually exclusive"):
            schedule_depth(4, True, True, 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_raising_solve_leaves_comm_reusable(family, lasso_problem, svm_problem):
    problems = (lasso_problem, svm_problem)

    def run_rank(comm, rank):
        sink = _Sink(raise_at=8)
        with pytest.raises(InjectedFailure):
            _solve(family, problems, comm, async_=True, tau=TAU, max_iter=40,
                   checkpoint_every=4, checkpoint_sink=sink)
        assert sink.iterations == [4, 8]
        return _fingerprint(_solve(family, problems, comm, **SECOND))

    reused = spmd_run(run_rank, 2, nb_depth=NB_DEPTH).values
    fresh = _fresh(family, problems)
    for got, want in zip(reused, fresh):
        _assert_same(got, want)


#: per-family tolerance that stops the async tau=2 solve well inside its
#: budget (objective relative change for Lasso, duality gap for SVM)
_TOL = {"lasso-plain": 1e-3, "lasso-acc": 1e-3, "svm": 20.0}


@pytest.mark.parametrize("family", FAMILIES)
def test_tol_convergence_mid_ring(family, lasso_problem, svm_problem):
    problems = (lasso_problem, svm_problem)
    max_iter, every = 400, 6

    def run_rank(comm, rank):
        sink = _Sink()
        res = _solve(family, problems, comm, async_=True, tau=TAU,
                     max_iter=max_iter, tol=_TOL[family], record_every=4,
                     checkpoint_every=every, checkpoint_sink=sink)
        second = _fingerprint(_solve(family, problems, comm, **SECOND))
        return res.converged, res.iterations, sink.iterations, second

    reused = spmd_run(run_rank, 2, nb_depth=NB_DEPTH).values
    fresh = _fresh(family, problems)
    for (converged, iters, ck_iters, second), want in zip(reused, fresh):
        # converged with steps still in flight: the drain had work to do
        assert converged
        assert iters + (TAU + 1) * 4 <= max_iter
        assert ck_iters, "no checkpoint before convergence"
        for it in ck_iters:
            # every outer step but the converging one is a full s = 4
            assert it % 4 == 0 and it < iters
            assert it // every != (it - 4) // every
        _assert_same(second, want)


class TestExceptionPath:
    """Which exceptions drain the ring before propagating."""

    @pytest.fixture
    def drains(self, monkeypatch):
        calls = []
        real = outer._drain

        def spy(inflight):
            calls.append(len(inflight))
            real(inflight)

        monkeypatch.setattr(outer, "_drain", spy)
        return calls

    @pytest.mark.parametrize(
        "exc", [CommAborted("peer"), RankDiedError("peer"), KeyboardInterrupt()]
    )
    def test_aborts_skip_the_drain(self, exc, drains, lasso_problem):
        def sink(payload):
            raise exc

        with pytest.raises(type(exc)) as info:
            _solve("lasso-plain", (lasso_problem, None), VirtualComm(2),
                   async_=True, tau=TAU, max_iter=40, checkpoint_every=4,
                   checkpoint_sink=sink)
        assert info.value is exc
        assert drains == []

    def test_other_exceptions_drain_then_propagate(self, drains, svm_problem):
        exc = InjectedFailure("sink")

        def sink(payload):
            raise exc

        with pytest.raises(InjectedFailure) as info:
            _solve("svm", (None, svm_problem), VirtualComm(2), async_=True,
                   tau=TAU, max_iter=40, checkpoint_every=4,
                   checkpoint_sink=sink)
        assert info.value is exc
        # the raising step was harvested; tau more were still in flight
        assert drains == [TAU]

    def test_blocking_and_pipelined_never_drain_in_flight_work(
        self, drains, lasso_problem
    ):
        for kw in ({}, {"pipeline": True}):
            _solve("lasso-acc", (lasso_problem, None), VirtualComm(2),
                   max_iter=12, **kw)
        # pipelined: one drain call at loop exit, with nothing left to wait
        assert drains == [0]
