"""Tests for the process-SPMD backend (forked ranks over shared memory).

Runs the identical backend-agnostic collective contract suite as the
thread backend (``spmd_collective_suite``), plus process-specific
behaviour: slab capacity limits, GIL-free parallelism plumbing, ledger
round-trips, and solver parity against sequential runs.
"""

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.errors import CommAborted, CommError, RankMismatchError
from repro.machine.spec import CRAY_XC30
from repro.mpi.ops import MAX, SUM
from repro.mpi.process_backend import (
    _KIND_PICKLE,
    _KIND_RAW_C,
    _KIND_RAW_F,
    ProcessComm,
    ProcessWorld,
    WorkerPool,
    process_spmd_run,
)
from repro.solvers.lasso import sa_acc_bcd
from repro.solvers.svm import sa_dcd
from spmd_collective_suite import (
    BufferCollectivesSuite,
    CostPlumbingSuite,
    FailureModesSuite,
    NonblockingSuite,
    ObjectCollectivesSuite,
)


class TestObjectCollectives(ObjectCollectivesSuite):
    run = staticmethod(process_spmd_run)


class TestBufferCollectives(BufferCollectivesSuite):
    run = staticmethod(process_spmd_run)


class TestNonblocking(NonblockingSuite):
    run = staticmethod(process_spmd_run)


class TestFailureModes(FailureModesSuite):
    run = staticmethod(process_spmd_run)


class TestCostPlumbing(CostPlumbingSuite):
    run = staticmethod(process_spmd_run)


class TestProcessSpecific:
    def test_world_rejects_bad_size(self):
        with pytest.raises(CommError):
            ProcessWorld(0)

    def test_oversized_blocking_payload_rejected(self):
        def fn(comm, r):
            return comm.allreduce(np.zeros(1000))

        # the error must name both the payload size and the knob
        with pytest.raises(CommError, match=r"slab_bytes=1024"):
            process_spmd_run(fn, 2, slab_bytes=1024)

    def test_oversized_payload_wakes_parked_peers(self):
        """Only one rank overflowing must not leave the others parked on
        the barrier until the timeout/terminate path fires."""

        def fn(comm, r):
            payload = np.zeros(1000) if r == 0 else 1.0
            return comm.allreduce(payload)

        t0 = time.monotonic()
        with pytest.raises(CommError, match="slab capacity"):
            process_spmd_run(fn, 2, slab_bytes=1024, timeout=60.0)
        assert time.monotonic() - t0 < 30.0  # deterministic, not the timeout

    def test_oversized_nonblocking_payload_rejected(self):
        def fn(comm, r):
            return comm.Iallreduce(np.zeros(64)).wait()

        with pytest.raises(CommError, match=r"nb_doubles=16"):
            process_spmd_run(fn, 2, nb_doubles=16)

    def test_nonfloat_nonblocking_payload_rejected(self):
        def fn(comm, r):
            return comm.Iallreduce(np.arange(4)).wait()  # int64

        with pytest.raises(CommError, match="float64"):
            process_spmd_run(fn, 2)

    def test_ledgers_pickle_back_with_by_collective(self):
        def fn(comm, r):
            comm.Allreduce(np.ones(8))
            comm.bcast(1)
            comm.account_flops(50.0, "blas3")

        res = process_spmd_run(fn, 2, machine=CRAY_XC30)
        led = res.ledgers[0]
        assert set(led.by_collective) == {"allreduce", "bcast"}
        assert led.by_kind["blas3"] == pytest.approx(50.0)
        # reconstructed defaultdicts still work in the parent
        led.by_collective["new"][0] += 1
        assert led.by_collective["new"][0] == 1

    def test_each_rank_holds_only_its_shard(self, small_regression):
        A, b, _ = small_regression

        def fn(comm, rank):
            from repro.linalg.distmatrix import RowPartitionedMatrix

            M = RowPartitionedMatrix.from_global(A, comm)
            return M.local.shape[0]

        res = process_spmd_run(fn, 3)
        assert sum(res.values) == A.shape[0]
        assert all(v < A.shape[0] for v in res.values)

    @pytest.mark.slow
    def test_sa_acc_bcd_matches_sequential(self, small_regression):
        A, b, _ = small_regression
        seq = sa_acc_bcd(A, b, 0.9, mu=2, s=8, max_iter=48, seed=1,
                         record_every=0).x

        def fn(comm, rank):
            return sa_acc_bcd(A, b, 0.9, mu=2, s=8, max_iter=48, seed=1,
                              comm=comm, record_every=0).x

        res = process_spmd_run(fn, 4)
        for xv in res.values:
            assert np.allclose(xv, seq, atol=1e-10)

    @pytest.mark.slow
    def test_sa_dcd_matches_sequential(self, small_classification):
        A, b = small_classification
        seq = sa_dcd(A, b, loss="l2", s=16, max_iter=96, seed=5,
                     record_every=0)

        def fn(comm, rank):
            res = sa_dcd(A, b, loss="l2", s=16, max_iter=96, seed=5,
                         comm=comm, record_every=0)
            return res.x, res.extras["alpha"]

        out = process_spmd_run(fn, 3)
        for xv, av in out.values:
            assert np.allclose(xv, seq.x, atol=1e-10)
            assert np.allclose(av, seq.extras["alpha"], atol=1e-10)

    @pytest.mark.slow
    def test_message_counts_match_virtual(self, small_regression):
        """Process-P and virtual-P modes must charge identical comm costs."""
        A, b, _ = small_regression
        P, H = 4, 32

        def fn(comm, rank):
            sa_acc_bcd(A, b, 0.9, mu=2, s=8, max_iter=H, seed=0, comm=comm,
                       record_every=0)

        proc = process_spmd_run(fn, P, machine=CRAY_XC30)

        from repro.mpi.virtual_backend import VirtualComm

        vc = VirtualComm(P, machine=CRAY_XC30)
        sa_acc_bcd(A, b, 0.9, mu=2, s=8, max_iter=H, seed=0, comm=vc,
                   record_every=0)
        assert proc.ledgers[0].messages == vc.ledger.messages
        assert proc.ledgers[0].words == pytest.approx(vc.ledger.words)


def _payload(kind: str, r: int) -> np.ndarray:
    """Rank ``r``'s float64 contribution of one layout ``kind``."""
    rng = np.random.default_rng(r)
    if kind == "0d":
        return np.array(rng.standard_normal())
    if kind == "empty":
        return np.empty(0)
    if kind == "empty2d":
        return np.empty((0, 3))
    if kind == "1d":
        return rng.standard_normal(37)
    if kind == "2d":
        return rng.standard_normal((5, 7))
    if kind == "strided":
        return rng.standard_normal((8, 10))[:, ::3]
    assert kind == "fortran"
    return np.asfortranarray(rng.standard_normal((6, 4)))


_LAYOUTS = ["0d", "empty", "empty2d", "1d", "2d", "strided", "fortran"]


@pytest.mark.parametrize("size", [2, 3])
class TestBlockingExchange:
    """The blocking exchange's two slab encodings: raw doubles for a
    float64 ndarray, a pickle for anything else — chosen per rank."""

    @pytest.mark.parametrize("kind", _LAYOUTS)
    @pytest.mark.parametrize("op", [SUM, MAX], ids=["sum", "max"])
    def test_allreduce_bit_identical_to_rank_order_fold(self, size, kind, op):
        def fn(comm, r):
            x = _payload(kind, r)
            fresh = comm.Allreduce(x, op=op)
            out = np.empty_like(x)
            into = comm.Allreduce(x, op=op, out=out)
            assert into is out
            if x.size:
                with pytest.raises(CommError, match="alias"):
                    comm.Allreduce(x, op=op, out=x)
            # a 0-d fold yields a numpy scalar, as the pickled path did
            return (fresh, into, fresh.ndim == 0 or fresh.flags.writeable,
                    np.may_share_memory(fresh, comm._world._obj),
                    int(comm._world._hdr[r, 0]))

        parts = [_payload(kind, r) for r in range(size)]
        want = op.fold(parts)
        for fresh, into, writeable, aliased, hdr_kind in (
            process_spmd_run(fn, size).values
        ):
            for got in (fresh, into):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert writeable and not aliased
            assert hdr_kind == (_KIND_RAW_F if kind == "fortran" else _KIND_RAW_C)

    def test_non_float64_and_objects_take_the_pickled_path(self, size):
        def fn(comm, r):
            out = []
            for obj in (np.arange(4) * (r + 1), np.ones(3, np.float32) * r,
                        np.ones(2, dtype=">f8"), {"r": r}, np.float64(r)):
                got = comm.allgather(obj)
                # types are read here: the result pipe normalises byte order
                out.append(([f"{type(g).__name__}:{getattr(g, 'dtype', '')}"
                             for g in got], got, int(comm._world._hdr[r, 0])))
            ints = comm.Allreduce(np.arange(4) * (r + 1))
            return out, ints

        for out, ints in process_spmd_run(fn, size).values:
            assert [kind for _, _, kind in out] == [_KIND_PICKLE] * 5
            types = [t for t, _, _ in out]
            assert types == [["ndarray:int64"] * size,
                             ["ndarray:float32"] * size,
                             ["ndarray:>f8"] * size, ["dict:"] * size,
                             ["float64:float64"] * size]
            assert out[3][1] == [{"r": r} for r in range(size)]
            assert ints.dtype == np.int64
            assert ints.tolist() == (np.arange(4) * sum(range(1, size + 1))).tolist()

    def test_mixed_ndarray_and_scalar_deposits(self, size):
        def contrib(r):
            return np.arange(3.0) + r if r == 0 else (2.0 if r == 1 else np.float64(r))

        def fn(comm, r):
            mine = contrib(r)
            gathered = comm.allgather(mine)
            reduced = comm.allreduce(mine)
            folded = comm._exchange_fold("Allreduce", mine, SUM.fold)
            return gathered, reduced, folded

        want = SUM.fold([contrib(r) for r in range(size)])
        for gathered, reduced, folded in process_spmd_run(fn, size).values:
            assert isinstance(gathered[0], np.ndarray)
            assert type(gathered[1]) is float
            assert reduced.tobytes() == want.tobytes()
            assert folded.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shapes", [((3,), (4,)), ((2, 3), (3, 2))],
                             ids=["length", "shape"])
    def test_raw_mismatch_raises_on_every_rank(self, size, shapes):
        def fn(comm, r):
            x = np.ones(shapes[r == size - 1])
            try:
                comm.Allreduce(x)
            except RankMismatchError as exc:
                caught = str(exc)
            else:
                caught = None
            # both barriers were passed, so the world stays usable
            return caught, comm.allreduce(1.0)

        t0 = time.monotonic()
        values = process_spmd_run(fn, size, timeout=60.0).values
        assert time.monotonic() - t0 < 30.0
        for caught, after in values:
            assert caught is not None and "shapes" in caught
            assert after == float(size)

    def test_unfolded_results_are_copies(self, size):
        def fn(comm, r):
            g = comm.allgather(np.full(4, float(r)))
            bc = comm.Bcast(np.full(3, 7.0 + r), root=0)
            ga = comm.gather(np.full(2, float(r)), root=0)
            comm.Allreduce(np.full(4, 99.0))
            comm.allgather(np.full(4, -1.0))
            comm.Bcast(np.full(3, -5.0), root=0)
            comm.gather(np.full(2, -3.0), root=0)
            return g, bc, ga

        for rank, (g, bc, ga) in enumerate(process_spmd_run(fn, size).values):
            assert [x.tolist() for x in g] == [[float(r)] * 4 for r in range(size)]
            assert bc.tolist() == [7.0] * 3
            if rank == 0:
                assert [x.tolist() for x in ga] == [[float(r)] * 2 for r in range(size)]

    def test_reset_clears_headers_and_recovered_job_runs(self, size):
        def work(die):
            def fn(comm, r):
                ctx = comm.recovery
                acc = np.zeros((2, 3), order="F")
                start = 0
                if ctx.resume is not None:
                    start = ctx.resume["iteration"] + 1
                    acc = np.asfortranarray(ctx.resume["acc"])
                for i in range(start, 6):
                    if die and r == size - 1 and i == 3 and ctx.recoveries == 0:
                        os._exit(13)
                    acc = acc + comm.Allreduce(np.asfortranarray(
                        np.full((2, 3), float(r + i))))
                    acc = acc + comm.allreduce(float(i))
                    ctx.save({"iteration": i, "acc": acc})
                return acc

            return fn

        with WorkerPool(size) as pool:
            clean = pool.run(work(False))
            world = pool.world
            assert set(world._hdr[:, 0]) == {_KIND_PICKLE}
            world.reset_for_reuse()
            assert not world._hdr.any() and not world._tags.any()
            res = pool.run(work(True), recover="checkpoint")
            assert res.ledgers[0].recoveries == 1
        for got, want in zip(res.values, clean.values):
            assert got.tobytes() == want.tobytes()


class TestShutdownTeardown:
    """Exception-safe teardown: a failing rank must wake blocked peers
    deterministically and leave no live children — never relying on the
    join-timeout/terminate path."""

    @staticmethod
    def _no_live_spmd_children(grace: float = 5.0) -> bool:
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            if not any(p.name.startswith("spmd-proc")
                       for p in mp.active_children()):
                return True
            time.sleep(0.05)
        return False

    def test_raising_rank_wakes_parked_peer(self):
        def fn(comm, r):
            if r == 0:
                raise ValueError("boom mid-collective")
            for _ in range(1000):
                comm.allreduce(1.0)  # parks on a barrier rank 0 never joins
            return True

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="boom"):
            process_spmd_run(fn, 2, timeout=60.0)
        assert time.monotonic() - t0 < 30.0  # woken, not timed out
        assert self._no_live_spmd_children()

    def test_killed_rank_wakes_parked_peer(self):
        """A child dying without reporting (crash/kill) can never let the
        world complete; the parent must abort it promptly."""

        def fn(comm, r):
            if r == 0:
                os._exit(3)  # dies mid-flight, reports nothing
            comm.allreduce(1.0)
            return True

        t0 = time.monotonic()
        with pytest.raises(CommAborted):
            process_spmd_run(fn, 2, timeout=60.0)
        assert time.monotonic() - t0 < 30.0
        assert self._no_live_spmd_children()

    def test_world_context_manager_shutdown(self):
        with ProcessWorld(2) as world:
            assert not world.is_aborted()
        assert world.is_aborted()
        # post-shutdown collectives fail fast instead of blocking
        comm = ProcessComm(world, 0)
        with pytest.raises(CommAborted):
            comm.allreduce(1.0)

    def test_shutdown_is_idempotent(self):
        world = ProcessWorld(2)
        world.shutdown()
        world.shutdown()
        assert world.is_aborted()
