"""The one outer-step driver shared by the SA solvers (paper Alg. 2/4).

An SA outer step samples ``s`` blocks (rows for SVM), reduces their packed
Gram and projections in **one** Allreduce, then runs ``s`` local inner
iterations against it. :func:`run_outer` drives that step for every SA
family, parameterized only by ``depth``, the number of outer-step
reductions kept in flight:

* ``depth = 0`` — **blocking** (the paper's schedule): sample, reduce with
  a blocking ``gram_and_project`` / ``gram_rows_and_project``, step. No
  nonblocking collective is ever posted.
* ``depth = 1`` — **pipelined** (``pipeline=True``): each reduction is
  posted as a nonblocking Allreduce, and the next outer step's block is
  sampled and its residual-independent partial Gram packed while it is
  in flight (double buffer). Same sampled blocks, same rank-ordered
  fold: the iterate sequence equals the blocking one bit for bit, and
  the modelled ledger charges only the unoverlapped latency remainder.
  The prefetch is speculative: a run that converges via ``tol`` mid-step
  has already sampled and Gram-packed one block it never uses, and the
  ledger charges that local work (traffic is never speculated — the
  unused block is never posted).
* ``depth = tau + 1`` — **asynchronous, bounded staleness**
  (``async_=True``): up to ``tau + 1`` reductions stay in flight, each
  posted with the state vectors current at its post time, and the driver
  harvests the *oldest* instead of blocking on the newest. Outer step
  ``k`` therefore runs against projections up to ``tau`` steps stale
  (step ``k`` sees the state of step ``max(0, k - tau)``). The contract
  is weaker than pipelining's bit-parity: the iterates *differ* from the
  synchronous run, and what is guaranteed (``tests/test_async.py``) is
  convergence to the synchronous objective / duality gap within
  tolerance. ``tau = 0`` is ``depth = 1``: the pipelined schedule. The
  ledger splits each in-flight reduction's overlapped transit into fresh
  (``comm_seconds_hidden``) and superseded (``stale_seconds``) windows
  and records the staleness watermark (``max_staleness``).

Overlapped schedules need a communicator ring of :func:`ring_depth`
nonblocking slots (``nb_depth`` on the thread/process backends; a post
past it raises :class:`~repro.errors.NbRingDepthError`). Reductions still
in flight when the loop ends — early convergence, or an exception other
than an abort — are drained, so the communicator stays reusable (path
sweeps, streaming, serving refits).

Each family supplies only what differs: how to plan a step, its blocking
fetch, its :class:`~repro.linalg.distmatrix.GramPipeline` factory, the
vectors it posts, its inner-loop step and its checkpoint. Checkpoints
fire at the outer-step boundary that crosses each ``checkpoint_every``
multiple, never on the converging step.
"""

from __future__ import annotations

from collections import deque

from repro.errors import (
    CommAborted,
    CommTimeoutError,
    RankDiedError,
    SolverError,
)
from repro.mpi.thread_backend import NB_RING_DEPTH
from repro.solvers.base import begin_solve

__all__ = ["inflight_depth", "ring_depth", "schedule_depth", "run_outer"]


def inflight_depth(*, pipeline: bool = False, async_: bool = False, tau: int = 1) -> int:
    """Outer-step reductions in flight: 0 blocking, 1 pipelined, ``tau + 1`` async."""
    return tau + 1 if async_ else int(bool(pipeline))


def ring_depth(inflight: int) -> int:
    """Nonblocking slots for ``inflight`` reductions plus the prefetched
    next step, never fewer than the backends' default ``NB_RING_DEPTH``."""
    return max(NB_RING_DEPTH, inflight + 1)


def schedule_depth(s: int, pipeline: bool, async_: bool, tau: int) -> int:
    """Validate an SA solver's schedule knobs; return its in-flight depth."""
    if s < 1:
        raise SolverError(f"s must be >= 1, got {s}")
    if tau < 0:
        raise SolverError(f"tau must be >= 0, got {tau}")
    if async_ and pipeline:
        raise SolverError(
            "async_=True and pipeline=True are mutually exclusive: "
            "pipelining is the tau=0 special case of async_"
        )
    return inflight_depth(pipeline=pipeline, async_=async_, tau=tau)


def _crossed(every: int, prev: int, done: int, converged: bool) -> bool:
    """Did the step ``prev -> done`` cross a checkpoint cadence multiple?"""
    return bool(every) and not converged and done // every != prev // every


def _drain(inflight: deque) -> None:
    # posted but never consumed: the traffic is real (charged at
    # completion) and the slots must clear for the next solve
    while inflight:
        _, slot = inflight.popleft()
        slot.req.wait()
        slot.req = None


def run_outer(
    *, depth, s, max_iter, resume, sampler, term, history, comm, metric,
    record_every, plan, fetch, make_pipe, vectors, step, checkpoint_every,
    checkpoint,
) -> tuple[bool, int]:
    """Run an SA solve's outer steps; returns the final ``(converged, done)``.

    Starts as :func:`~repro.solvers.base.begin_solve` does from the
    checkpoint ``resume`` or a fresh iteration-0 record of ``metric()``,
    and ends with a record of the final iterate unless the cadence
    already took it. The family callbacks: ``plan(k)`` draws the next
    ``k``-iteration step as ``(plan, idx)``; ``fetch(idx)`` samples
    ``idx`` and reduces ``(Y, G, R)`` blocking; ``make_pipe(ring)``
    builds the family's ``GramPipeline``, which projects the in-place
    updated ``vectors``; ``step(plan, Y, G, R, done)`` runs the inner
    loop and returns ``(converged, done)``; ``checkpoint(done)`` emits
    one checkpoint.
    """
    done, converged = begin_solve(
        resume, metric, sampler=sampler, term=term, history=history, comm=comm
    )
    if depth and not converged and done < max_iter:
        pipe = make_pipe(ring_depth(depth))
        inflight: deque = deque()  # (plan, slot), oldest first
        planned = done  # iterations committed to posted/prefetched steps
        try:
            while len(inflight) < depth and planned < max_iter:
                k = min(s, max_iter - planned)
                p, idx = plan(k)
                slot = pipe.prefetch(idx)
                pipe.post(slot, vectors)
                inflight.append((p, slot))
                planned += k
            while inflight:
                nxt = None
                if planned < max_iter:
                    # overlapped with the reductions in flight
                    k = min(s, max_iter - planned)
                    p, idx = plan(k)
                    nxt = (p, pipe.prefetch(idx))
                    planned += k
                p, slot = inflight.popleft()
                Y, G, R = pipe.wait(slot)
                prev = done
                converged, done = step(p, Y, G, R, done)
                # this step supersedes the state carried by every
                # reduction still in flight: age them one harvest point
                for _, pending in inflight:
                    pending.req.bump_staleness()
                if _crossed(checkpoint_every, prev, done, converged):
                    checkpoint(done)
                if converged:
                    break
                if nxt is not None:
                    pipe.post(nxt[1], vectors)
                    inflight.append(nxt)
        except (CommAborted, RankDiedError, CommTimeoutError, KeyboardInterrupt):
            raise  # a dead or lost peer never completes the drain
        except BaseException:
            _drain(inflight)
            raise
        _drain(inflight)
    else:
        while done < max_iter and not converged:
            p, idx = plan(min(s, max_iter - done))
            Y, G, R = fetch(idx)
            prev = done
            converged, done = step(p, Y, G, R, done)
            if _crossed(checkpoint_every, prev, done, converged):
                checkpoint(done)
    if not record_every or history.iterations[-1:] != [done]:
        history.record(done, metric(), comm)
    return converged, done
