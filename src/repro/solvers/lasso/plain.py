"""Non-accelerated randomized (block) coordinate descent for Lasso-family
problems, and its synchronization-avoiding variant.

``bcd`` is the classical method sketched in the paper's Fig. 1: per
iteration, sample ``mu`` columns, form the mu x mu Gram block and the
block gradient with **one** Allreduce, solve the mu-dimensional prox
subproblem redundantly on every rank, update the replicated solution and
the partitioned residual.

``sa_bcd`` unrolls the residual recurrence ``s`` steps: one
``(s*mu) x (s*mu)`` Gram + projections Allreduce per ``s`` iterations,
then ``s`` local subproblem solves with Gram-block corrections. It is
SA-accBCD's recurrence (paper Alg. 2, eqs. (3)-(5)) with the identity
momentum; :mod:`repro.solvers.lasso.fused` states it once for both. With
the same seed the iterate sequence equals ``bcd``'s in exact arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint import (
    checkpoint_emitter,
    load_solver_checkpoint,
    require_int_seed,
    state_vector,
)
from repro.errors import SolverError
from repro.linalg.eig import largest_eigenvalue
from repro.mpi.comm import Comm
from repro.solvers.base import (
    FIXED_SUBPROBLEM_FLOPS,
    ConvergenceHistory,
    SolverResult,
    Terminator,
    begin_solve,
    check_finite_iterate,
)
from repro.solvers.lasso.common import (
    as_penalty,
    check_parity,
    distributed_objective,
    make_sampler,
    setup_problem,
)
from repro.solvers.lasso.fused import fused_step
from repro.solvers.outer import run_outer, schedule_depth

__all__ = ["bcd", "sa_bcd", "cd", "sa_cd"]


def _setup(A, b, penalty, comm, mu, seed, x0, max_iter, tol,
           checkpoint_every, resume_from):
    """Shared start of :func:`bcd`/:func:`sa_bcd`: the distributed
    problem, the iterate ``x`` and partitioned residual (from ``x0`` or
    the checkpoint ``resume_from``), the sampler and stopping state."""
    if checkpoint_every or resume_from is not None:
        require_int_seed(seed)
    dist, b_local = setup_problem(A, b, comm)
    pen = as_penalty(penalty)
    n = dist.shape[1]
    ck = None
    if resume_from is not None:
        ck = load_solver_checkpoint(
            resume_from, family="lasso-plain", seed=seed,
            params={"n": n, "mu": mu},
        )
        x = state_vector(ck, "x", n)
        # the partitioned residual is recomputed from the replicated
        # iterate (instrumentation-free: the uninterrupted run carried it
        # incrementally and was charged during the iterations)
        with dist.comm.ledger.paused():
            r_local = dist.matvec_local(x) - b_local
    elif x0 is None:
        x = np.zeros(n)
        r_local = -b_local.copy()
    else:
        x = np.array(x0, dtype=np.float64).ravel()
        if x.shape[0] != n:
            raise SolverError(f"x0 must have length {n}, got {x.shape[0]}")
        r_local = dist.matvec_local(x) - b_local
    return (
        dist, pen, ck, x, r_local, make_sampler(n, mu, seed, pen),
        Terminator(max_iter, tol, "objective"), ConvergenceHistory("objective"),
    )


def _checkpointer(solver, dist, mu, seed, x, term, history, sink):
    return checkpoint_emitter(
        family="lasso-plain", solver=solver, seed=seed,
        params={"n": dist.shape[1], "mu": mu}, state=lambda: {"x": x},
        term=term, history=history, comm=dist.comm, sink=sink,
    )


def _overlap_apply(idx_j: np.ndarray, idx_t: np.ndarray, delta_t: np.ndarray) -> np.ndarray:
    """``I_j^T I_t delta_t``: route past updates into the current block."""
    eq = idx_j[:, None] == idx_t[None, :]
    if not eq.any():
        return np.zeros(idx_j.shape[0])
    return eq.astype(np.float64) @ delta_t


def bcd(
    A,
    b,
    penalty,
    *,
    mu: int = 1,
    max_iter: int = 100,
    seed=0,
    comm: Comm | None = None,
    x0=None,
    tol: float | None = None,
    record_every: int = 1,
    symmetric_pack: bool = True,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
) -> SolverResult:
    """Classical randomized proximal BCD (one Allreduce per iteration).

    Parameters
    ----------
    A, b:
        Data matrix (dense / CSR / :class:`RowPartitionedMatrix`) and
        global labels.
    penalty:
        A :class:`~repro.prox.penalties.Penalty` or a bare lambda
        (L1, the paper's default).
    mu:
        Block size (``mu = 1`` is the paper's CD).
    seed:
        Shared sampling seed (or a prebuilt sampler).
    record_every:
        Record the objective every this many iterations (0: ends only).
    checkpoint_every:
        Emit a resumable checkpoint every this many iterations (0: off).
        Requires an integer ``seed`` (resume replays the sampler).
    checkpoint_sink:
        Where checkpoints go: a callable (invoked on every rank with the
        payload dict) or a path (rank 0 writes atomically).
    resume_from:
        A checkpoint payload dict or JSON path to continue from; the run
        picks up at the checkpointed iteration with the same stream.
    """
    dist, pen, ck, x, r_local, sampler, term, history = _setup(
        A, b, penalty, comm, mu, seed, x0, max_iter, tol, checkpoint_every,
        resume_from,
    )
    start, converged = begin_solve(
        ck, lambda: distributed_objective(dist, r_local, x, pen),
        sampler=sampler, term=term, history=history, comm=dist.comm,
    )
    checkpoint = _checkpointer(
        f"bcd(mu={mu})", dist, mu, seed, x, term, history, checkpoint_sink
    )

    h = start
    for h in range(start + 1, max_iter + 1):
        idx = sampler.next_block()
        S = dist.sample_columns(idx)
        G, R = dist.gram_and_project(S, [r_local], symmetric=symmetric_pack)
        v = largest_eigenvalue(G)
        dist.comm.account_flops(
            FIXED_SUBPROBLEM_FLOPS + 10.0 * float(idx.shape[0]) ** 3, "fixed"
        )
        if v > 0.0:
            eta = 1.0 / v
            g = x[idx] - eta * R[:, 0]
            x_new = pen.prox_block(g, eta, idx)
            delta = x_new - x[idx]
            x[idx] = x_new
            dist.apply_column_update(S, delta, r_local)
        if record_every and (h % record_every == 0 or h == max_iter):
            check_finite_iterate("bcd", h, x=x)
            obj = distributed_objective(dist, r_local, x, pen)
            history.record(h, obj, dist.comm)
            if term.done(obj):
                converged = True
                break
        if checkpoint_every and h % checkpoint_every == 0:
            checkpoint(h)
    if not record_every:
        history.record(h, distributed_objective(dist, r_local, x, pen), dist.comm)

    return SolverResult(
        solver=f"bcd(mu={mu})",
        x=x,
        iterations=h,
        final_metric=history.final_metric,
        history=history,
        cost=dist.comm.ledger.snapshot(),
        converged=converged,
    )


def _sa_outer_naive(
    dist, pen, Y, G, R, blocks, widths, offsets,
    x, r_local, done, max_iter, record_every, term, history, memo=None,
):
    """Reference inner loop (the ``fast=False`` escape hatch)."""
    s_eff = len(blocks)
    x_outer = x.copy()
    deltas: list[np.ndarray] = []
    for j in range(s_eff):
        sl_j = slice(offsets[j], offsets[j + 1])
        rho = R[sl_j, 0].copy()
        cur = x_outer[blocks[j]].copy()
        for t in range(j):
            sl_t = slice(offsets[t], offsets[t + 1])
            rho += G[sl_j, sl_t] @ deltas[t]
            cur += _overlap_apply(blocks[j], blocks[t], deltas[t])
        dist.comm.account_flops(
            FIXED_SUBPROBLEM_FLOPS
            + 10.0 * float(widths[j]) ** 3
            + 2.0 * widths[j] * (offsets[j] + 3),
            "fixed",
        )
        v = largest_eigenvalue(G[sl_j, sl_j])
        if v > 0.0:
            eta = 1.0 / v
            g = cur - eta * rho
            new = pen.prox_block(g, eta, blocks[j])
            delta = new - cur
        else:
            delta = np.zeros(widths[j])
        deltas.append(delta)
        # incremental replicated/local updates (so the objective is
        # observable at every inner iteration, like Alg. 2 lines 19-22)
        x[blocks[j]] += delta
        if np.any(delta):
            Sj = Y[:, sl_j]
            dist.apply_column_update(Sj, delta, r_local)
        it = done + j + 1
        if record_every and (it % record_every == 0 or it == max_iter):
            check_finite_iterate("sa-bcd", it, x=x)
            obj = distributed_objective(dist, r_local, x, pen)
            history.record(it, obj, dist.comm)
            if term.done(obj):
                # finish the remaining local iterations of this outer
                # step? No communication is saved by stopping early,
                # but matching bcd's stopping point matters more.
                return True, it
    return False, done + s_eff


class _IdentityMomentum:
    """SA-BCD's momentum for the fused loops: none. The loops' ``z`` is
    the iterate ``x`` and ``ztil`` the residual ``r`` (see
    :mod:`repro.solvers.lasso.fused`)."""

    #: vector terms in the modelled per-iteration flops 2 mu (off + k)
    flop_terms = 3
    y = ytil = None

    def __init__(self, dist, pen, x, r_local):
        self.dist, self.pen, self.z, self.ztil = dist, pen, x, r_local

    def tables(self, R, widths):
        k = len(widths)
        return (R[:, 0].copy(), np.ones(k), np.ones(k), np.zeros(k),
                np.full((k, k), -1.0))

    def metric_at(self, it, j):
        check_finite_iterate("sa-bcd", it, x=self.z)
        return distributed_objective(self.dist, self.ztil, self.z, self.pen)

    def advance(self, j):
        pass


def _sa_io(dist, sampler, vectors, symmetric):
    """The Lasso families' ``plan``/``fetch``/``make_pipe`` callbacks for
    :func:`~repro.solvers.outer.run_outer`. ``plan`` samples one outer
    step's blocks as ``(blocks, widths, offsets)``; ``fetch`` reduces
    their Gram ``Y^T Y`` and projections ``Y^T [vectors]`` in one
    blocking message (Alg. 2 lines 11-12); ``make_pipe`` builds the
    nonblocking pipeline that does the same."""

    def plan(k):
        blocks = [sampler.next_block() for _ in range(k)]
        widths = [int(blk.shape[0]) for blk in blocks]
        offsets = np.concatenate([[0], np.cumsum(widths)])
        return (blocks, widths, offsets), np.concatenate(blocks)

    def fetch(idx):
        Y = dist.sample_columns(idx)
        G, R = dist.gram_and_project(Y, vectors, symmetric=symmetric)
        return Y, G, R

    def make_pipe(ring):
        return dist.gram_pipeline(
            extra_cols=len(vectors), symmetric=symmetric, depth=ring
        )

    return plan, fetch, make_pipe


def sa_bcd(
    A,
    b,
    penalty,
    *,
    mu: int = 1,
    s: int = 8,
    max_iter: int = 100,
    seed=0,
    comm: Comm | None = None,
    x0=None,
    tol: float | None = None,
    record_every: int = 1,
    symmetric_pack: bool = True,
    fast: bool = True,
    parity: str = "exact",
    pipeline: bool = False,
    async_: bool = False,
    tau: int = 1,
    eig_memo=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
) -> SolverResult:
    """Synchronization-avoiding BCD: one Allreduce per ``s`` iterations.

    Same iterate sequence as :func:`bcd` for equal seeds (exact
    arithmetic); trades a factor-``s`` larger Gram/message for an
    ``s``-fold latency reduction (paper Table I). ``fast`` selects the
    fused inner loop over the ``fast=False`` reference; ``parity`` picks
    its contract, bit-identical (``"exact"``) or <= 1e-9 relative drift
    (``"fp-tolerant"``; see :mod:`repro.solvers.lasso.fused`).

    ``pipeline``/``async_``/``tau`` pick the outer-step schedule (blocking,
    pipelined, or bounded-staleness async; see :mod:`repro.solvers.outer`).
    What an async step sees stale is the residual ``r`` it was posted
    with. ``eig_memo`` supplies a private eigenvalue memo for the fused
    loops (default: the shared process-wide memo).

    ``checkpoint_every``/``checkpoint_sink``/``resume_from`` follow
    :func:`bcd`; SA runs checkpoint at the outer-step boundary that
    crosses each cadence multiple, and a checkpoint written by either
    solver resumes under the other (the sampler stream is per-draw).
    """
    depth = schedule_depth(s, pipeline, async_, tau)
    check_parity(parity)
    dist, pen, ck, x, r_local, sampler, term, history = _setup(
        A, b, penalty, comm, mu, seed, x0, max_iter, tol, checkpoint_every,
        resume_from,
    )

    def naive(p, Y, G, R, done):
        return _sa_outer_naive(
            dist, pen, Y, G, R, *p,
            x, r_local, done, max_iter, record_every, term, history,
        )

    step = fused_step(
        dist, pen, _IdentityMomentum(dist, pen, x, r_local), parity=parity,
        max_iter=max_iter, record_every=record_every, term=term,
        history=history, memo=eig_memo,
    ) if fast else naive
    vectors = [r_local]
    plan, fetch, make_pipe = _sa_io(dist, sampler, vectors, symmetric_pack)

    converged, done = run_outer(
        depth=depth, s=s, max_iter=max_iter, resume=ck, sampler=sampler,
        term=term, history=history, comm=dist.comm,
        metric=lambda: distributed_objective(dist, r_local, x, pen),
        record_every=record_every, plan=plan, fetch=fetch,
        make_pipe=make_pipe, vectors=vectors, step=step,
        checkpoint_every=checkpoint_every,
        checkpoint=_checkpointer(
            f"sa-bcd(mu={mu}, s={s})", dist, mu, seed, x, term, history,
            checkpoint_sink,
        ),
    )
    return SolverResult(
        solver=f"sa-bcd(mu={mu}, s={s})",
        x=x,
        iterations=done,
        final_metric=history.final_metric,
        history=history,
        cost=dist.comm.ledger.snapshot(),
        converged=converged,
    )


def cd(A, b, penalty, **kwargs) -> SolverResult:
    """Single-coordinate CD: :func:`bcd` with ``mu = 1``."""
    kwargs["mu"] = 1
    res = bcd(A, b, penalty, **kwargs)
    res.solver = "cd"
    return res


def sa_cd(A, b, penalty, **kwargs) -> SolverResult:
    """Single-coordinate SA-CD: :func:`sa_bcd` with ``mu = 1``."""
    kwargs["mu"] = 1
    res = sa_bcd(A, b, penalty, **kwargs)
    res.solver = res.solver.replace("sa-bcd(mu=1", "sa-cd(")
    return res
