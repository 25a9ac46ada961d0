"""Non-accelerated randomized (block) coordinate descent for Lasso-family
problems, and its synchronization-avoiding variant.

``bcd`` is the classical method sketched in the paper's Fig. 1: per
iteration, sample ``mu`` columns, form the mu x mu Gram block and the
block gradient with **one** Allreduce, solve the mu-dimensional prox
subproblem redundantly on every rank, update the replicated solution and
the partitioned residual.

``sa_bcd`` unrolls the residual recurrence ``s`` steps (the same
re-arrangement as paper Alg. 2, minus the momentum terms): one
``(s*mu) x (s*mu)`` Gram + projections Allreduce per ``s`` iterations,
then ``s`` local subproblem solves with Gram-block corrections

    rho_j = S_j^T r_sk + sum_{t<j} G_{j,t} dz_t                  (cf. eq. 3)
    g_j   = cur_j - eta_j rho_j                                  (cf. eq. 4)
    dz_j  = prox_{eta_j g}(g_j) - cur_j                          (cf. eq. 5)

where ``cur_j = x_sk[I_j] + sum_{t<j} I_j^T I_t dz_t`` applies overlaps
between sampled blocks. With the same seed the iterate sequence equals
``bcd``'s in exact arithmetic.
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
from repro.linalg.kernels import (
    csc_range_matvec,
    largest_eigenvalue_cached,
    sparse_columns,
)
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


def _sa_outer_fast(
    dist, pen, Y, G, R, blocks, widths, offsets,
    x, r_local, done, max_iter, record_every, term, history, memo=None,
):
    """Fused inner loop: bit-identical to :func:`_sa_outer_naive`.

    Same fusion strategy as SA-accBCD minus the momentum tables: ``cur``
    reads the incrementally-updated ``x``, eigensolves are memoised, and
    ``mu = 1`` runs on scalars with sparse column scatters.
    """
    s_eff = len(blocks)
    account = dist.comm.account_flops
    if max(widths) == 1:
        return _sa_inner_scalar(
            dist, pen, Y, G, R, blocks, offsets,
            x, r_local, done, max_iter, record_every, term, history,
        )
    deltas: list[np.ndarray] = []
    nonzero: list[bool] = []
    for j in range(s_eff):
        sl_j = slice(offsets[j], offsets[j + 1])
        rho = R[sl_j, 0].copy()
        for t in range(j):
            if nonzero[t]:
                sl_t = slice(offsets[t], offsets[t + 1])
                rho += G[sl_j, sl_t] @ deltas[t]
        account(
            FIXED_SUBPROBLEM_FLOPS
            + 10.0 * float(widths[j]) ** 3
            + 2.0 * widths[j] * (offsets[j] + 3),
            "fixed",
        )
        v = largest_eigenvalue_cached(G[sl_j, sl_j], memo)
        if v > 0.0:
            eta = 1.0 / v
            cur = x[blocks[j]].copy()
            g = cur - eta * rho
            new = pen.prox_block(g, eta, blocks[j])
            delta = new - cur
        else:
            delta = np.zeros(widths[j])
        nz = bool(np.any(delta))
        deltas.append(delta)
        nonzero.append(nz)
        x[blocks[j]] += delta
        if nz:
            Sj = Y[:, sl_j]
            dist.apply_column_update(Sj, delta, r_local)
        it = done + j + 1
        if record_every and (it % record_every == 0 or it == max_iter):
            check_finite_iterate("sa-bcd", it, x=x)
            obj = distributed_objective(dist, r_local, x, pen)
            history.record(it, obj, dist.comm)
            if term.done(obj):
                return True, it
    return False, done + s_eff


def _sa_outer_fp(
    dist, pen, Y, G, R, blocks, widths, offsets,
    x, r_local, done, max_iter, record_every, term, history, memo=None,
):
    """fp-tolerant fused inner loop: one prefix Gram GEMV per iteration.

    The correction sum ``sum_{t<j} G_{j,t} dz_t`` is applied as a single
    ``G[sl_j, :off] @ dz_all[:off]`` against the stacked update history,
    and residual updates scatter the block's CSC range directly
    (bincount accumulation) — BLAS/bincount re-associate the reductions
    (<= 1e-9 relative drift); the modelled flops charged are identical
    to the exact loop.
    """
    s_eff = len(blocks)
    account = dist.comm.account_flops
    if max(widths) == 1:
        # the scalar loop is already GEMV-free; both parity modes share it
        return _sa_inner_scalar(
            dist, pen, Y, G, R, blocks, offsets,
            x, r_local, done, max_iter, record_every, term, history,
        )
    dz_all = np.zeros(int(offsets[-1]))
    any_nz = False
    m_loc = r_local.shape[0]
    Ycsc = sparse_columns(Y)
    if Ycsc is not None:
        Yp, Yi, Yd = Ycsc.indptr, Ycsc.indices, Ycsc.data
    for j in range(s_eff):
        sl_j = slice(offsets[j], offsets[j + 1])
        rho = R[sl_j, 0].copy()
        off = offsets[j]
        if off and any_nz:
            rho += G[sl_j, :off] @ dz_all[:off]
        account(
            FIXED_SUBPROBLEM_FLOPS
            + 10.0 * float(widths[j]) ** 3
            + 2.0 * widths[j] * (offsets[j] + 3),
            "fixed",
        )
        v = largest_eigenvalue_cached(G[sl_j, sl_j], memo)
        if v > 0.0:
            eta = 1.0 / v
            cur = x[blocks[j]].copy()
            g = cur - eta * rho
            new = pen.prox_block(g, eta, blocks[j])
            delta = new - cur
        else:
            delta = np.zeros(widths[j])
        nz = bool(np.any(delta))
        any_nz = any_nz or nz
        dz_all[sl_j] = delta
        x[blocks[j]] += delta
        if nz:
            if Ycsc is not None:
                upd, nnz_blk = csc_range_matvec(
                    Yp, Yi, Yd, offsets[j], offsets[j + 1], delta, m_loc
                )
                account(2.0 * nnz_blk, "blas1")
                if upd is not None:
                    r_local += upd
            else:
                dist.apply_column_update(Y[:, sl_j], delta, r_local)
        it = done + j + 1
        if record_every and (it % record_every == 0 or it == max_iter):
            check_finite_iterate("sa-bcd", it, x=x)
            obj = distributed_objective(dist, r_local, x, pen)
            history.record(it, obj, dist.comm)
            if term.done(obj):
                return True, it
    return False, done + s_eff


def _sa_inner_scalar(
    dist, pen, Y, G, R, blocks, offsets,
    x, r_local, done, max_iter, record_every, term, history,
):
    """mu = 1 fused loop: pure-scalar recurrence + sparse column scatter.

    Mirrors :func:`repro.solvers.lasso.acc._sa_acc_inner_scalar` minus
    the momentum tables.
    """
    s_eff = len(blocks)
    Gl = G.tolist()
    R0 = R[:, 0].tolist()
    cols = [int(b[0]) for b in blocks]
    dvals = [0.0] * s_eff
    Ycsc = sparse_columns(Y)
    if Ycsc is not None:
        Yp, Yi, Yd = Ycsc.indptr, Ycsc.indices, Ycsc.data
    m_loc = r_local.shape[0]
    account = dist.comm.account_flops
    fixed = FIXED_SUBPROBLEM_FLOPS + 10.0
    for j in range(s_eff):
        rho = R0[j]
        Grow = Gl[j]
        for t in range(j):
            d = dvals[t]
            if d != 0.0:
                rho += Grow[t] * d
        account(fixed + 2.0 * (offsets[j] + 3), "fixed")
        i = cols[j]
        v = Grow[j]
        if v > 0.0:
            eta = 1.0 / v
            cur = x[i]
            g = cur - eta * rho
            new = pen.prox_block(np.array([g]), eta, blocks[j])
            delta = new[0] - cur
        else:
            delta = 0.0
        dvals[j] = delta
        x[i] += delta
        if delta != 0.0:
            if Ycsc is not None:
                lo, hi = Yp[j], Yp[j + 1]
                r_local[Yi[lo:hi]] += Yd[lo:hi] * delta
                account(2.0 * (hi - lo), "blas1")
            else:
                r_local += Y[:, j] * delta
                account(2.0 * m_loc, "blas1")
        it = done + j + 1
        if record_every and (it % record_every == 0 or it == max_iter):
            check_finite_iterate("sa-bcd", it, x=x)
            obj = distributed_objective(dist, r_local, x, pen)
            history.record(it, obj, dist.comm)
            if term.done(obj):
                return True, it
    return False, done + s_eff


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
    fused inner loop; with ``parity="exact"`` (default) its iterates are
    bit-identical to the ``fast=False`` reference recurrences, while
    ``parity="fp-tolerant"`` fuses the ``mu > 1`` correction GEMVs into
    one prefix Gram apply per inner iteration (BLAS re-association,
    <= 1e-9 relative iterate drift).

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
    if not fast:
        inner = _sa_outer_naive
    elif parity == "fp-tolerant":
        inner = _sa_outer_fp
    else:
        inner = _sa_outer_fast

    vectors = [r_local]
    plan, fetch, make_pipe = _sa_io(dist, sampler, vectors, symmetric_pack)

    def step(p, Y, G, R, done):
        return inner(
            dist, pen, Y, G, R, *p,
            x, r_local, done, max_iter, record_every, term, history,
            memo=eig_memo,
        )

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
