"""Accelerated BCD (paper Alg. 1) and SA-accBCD (paper Alg. 2) for
Lasso-family problems.

Nesterov acceleration follows Fercoq-Richtarik's APPROX scheme: the
solution is carried implicitly as ``x_h = theta^2 y_h + z_h`` with two
auxiliary primal vectors (replicated) and their images under ``A``
(partitioned): ``ytil = A y`` and ``ztil = A z - b``.

Note on the theta index: the paper's Alg. 1 line 19 outputs
``theta_H^2 y_H + z_H`` with theta already advanced at line 18; Fercoq-
Richtarik define the iterate with the theta *used during* the iteration
(``theta_{h-1}``). The two coincide in the limit; we follow Fercoq-
Richtarik (``theta_{h-1}``) because it preserves the invariant
``x_0 = z_0`` at initialisation (``y_0 = 0``).

SA-accBCD re-arranges the recurrences exactly as eqs. (3)-(5); one
packed Allreduce per outer step carries ``G = Y^T Y`` and
``Y^T [ytil, ztil]`` (Alg. 2 lines 11-12). The recurrence, the fused
inner loops and the parity modes are shared with SA-BCD and described
once in :mod:`repro.solvers.lasso.fused`; this module supplies the theta
momentum they run with.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint import (
    checkpoint_emitter,
    load_solver_checkpoint,
    require_int_seed,
    state_scalar,
    state_vector,
)
from repro.errors import SolverError
from repro.linalg.eig import largest_eigenvalue
from repro.linalg.kernels import acc_coef_tables
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
    momentum_coef,
    setup_problem,
    theta_next,
    theta_schedule,
)
from repro.solvers.lasso.fused import fused_step
from repro.solvers.lasso.plain import _overlap_apply, _sa_io
from repro.solvers.outer import run_outer, schedule_depth
from repro.utils.validation import nnz_of

__all__ = ["acc_bcd", "sa_acc_bcd", "acc_cd", "sa_acc_cd"]


def _setup(A, b, penalty, comm, mu, seed, x0, checkpoint_every, resume_from):
    """Shared start of :func:`acc_bcd`/:func:`sa_acc_bcd`: the distributed
    problem, the ``y``/``z`` pair with their images ``ytil``/``ztil`` and
    the momentum scalars ``theta``/``theta_used``, from ``x0`` (``y0 = 0``,
    ``z0 = x0``, so ``x_0 = z_0`` regardless of theta_0) or from the
    checkpoint ``resume_from``."""
    if checkpoint_every or resume_from is not None:
        require_int_seed(seed)
    dist, b_local = setup_problem(A, b, comm)
    pen = as_penalty(penalty)
    n = dist.shape[1]
    ck = None
    if resume_from is not None:
        ck = load_solver_checkpoint(
            resume_from, family="lasso-acc", seed=seed,
            params={"n": n, "mu": mu},
        )
        y = state_vector(ck, "y", n)
        z = state_vector(ck, "z", n)
        with dist.comm.ledger.paused():
            ytil = dist.matvec_local(y)
            ztil = dist.matvec_local(z) - b_local
        theta = state_scalar(ck, "theta")
        theta_used = state_scalar(ck, "theta_used")
        return dist, pen, ck, y, z, ytil, ztil, theta, theta_used
    if x0 is None:
        z = np.zeros(n)
        ztil = -b_local.copy()
    else:
        z = np.array(x0, dtype=np.float64).ravel()
        if z.shape[0] != n:
            raise SolverError(f"x0 must have length {n}, got {z.shape[0]}")
        ztil = dist.matvec_local(z) - b_local
    y = np.zeros(n)
    ytil = np.zeros_like(b_local)
    return dist, pen, ck, y, z, ytil, ztil, mu / n, mu / n


def _checkpointer(solver, dist, mu, seed, term, history, sink, state):
    return checkpoint_emitter(
        family="lasso-acc", solver=solver, seed=seed,
        params={"n": dist.shape[1], "mu": mu}, state=state,
        term=term, history=history, comm=dist.comm, sink=sink,
    )


def _acc_objective(dist, theta, y, z, ytil, ztil, pen):
    """Objective at the implicit iterate x = theta^2 y + z."""
    t2 = theta * theta
    x = t2 * y + z
    r_local = t2 * ytil + ztil
    return distributed_objective(dist, r_local, x, pen)


def acc_bcd(
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
    """Accelerated BCD for Lasso (paper Algorithm 1).

    One Allreduce per iteration carries the mu x mu Gram block and the
    block gradient ``r_h = A_h^T (theta^2 ytil + ztil)``.

    ``checkpoint_every``/``checkpoint_sink``/``resume_from`` follow
    :func:`repro.solvers.lasso.plain.bcd`; accelerated checkpoints carry
    the (replicated) ``y``/``z`` pair plus the momentum scalar ``theta``,
    and their images ``ytil``/``ztil`` are recomputed on resume.
    """
    dist, pen, ck, y, z, ytil, ztil, theta, theta_used = _setup(
        A, b, penalty, comm, mu, seed, x0, checkpoint_every, resume_from
    )
    n = dist.shape[1]
    sampler = make_sampler(n, mu, seed, pen)
    q = float(int(np.ceil(n / mu)))
    term = Terminator(max_iter, tol, "objective")
    history = ConvergenceHistory("objective")
    start, converged = begin_solve(
        ck, lambda: _acc_objective(dist, theta, y, z, ytil, ztil, pen),
        sampler=sampler, term=term, history=history, comm=dist.comm,
    )
    checkpoint = _checkpointer(
        f"accbcd(mu={mu})", dist, mu, seed, term, history, checkpoint_sink,
        lambda: {"y": y, "z": z, "theta": theta, "theta_used": theta_used},
    )

    h = start
    for h in range(start + 1, max_iter + 1):
        idx = sampler.next_block()
        S = dist.sample_columns(idx)
        theta_used = theta
        t2 = theta * theta
        w_local = t2 * ytil + ztil
        # streaming combine over the local m-vector shard (memory bound)
        dist.comm.account_flops(2.0 * w_local.shape[0], "gather")
        G, R = dist.gram_and_project(S, [w_local], symmetric=symmetric_pack)
        v = largest_eigenvalue(G)
        dist.comm.account_flops(
            FIXED_SUBPROBLEM_FLOPS + 10.0 * float(idx.shape[0]) ** 3, "fixed"
        )
        if v > 0.0:
            eta = 1.0 / (q * theta * v)
            g = z[idx] - eta * R[:, 0]
            z_new = pen.prox_block(g, eta, idx)
            dz = z_new - z[idx]
            coef = momentum_coef(theta, q)
            z[idx] = z_new
            y[idx] -= coef * dz
            Sdz = np.asarray(S @ dz).ravel()
            dist.comm.account_flops(2.0 * nnz_of(S), "blas1")
            dist.comm.account_flops(3.0 * Sdz.shape[0], "gather")
            ztil += Sdz
            ytil -= coef * Sdz
        theta_new = theta_next(theta)
        if record_every and (h % record_every == 0 or h == max_iter):
            check_finite_iterate("accbcd", h, y=y, z=z)
            obj = _acc_objective(dist, theta, y, z, ytil, ztil, pen)
            history.record(h, obj, dist.comm)
            if term.done(obj):
                theta = theta_new
                converged = True
                break
        theta = theta_new
        if checkpoint_every and h % checkpoint_every == 0:
            checkpoint(h)
    if not record_every:
        history.record(
            h, _acc_objective(dist, theta_used, y, z, ytil, ztil, pen), dist.comm
        )

    t2 = theta_used * theta_used
    x = t2 * y + z
    return SolverResult(
        solver=f"accbcd(mu={mu})",
        x=x,
        iterations=h,
        final_metric=history.final_metric,
        history=history,
        cost=dist.comm.ledger.snapshot(),
        converged=converged,
        extras={"theta": theta_used},
    )


def _sa_acc_outer_naive(
    dist, pen, Y, G, R, blocks, widths, offsets, thetas, q,
    y, z, ytil, ztil, done, max_iter, record_every, term, history, memo=None,
):
    """Reference inner loop: eqs. (3)-(5) exactly as written.

    Kept as the ``fast=False`` escape hatch and as the ground truth for
    the bit-identical parity tests.
    """
    s_eff = len(blocks)
    z_outer = z.copy()
    deltas: list[np.ndarray] = []
    theta_used = thetas[0]
    for j in range(s_eff):
        sl_j = slice(offsets[j], offsets[j + 1])
        th_prev = thetas[j]
        theta_used = th_prev
        t2 = th_prev * th_prev
        # eq. (3): start from the projected history vectors
        r = t2 * R[sl_j, 0] + R[sl_j, 1]
        cur = z_outer[blocks[j]].copy()
        for t in range(j):
            sl_t = slice(offsets[t], offsets[t + 1])
            c_jt = t2 * (1.0 - q * thetas[t]) / (thetas[t] * thetas[t]) - 1.0
            r -= c_jt * (G[sl_j, sl_t] @ deltas[t])
            cur += _overlap_apply(blocks[j], blocks[t], deltas[t])
        dist.comm.account_flops(
            FIXED_SUBPROBLEM_FLOPS
            + 10.0 * float(widths[j]) ** 3
            + 2.0 * widths[j] * (offsets[j] + 4),
            "fixed",
        )
        v = largest_eigenvalue(G[sl_j, sl_j])
        if v > 0.0:
            eta = 1.0 / (q * th_prev * v)
            g = cur - eta * r  # eq. (4)
            new = pen.prox_block(g, eta, blocks[j])
            dz = new - cur  # eq. (5)
        else:
            dz = np.zeros(widths[j])
        deltas.append(dz)
        coef = momentum_coef(th_prev, q)
        # incremental updates (Alg. 2 lines 19-22); all local/replicated
        z[blocks[j]] += dz
        y[blocks[j]] -= coef * dz
        if np.any(dz):
            Sj = Y[:, sl_j]
            Sdz = np.asarray(Sj @ dz).ravel()
            dist.comm.account_flops(2.0 * nnz_of(Sj), "blas1")
            dist.comm.account_flops(3.0 * Sdz.shape[0], "gather")
            ztil += Sdz
            ytil -= coef * Sdz
        it = done + j + 1
        if record_every and (it % record_every == 0 or it == max_iter):
            check_finite_iterate("sa-accbcd", it, y=y, z=z)
            obj = _acc_objective(dist, th_prev, y, z, ytil, ztil, pen)
            history.record(it, obj, dist.comm)
            if term.done(obj):
                return True, it, thetas[j + 1], th_prev
    return False, done + s_eff, thetas[s_eff], theta_used


class _ThetaMomentum:
    """SA-accBCD's theta momentum for the fused loops (see
    :mod:`repro.solvers.lasso.fused`): the ``y``/``z`` pair, their images
    ``ytil``/``ztil`` and the ``theta``/``theta_used`` bookkeeping."""

    #: vector terms in the modelled per-iteration flops 2 mu (off + k)
    flop_terms = 4

    def __init__(self, dist, pen, q, y, z, ytil, ztil, theta, theta_used):
        self.dist, self.pen, self.q = dist, pen, q
        self.y, self.z, self.ytil, self.ztil = y, z, ytil, ztil
        self.theta, self.theta_used = theta, theta_used
        self.thetas = None

    def tables(self, R, widths):
        # the whole outer step's thetas depend only on theta_sk (Alg. 2
        # line 9), known fresh at harvest
        self.thetas = theta_schedule(self.theta, len(widths))
        t2, qth, coefs, C = acc_coef_tables(self.thetas[:-1], self.q)
        return np.repeat(t2, widths) * R[:, 0] + R[:, 1], t2, qth, coefs, C

    def metric_at(self, it, j):
        check_finite_iterate("sa-accbcd", it, y=self.y, z=self.z)
        return self.objective(self.thetas[j])

    def objective(self, theta):
        return _acc_objective(
            self.dist, theta, self.y, self.z, self.ytil, self.ztil, self.pen
        )

    def advance(self, j):
        self.theta_used, self.theta = self.thetas[j], self.thetas[j + 1]


def sa_acc_bcd(
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
    """Synchronization-avoiding accelerated BCD (paper Algorithm 2).

    One packed Allreduce per ``s`` iterations; identical iterate sequence
    to :func:`acc_bcd` in exact arithmetic for equal seeds.

    ``fast``/``parity`` select the inner loop as in
    :func:`~repro.solvers.lasso.plain.sa_bcd`; ``parity`` has no effect
    with ``fast=False``.

    ``pipeline``/``async_``/``tau`` pick the outer-step schedule (see
    :mod:`repro.solvers.outer`). What an async step sees stale is the
    ``Y^T [ytil, ztil]`` projections it was posted with; the momentum
    schedule ``thetas`` is still computed fresh at harvest. ``eig_memo``
    supplies a private eigenvalue memo for the fused loops (default: the
    shared process-wide memo).
    """
    depth = schedule_depth(s, pipeline, async_, tau)
    check_parity(parity)
    dist, pen, ck, y, z, ytil, ztil, theta, theta_used = _setup(
        A, b, penalty, comm, mu, seed, x0, checkpoint_every, resume_from
    )
    n = dist.shape[1]
    sampler = make_sampler(n, mu, seed, pen)
    q = float(int(np.ceil(n / mu)))
    term = Terminator(max_iter, tol, "objective")
    history = ConvergenceHistory("objective")
    mom = _ThetaMomentum(dist, pen, q, y, z, ytil, ztil, theta, theta_used)

    def naive(p, Y, G, R, done):
        thetas = theta_schedule(mom.theta, len(p[0]))
        converged, done, mom.theta, mom.theta_used = _sa_acc_outer_naive(
            dist, pen, Y, G, R, *p, thetas, q,
            y, z, ytil, ztil, done, max_iter, record_every, term, history,
        )
        return converged, done

    step = fused_step(
        dist, pen, mom, parity=parity, max_iter=max_iter,
        record_every=record_every, term=term, history=history, memo=eig_memo,
    ) if fast else naive
    vectors = [ytil, ztil]
    plan, fetch, make_pipe = _sa_io(dist, sampler, vectors, symmetric_pack)
    converged, done = run_outer(
        depth=depth, s=s, max_iter=max_iter, resume=ck, sampler=sampler,
        term=term, history=history, comm=dist.comm,
        metric=lambda: mom.objective(mom.theta_used),
        record_every=record_every, plan=plan, fetch=fetch,
        make_pipe=make_pipe, vectors=vectors, step=step,
        checkpoint_every=checkpoint_every,
        checkpoint=_checkpointer(
            f"sa-accbcd(mu={mu}, s={s})", dist, mu, seed, term, history,
            checkpoint_sink,
            lambda: {"y": y, "z": z, "theta": mom.theta,
                     "theta_used": mom.theta_used},
        ),
    )

    theta_used = mom.theta_used
    t2 = theta_used * theta_used
    x = t2 * y + z
    return SolverResult(
        solver=f"sa-accbcd(mu={mu}, s={s})",
        x=x,
        iterations=done,
        final_metric=history.final_metric,
        history=history,
        cost=dist.comm.ledger.snapshot(),
        converged=converged,
        extras={"theta": theta_used},
    )


def acc_cd(A, b, penalty, **kwargs) -> SolverResult:
    """Accelerated single-coordinate CD (``mu = 1``)."""
    kwargs["mu"] = 1
    res = acc_bcd(A, b, penalty, **kwargs)
    res.solver = "acccd"
    return res


def sa_acc_cd(A, b, penalty, **kwargs) -> SolverResult:
    """SA accelerated single-coordinate CD (``mu = 1``)."""
    kwargs["mu"] = 1
    res = sa_acc_bcd(A, b, penalty, **kwargs)
    res.solver = res.solver.replace("sa-accbcd(mu=1, ", "sa-acccd(")
    return res
