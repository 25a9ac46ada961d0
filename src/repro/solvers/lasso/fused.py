"""The fused SA inner loops shared by SA-BCD and SA-accBCD.

Both Lasso SA solvers run one recurrence, the s-step re-arrangement of
paper eqs. (3)-(5). After one packed Allreduce of the sampled columns'
Gram ``G = Y^T Y`` and projections ``R = Y^T [vectors]`` (Alg. 2 lines
11-12), inner iteration ``j`` of the outer step computes

    r_j  = base_j - sum_{t<j} C[j, t] G_{j,t} dz_t                (eq. 3)
    g_j  = cur_j - eta_j r_j,    eta_j = 1 / (qth_j v_j)          (eq. 4)
    dz_j = prox_{eta_j g}(g_j) - cur_j                            (eq. 5)

where ``v_j`` is the largest eigenvalue of the diagonal Gram block and
``cur_j = z_sk[I_j] + sum_{t<j} I_j^T I_t dz_t`` applies overlaps between
sampled blocks. A *momentum* object supplies what differs between the
two families, as per-outer-step tables built once before the ``j`` loop:

* **identity momentum** (SA-BCD, :mod:`repro.solvers.lasso.plain`):
  ``z`` is the iterate ``x`` and ``ztil`` its residual ``A x - b``;
  ``base = Y^T r``, ``qth = 1``, ``C = -1``, and there is no ``y``.
* **theta momentum** (SA-accBCD, :mod:`repro.solvers.lasso.acc`):
  Fercoq-Richtarik's ``x = theta^2 y + z`` with ``ytil = A y`` and
  ``ztil = A z - b``; ``base = th^2 Y^T ytil + Y^T ztil``,
  ``qth = q th`` and ``C[j, t] = th_j^2 m_t - 1`` with the y-momentum
  coefficient ``m_t = (1 - q th_t)/th_t^2``
  (:func:`repro.linalg.kernels.acc_coef_tables`); each step also moves
  ``y -= m_j dz_j`` and ``ytil -= m_j Y_j dz_j``.

With identity tables every operation reduces bit for bit to SA-BCD's
own: ``r - (-1.0) * u`` is ``r + u`` and ``1.0 / (1.0 * v)`` is
``1.0 / v`` in IEEE arithmetic.

The fused loops (``fast=True``) remove overhead, never arithmetic:
``cur_j`` reads the incrementally updated ``z`` (same additions, same
order), the block eigensolve is memoised on the Gram block's bytes, and
at ``mu = 1`` the whole recurrence runs on Python scalars with sparse
column-scatter residual updates. With ``parity="exact"`` the iterates
are bit-identical to each family's ``fast=False`` reference loop
(``tests/test_fast_parity.py``). ``parity="fp-tolerant"`` also collapses
the ``mu > 1`` correction sum into one prefix apply of the preassembled
Gram against the stacked update history ``U = [m .* dz, dz]``,

    sum_t C[j, t] G_{j,t} dz_t = th_j^2 G[j, :off] U[:, 0] - G[j, :off] U[:, 1],

one (mu x off) @ (off x 2) GEMM instead of ``j`` sliced GEMVs, and
scatters residual updates straight from the CSC arrays. BLAS and
bincount re-associate those sums, which moves iterates at the rounding
level (<= 1e-9 relative drift). Both modes charge the ledger the same
modelled work, and both use the scalar loop at ``mu = 1``.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.kernels import (
    csc_range_matvec,
    largest_eigenvalue_cached,
    sparse_columns,
)
from repro.solvers.base import FIXED_SUBPROBLEM_FLOPS
from repro.utils.validation import nnz_of

__all__ = ["fused_step"]


def fused_step(dist, pen, mom, *, parity, max_iter, record_every, term,
               history, memo=None):
    """The ``step(plan, Y, G, R, done)`` callback of the fused loops for
    :func:`~repro.solvers.outer.run_outer`: builds ``mom``'s tables for
    the outer step, then runs the scalar loop at ``mu = 1`` and the
    exact or fp-tolerant block loop otherwise."""

    def step(p, Y, G, R, done):
        blocks, widths, offsets = p
        args = (dist, pen, mom, Y, G, R, blocks, widths, offsets,
                mom.tables(R, widths), done, max_iter, record_every, term,
                history, memo)
        if max(widths) == 1:
            return _fused_scalar(*args)
        if parity == "fp-tolerant":
            return _fused_fp(*args)
        return _fused_exact(*args)

    return step


def _fixed_flops(width, offset, terms):
    return (FIXED_SUBPROBLEM_FLOPS + 10.0 * float(width) ** 3
            + 2.0 * width * (offset + terms))


def _fused_exact(
    dist, pen, mom, Y, G, R, blocks, widths, offsets, tables,
    done, max_iter, record_every, term, history, memo,
):
    """``mu > 1``, bit-identical to the reference loops."""
    base, _, qth, coefs, C = tables
    z, ztil, y, ytil = mom.z, mom.ztil, mom.y, mom.ytil
    account = dist.comm.account_flops
    flop_terms = mom.flop_terms
    m_loc = ztil.shape[0]
    deltas: list[np.ndarray] = []
    nonzero: list[bool] = []
    for j in range(len(blocks)):
        sl_j = slice(offsets[j], offsets[j + 1])
        r = base[sl_j]
        for t in range(j):
            if nonzero[t]:
                sl_t = slice(offsets[t], offsets[t + 1])
                r -= C[j, t] * (G[sl_j, sl_t] @ deltas[t])
        account(_fixed_flops(widths[j], offsets[j], flop_terms), "fixed")
        v = largest_eigenvalue_cached(G[sl_j, sl_j], memo)
        if v > 0.0:
            eta = 1.0 / (qth[j] * v)
            cur = z[blocks[j]]
            g = cur - eta * r
            dz = pen.prox_block(g, eta, blocks[j]) - cur
        else:
            dz = np.zeros(widths[j])
        nz = bool(np.any(dz))
        deltas.append(dz)
        nonzero.append(nz)
        z[blocks[j]] += dz
        if y is not None:
            y[blocks[j]] -= coefs[j] * dz
        if nz:
            Sj = Y[:, sl_j]
            Sdz = np.asarray(Sj @ dz).ravel()
            account(2.0 * nnz_of(Sj), "blas1")
            ztil += Sdz
            if y is not None:
                account(3.0 * m_loc, "gather")
                ytil -= coefs[j] * Sdz
        it = done + j + 1
        if record_every and (it % record_every == 0 or it == max_iter) \
                and _stops(mom, j, it, term, history, dist.comm):
            return True, it
    mom.advance(len(blocks) - 1)
    return False, done + len(blocks)


def _fused_fp(
    dist, pen, mom, Y, G, R, blocks, widths, offsets, tables,
    done, max_iter, record_every, term, history, memo,
):
    """``mu > 1``, one prefix Gram GEMM per iteration (fp-tolerant)."""
    base, t2, qth, coefs, _ = tables
    z, ztil, y, ytil = mom.z, mom.ztil, mom.y, mom.ytil
    account = dist.comm.account_flops
    flop_terms = mom.flop_terms
    m_loc = ztil.shape[0]
    U = np.zeros((int(offsets[-1]), 2))
    any_nz = False
    Ycsc = sparse_columns(Y)
    for j in range(len(blocks)):
        sl_j = slice(offsets[j], offsets[j + 1])
        r = base[sl_j]
        off = offsets[j]
        if off and any_nz:
            M = G[sl_j, :off] @ U[:off]
            r -= t2[j] * M[:, 0] - M[:, 1]
        account(_fixed_flops(widths[j], offsets[j], flop_terms), "fixed")
        v = largest_eigenvalue_cached(G[sl_j, sl_j], memo)
        if v > 0.0:
            eta = 1.0 / (qth[j] * v)
            cur = z[blocks[j]]
            g = cur - eta * r
            dz = pen.prox_block(g, eta, blocks[j]) - cur
        else:
            dz = np.zeros(widths[j])
        nz = bool(np.any(dz))
        any_nz = any_nz or nz
        U[sl_j, 0] = coefs[j] * dz
        U[sl_j, 1] = dz
        z[blocks[j]] += dz
        if y is not None:
            y[blocks[j]] -= coefs[j] * dz
        if nz:
            if Ycsc is not None:
                upd, nnz_blk = csc_range_matvec(
                    Ycsc.indptr, Ycsc.indices, Ycsc.data,
                    offsets[j], offsets[j + 1], dz, m_loc,
                )
                account(2.0 * nnz_blk, "blas1")
            else:
                upd = Y[:, sl_j] @ dz
                account(2.0 * m_loc * widths[j], "blas1")
            if upd is not None:
                ztil += upd
                if y is not None:
                    ytil -= coefs[j] * upd
            if y is not None:
                account(3.0 * m_loc, "gather")
        it = done + j + 1
        if record_every and (it % record_every == 0 or it == max_iter) \
                and _stops(mom, j, it, term, history, dist.comm):
            return True, it
    mom.advance(len(blocks) - 1)
    return False, done + len(blocks)


def _fused_scalar(
    dist, pen, mom, Y, G, R, blocks, widths, offsets, tables,
    done, max_iter, record_every, term, history, memo,
):
    """``mu = 1``: the recurrence on Python scalars plus sparse column
    scatters (exact in both parity modes: it has no GEMV to fuse)."""
    base, _, qth, coefs, C = (a.tolist() for a in tables)
    Gl = G.tolist()
    z, ztil, y, ytil = mom.z, mom.ztil, mom.y, mom.ytil
    account = dist.comm.account_flops
    flop_terms = mom.flop_terms
    m_loc = ztil.shape[0]
    Ycsc = sparse_columns(Y)
    if Ycsc is not None:
        Yp, Yi, Yd = Ycsc.indptr, Ycsc.indices, Ycsc.data
    dvals = [0.0] * len(blocks)
    fixed = FIXED_SUBPROBLEM_FLOPS + 10.0
    for j in range(len(blocks)):
        r = base[j]
        Crow = C[j]
        Grow = Gl[j]
        for t in range(j):
            d = dvals[t]
            if d != 0.0:
                r -= Crow[t] * (Grow[t] * d)
        account(fixed + 2.0 * (offsets[j] + flop_terms), "fixed")
        i = int(blocks[j][0])
        v = Grow[j]
        if v > 0.0:
            eta = 1.0 / (qth[j] * v)
            cur = z[i]
            g = cur - eta * r
            dz = pen.prox_block(np.array([g]), eta, blocks[j])[0] - cur
        else:
            dz = 0.0
        dvals[j] = dz
        z[i] += dz
        if y is not None:
            y[i] -= coefs[j] * dz
        if dz != 0.0:
            if Ycsc is not None:
                lo, hi = Yp[j], Yp[j + 1]
                rows = Yi[lo:hi]
                upd = Yd[lo:hi] * dz
                account(2.0 * (hi - lo), "blas1")
            else:
                rows = slice(None)
                upd = Y[:, j] * dz
                account(2.0 * m_loc, "blas1")
            ztil[rows] += upd
            if y is not None:
                ytil[rows] -= coefs[j] * upd
                account(3.0 * m_loc, "gather")
        it = done + j + 1
        if record_every and (it % record_every == 0 or it == max_iter) \
                and _stops(mom, j, it, term, history, dist.comm):
            return True, it
    mom.advance(len(blocks) - 1)
    return False, done + len(blocks)


def _stops(mom, j, it, term, history, comm):
    """Record the objective at inner iteration ``j``; on meeting the
    tolerance, close the momentum's step there and return True."""
    obj = mom.metric_at(it, j)
    history.record(it, obj, comm)
    if not term.done(obj):
        return False
    mom.advance(j)
    return True
