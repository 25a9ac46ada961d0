"""Outside-in span tracer for the ``repro`` layers.

The benchmark never edits the program: it wraps the public callables of
each ``repro`` module from here. A wrapper records one span per call
(name, start, end, parent span, operation id) and folds its duration into
per-layer counters as it closes: call count, self time (duration minus
the time covered by child spans) and a few layer-specific counts.

Wrappers are installed at every name the callers resolve: a function is
replaced in each ``repro.*`` module that bound it with ``from ... import``
(so ``repro.solvers.lasso.acc.largest_eigenvalue`` is wrapped, not only
``repro.linalg.eig.largest_eigenvalue``), and a method is replaced on its
class. Install before the worker pool forks so the ranks inherit the
wrappers. The tracer assumes the traced calls run on one thread per
process, which holds for the virtual and process backends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: layer -> the callables it covers, as "module:qualname"
LAYER_TARGETS = {
    "sampling": [
        "repro.solvers.sampling:BlockSampler.next_block",
        "repro.solvers.sampling:RowSampler.next_indices",
    ],
    "gather": [
        "repro.linalg.distmatrix:RowPartitionedMatrix.sample_columns",
        "repro.linalg.distmatrix:ColPartitionedMatrix.sample_rows",
    ],
    "gram": [
        "repro.linalg.distmatrix:RowPartitionedMatrix.gram_and_project",
        "repro.linalg.distmatrix:ColPartitionedMatrix.gram_rows_and_project",
        "repro.linalg.distmatrix:GramPipeline.prefetch",
        "repro.linalg.distmatrix:GramPipeline.post",
    ],
    "reduce": [
        "repro.mpi.comm:Comm.Allreduce",
        "repro.mpi.comm:Comm.Iallreduce",
        "repro.mpi.comm:CommRequest.wait",
        "repro.linalg.distmatrix:GramPipeline.wait",
    ],
    "eig": [
        "repro.linalg.kernels:largest_eigenvalue_cached",
        "repro.linalg.eig:largest_eigenvalue",
    ],
    "solver": [
        "repro._api:fit_lasso",
        "repro._api:fit_svm",
        "repro.streaming:StreamingSweep.solve",
    ],
    "objective": [
        "repro.solvers.lasso.common:distributed_objective",
        "repro.solvers.svm.duality:duality_gap",
        "repro.solvers.base:ConvergenceHistory.record",
    ],
    "ledger": [
        "repro.machine.ledger:CostLedger.add_flops",
        "repro.machine.ledger:CostLedger.add_collective",
    ],
    "checkpoint": [
        "repro.checkpoint:emit_solver_checkpoint",
        "repro.streaming:StreamingSweep.checkpoint",
    ],
    "stream": [
        "repro.streaming:StreamingSweep.append",
        "repro.streaming:StreamingSweep.evict",
        "repro.streaming:StreamingSweep.update_labels",
    ],
    "admit": [
        "repro.serve.admission:AdmissionQueue.offer",
        "repro.serve.admission:AdmissionQueue.next_batch",
    ],
    "pool_spawn": ["repro.mpi.process_backend:WorkerPool._spawn"],
    "pool_dispatch": ["repro.mpi.process_backend:WorkerPool._dispatch"],
    "partition": [
        "repro.linalg.partition:block_partition",
        "repro.linalg.partition:balanced_nnz_partition",
    ],
}

#: pseudo-layer of the root span the benchmark opens around each operation;
#: its self time is the part of the operation no wrapped layer covers
ROOT = "unattributed"
LAYERS = list(LAYER_TARGETS) + [ROOT]
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}
_LEDGER = _LAYER_ID["ledger"]

#: extra counters, filled by the per-target probes below
COUNTERS = (
    "gather.nnz", "gram.model_flops", "reduce.words", "reduce.model_s",
    "eig.cached_calls", "eig.misses", "stream.rows_in", "stream.rows_out",
    "admit.batches", "admit.batched_requests",
)


class Tracer:
    """Span store plus per-layer accumulators for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._op_name = self.name_id("op")
        self.reset()

    def reset(self) -> None:
        """Drop every span and zero every counter (a forked rank calls
        this at job start: it inherits the parent's state mid-call)."""
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack: list[list] = []
        self.op = -1
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.count = {k: 0.0 for k in COUNTERS}

    def name_id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def parent_layer(self) -> int:
        """Layer of the innermost open span outside the ledger layer."""
        for frame in reversed(self.stack):
            if frame[1] != _LEDGER:
                return frame[1]
        return -1

    def call(self, fn, nid, lid, probe, args, kwargs):
        stack = self.stack
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(stack[-1][0] if stack else -1)
        self.sp_op.append(self.op)
        self.sp_start.append(0.0)
        self.sp_end.append(0.0)
        frame = [idx, lid, 0.0]
        state = probe.before(self, args) if probe is not None else None
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            self.sp_start[idx] = t0
            self.sp_end[idx] = t1
            self.calls[lid] += 1
            self.self_s[lid] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
        if probe is not None:
            probe.after(self, state, args, out)
        return out

    def root(self, op: int, fn, *args, **kwargs):
        """Run ``fn`` as operation ``op`` under a root span."""
        self.op = op
        try:
            return self.call(fn, self._op_name, _LAYER_ID[ROOT], None, args,
                             kwargs)
        finally:
            self.op = -1

    def totals(self) -> dict:
        """A copy of the accumulators."""
        return {"calls": list(self.calls), "self_s": list(self.self_s),
                "count": dict(self.count)}

    def export(self) -> dict:
        """Accumulators plus spans, picklable (ranks ship it home)."""
        return {
            **self.totals(),
            "names": list(self.names),
            "spans": {
                "name": np.frombuffer(self.sp_name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.sp_parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.sp_op, dtype=np.int32).copy(),
                "start": np.frombuffer(self.sp_start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.sp_end, dtype=np.float64).copy(),
            },
        }


# -- probes: layer-specific counts taken around one call -----------------------


class _Probe:
    def before(self, tracer, args):
        return None

    def after(self, tracer, state, args, out):
        pass


class _GatherNnz(_Probe):
    def after(self, tracer, state, args, out):
        nnz = getattr(out, "nnz", None)
        tracer.count["gather.nnz"] += float(np.size(out) if nnz is None else nnz)


class _AddFlops(_Probe):
    """Modelled flops charged while a Gram span is the caller."""

    def before(self, tracer, args):
        return args[0].flops

    def after(self, tracer, state, args, out):
        if tracer.parent_layer() == _LAYER_ID["gram"]:
            tracer.count["gram.model_flops"] += args[0].flops - state


class _AddCollective(_Probe):
    """Modelled comm seconds charged while a reduction span is the caller."""

    def before(self, tracer, args):
        return args[0].comm_seconds

    def after(self, tracer, state, args, out):
        if tracer.parent_layer() == _LAYER_ID["reduce"]:
            tracer.count["reduce.model_s"] += args[0].comm_seconds - state


class _ReduceWords(_Probe):
    def after(self, tracer, state, args, out):
        tracer.count["reduce.words"] += float(np.asarray(args[1]).size)


class _EigCached(_Probe):
    def after(self, tracer, state, args, out):
        tracer.count["eig.cached_calls"] += 1


class _EigSolve(_Probe):
    """An eigensolve under a memo lookup is a memo miss."""

    def after(self, tracer, state, args, out):
        if tracer.stack and tracer.stack[-1][1] == _LAYER_ID["eig"]:
            tracer.count["eig.misses"] += 1


class _StreamRows(_Probe):
    def __init__(self, appends: bool) -> None:
        self.appends = appends

    def before(self, tracer, args):
        return args[0].n_rows

    def after(self, tracer, state, args, out):
        rows_in = args[1].shape[0] if self.appends else 0  # append(B, y)
        tracer.count["stream.rows_in"] += rows_in
        tracer.count["stream.rows_out"] += state + rows_in - args[0].n_rows


class _Batch(_Probe):
    def after(self, tracer, state, args, out):
        if out is not None:
            tracer.count["admit.batches"] += 1
            tracer.count["admit.batched_requests"] += len(out[1])


_PROBES = {
    "repro.linalg.distmatrix:RowPartitionedMatrix.sample_columns": _GatherNnz(),
    "repro.linalg.distmatrix:ColPartitionedMatrix.sample_rows": _GatherNnz(),
    "repro.machine.ledger:CostLedger.add_flops": _AddFlops(),
    "repro.machine.ledger:CostLedger.add_collective": _AddCollective(),
    "repro.mpi.comm:Comm.Allreduce": _ReduceWords(),
    "repro.mpi.comm:Comm.Iallreduce": _ReduceWords(),
    "repro.linalg.kernels:largest_eigenvalue_cached": _EigCached(),
    "repro.linalg.eig:largest_eigenvalue": _EigSolve(),
    "repro.streaming:StreamingSweep.append": _StreamRows(appends=True),
    "repro.streaming:StreamingSweep.evict": _StreamRows(appends=False),
    "repro.serve.admission:AdmissionQueue.next_batch": _Batch(),
}


# -- installation ------------------------------------------------------------


def _wrapper(tracer: Tracer, fn, name: str, layer: str):
    nid = tracer.name_id(name)
    lid = _LAYER_ID[layer]
    probe = _PROBES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(fn, nid, lid, probe, args, kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target at every name it is bound to (call once)."""
    for layer, targets in LAYER_TARGETS.items():
        for target in targets:
            modname, qualname = target.split(":")
            owner = importlib.import_module(modname)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = _wrapper(tracer, orig, target, layer)
            if path:  # a method: the class attribute is the one binding
                setattr(owner, attr, wrapped)
                continue
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "repro"
                                       or mname.startswith("repro.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)


# -- folding exported accumulators into per-layer metrics --------------------


def combine(totals: list[dict], sign: float = 1.0) -> dict:
    """Sum accumulator totals; ``sign=-1`` subtracts the rest from the
    first (what a phase added between two snapshots)."""
    out = {"calls": list(totals[0]["calls"]), "self_s": list(totals[0]["self_s"]),
           "count": dict(totals[0]["count"])}
    for t in totals[1:]:
        out["calls"] = [a + sign * b for a, b in zip(out["calls"], t["calls"])]
        out["self_s"] = [a + sign * b for a, b in zip(out["self_s"], t["self_s"])]
        for k, v in t["count"].items():
            out["count"][k] += sign * v
    return out


def layer_metrics(main: dict, side: list[dict], ops: int, setup: dict,
                  pool_starts: int) -> dict:
    """Per-layer metrics, per operation.

    ``main`` holds the accumulators of the timed operations in the
    process whose root spans are the operations (the benchmark process,
    or rank 0 on the process backend); ``side`` holds those of other
    processes whose pool spans count too (the parent of a worker pool).
    ``setup`` holds what the set-up phase recorded, for the pool spawns.
    """
    ops = max(ops, 1)
    lid = _LAYER_ID

    def calls(layer):
        return main["calls"][lid[layer]] / ops

    def self_s(layer):
        return main["self_s"][lid[layer]] / ops

    def side_s(layer):
        return sum(x["self_s"][lid[layer]] for x in [main] + side)

    c = main["count"]
    op_wall = sum(main["self_s"])  # every span nests under a root span
    out = {}
    for layer in ("sampling", "gather", "gram", "reduce", "eig", "solver",
                  "objective", "ledger", "checkpoint", "stream", "admit"):
        out[f"{layer}.calls"] = (calls(layer), "count/op")
        key = "reduce.wait_s" if layer == "reduce" else f"{layer}.self_s"
        out[key] = (self_s(layer), "s/op")
    out["gather.nnz"] = (c["gather.nnz"] / ops, "count/op")
    out["gram.model_flops"] = (c["gram.model_flops"] / ops, "flops/op")
    out["reduce.words"] = (c["reduce.words"] / ops, "words/op")
    out["reduce.model_s"] = (c["reduce.model_s"] / ops, "s/op")
    out["reduce.wait_frac"] = (
        main["self_s"][lid["reduce"]] / op_wall if op_wall > 0 else 0.0, "frac")
    cached = c["eig.cached_calls"]
    out["eig.hit_ratio"] = (
        (cached - c["eig.misses"]) / cached if cached else 0.0, "ratio")
    out["stream.rows_in"] = (c["stream.rows_in"] / ops, "count/op")
    out["stream.rows_out"] = (c["stream.rows_out"] / ops, "count/op")
    batches = c["admit.batches"]
    out["admit.coalesce_ratio"] = (
        c["admit.batched_requests"] / batches if batches else 0.0, "ratio")
    out["pool.spawn_s"] = (
        setup["self_s"][lid["pool_spawn"]] / pool_starts if pool_starts
        else 0.0, "s")
    out["pool.dispatch_s"] = (side_s("pool_dispatch") / ops, "s/op")
    out["partition.self_s"] = (self_s("partition"), "s/op")
    root = main["self_s"][lid[ROOT]]
    out["trace.unattributed_s"] = (root / ops, "s/op")
    out["trace.unattributed_frac"] = (
        root / op_wall if op_wall > 0 else 0.0, "frac")
    return out


def zero_call_layers(totals: list[dict], layers) -> list[str]:
    """Layers among ``layers`` that recorded no call in any of ``totals``."""
    return [layer for layer in layers
            if not any(t["calls"][_LAYER_ID[layer]] for t in totals)]
