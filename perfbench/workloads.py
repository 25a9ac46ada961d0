"""The four benchmark workloads.

Each workload is a closed loop from one process: it generates its inputs
from the seed, computes its oracle once (untimed, untraced), then runs
``setup`` and timed rounds until the time is up. Every call into the
program goes through module attributes resolved at call time
(``_api.fit_lasso``, not a name bound at import), so wrappers the tracer
installs later are seen.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import calib
import numpy as np
import scipy.sparse as sp

from repro import _api, streaming
from repro.datasets import make_sparse_regression
from repro.experiments.runner import load_scaled
from repro.linalg import kernels
from repro.machine.spec import CRAY_XC30
from repro.mpi import process_backend
from repro.mpi.virtual_backend import VirtualComm
from repro.serve import TenantSpec, engine
from repro.serve.trace import TraceEvent


class Round:
    """What one timed round produced."""

    def __init__(self) -> None:
        self.wall = 0.0  # wall seconds of the round
        self.busy = 0.0  # part of ``wall`` that counts as serving/solving
        self.setup = []  # set-up seconds measured inside the round
        self.solves = []  # wall seconds per solve (or warm refit)
        self.iters = 0  # SA inner iterations completed
        self.model_s = 0.0  # modelled CRAY_XC30 seconds, summed
        self.ops = 0  # operations completed (solves or requests)
        self.attempted = 0
        self.failed = 0
        self.errors = []  # one line per failed check
        self.obj_rel_err = 0.0
        self.exports = []  # tracer exports shipped home, in rank order
        self.rejected = 0  # requests the admission queue refused
        #: host-speed probes taken inside the round, outside its timing
        #: (untraced rounds only; ``calib.py``)
        self.cal = []
        self.factor = 1.0  # host-speed factor, set by the harness

    @property
    def cal_s(self) -> float:
        """Seconds the in-round probes took."""
        return sum(self.cal)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- fig3-sweep ---------------------------------------------------------------

#: (dataset, paper's P, paper's good s): the Fig. 3 panels
FIG3_CASES = (("news20", 768, 16), ("covtype", 3072, 16),
              ("url", 12288, 32), ("epsilon", 12288, 16))
FIG3_MUS = (1, 8)  # sa-acccd and sa-accbcd with mu=8
FIG3_H = 384
FIG3_RECORD = 32
FIG3_LAM = 1.0


class Fig3Sweep:
    name = "fig3-sweep"
    #: layers every traced run of this workload must reach
    required = ("sampling", "gather", "gram", "reduce", "eig", "solver",
                "objective", "ledger", "partition")
    setup_reps = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cases = []
        for name, P, s in FIG3_CASES:
            ds = load_scaled(name, target_cells=20_000.0, seed=seed)
            for mu in FIG3_MUS:
                self.cases.append((ds, P, s, mu))
        self.import_s = 0.0

    def _solve(self, case, solver):
        ds, P, s, mu = case
        comm = VirtualComm(virtual_size=P, machine=CRAY_XC30,
                           flop_scale=ds.flop_scale, kind_scales=ds.kind_scales)
        return _api.fit_lasso(
            ds.A, ds.b, FIG3_LAM, solver=solver, mu=mu, s=s, max_iter=FIG3_H,
            seed=self.seed, record_every=FIG3_RECORD, comm=comm,
        )

    def prepare(self) -> None:
        """Classical accCD/accBCD objectives at the same seed (the oracle)."""
        self.ref = [self._solve(c, "accbcd").final_metric for c in self.cases]

    def setup(self) -> float:
        """Empty the eigenvalue memo, then one cache-filling sweep."""
        t0 = time.perf_counter()
        kernels.eig_cache_clear()
        for case in self.cases:
            self._solve(case, "sa-accbcd")
        return time.perf_counter() - t0 + self.import_s

    def round(self, tracer, op0: int) -> Round:
        r = Round()
        t_round = time.perf_counter()
        for i, case in enumerate(self.cases):
            if tracer is None:
                r.cal += calib.probe(1)
            t0 = time.perf_counter()
            if tracer is None:
                res = self._solve(case, "sa-accbcd")
            else:
                res = tracer.root(op0 + i, self._solve, case, "sa-accbcd")
            r.solves.append(time.perf_counter() - t0)
            r.attempted += 1
            r.ops += 1
            r.iters += res.iterations
            r.model_s += res.cost.seconds
            err = _rel(res.final_metric, self.ref[i])
            r.obj_rel_err = max(r.obj_rel_err, err)
            if err > 1e-10 or res.iterations != FIG3_H:
                r.failed += 1
                r.errors.append(
                    f"{case[0].name} mu={case[3]}: objective {err:.3g} from "
                    f"the classical solver, {res.iterations} iterations")
        r.wall = r.busy = time.perf_counter() - t_round - r.cal_s
        return r

    def teardown(self) -> list[str]:
        return []


# -- lasso-proc-blocking / lasso-proc-pipeline -------------------------------

PROC_RANKS = 2
PROC_SHAPE = (6000, 1200)
PROC_DENSITY = 0.05
PROC_LAM = 0.01
PROC_KNOBS = dict(solver="sa-accbcd", mu=8, s=32, record_every=0)
PROC_H = 1024

#: Inputs and tracer the forked ranks inherit. A job dispatched to a
#: parked worker pickles only its small arguments; the 6000 x 1200
#: problem is inherited through fork, which is why it lives here.
_RANK_STATE: dict = {}


def _proc_job(comm, rank, pipeline: bool, max_iter: int, op: int):
    """One fixed-budget solve on one rank; rank 0 ships ``x`` home."""
    A, b, seed = _RANK_STATE["problem"]
    tracer = _RANK_STATE.get("tracer")

    def solve():
        return _api.fit_lasso(A, b, PROC_LAM, comm=comm, max_iter=max_iter,
                              seed=seed, pipeline=pipeline, **PROC_KNOBS)

    if tracer is None:
        res, export = solve(), None
    else:
        tracer.reset()
        res = tracer.root(op, solve)
        export = tracer.export()
    return (res.x if rank == 0 else None, res.iterations, res.cost.seconds,
            export)


def _lasso_objective(A, b, x) -> float:
    r = A @ x - b
    return 0.5 * float(r @ r) + PROC_LAM * float(np.abs(x).sum())


class LassoProc:
    required = ("sampling", "gather", "gram", "reduce", "eig", "solver",
                "ledger", "pool_spawn", "pool_dispatch", "partition")
    setup_reps = 9

    def __init__(self, seed: int, pipeline: bool) -> None:
        self.seed = seed
        self.pipeline = pipeline
        self.name = "lasso-proc-pipeline" if pipeline else "lasso-proc-blocking"
        A, b, _ = make_sparse_regression(*PROC_SHAPE, density=PROC_DENSITY,
                                         seed=seed)
        self.A, self.b = A, b
        self.pool = None

    def prepare(self) -> None:
        """Virtual-backend reference; for the pipelined workload also the
        blocking result on process ranks, which it must equal bit for bit."""
        _RANK_STATE["problem"] = (self.A, self.b, self.seed)
        self.x_ref = _api.fit_lasso(
            self.A, self.b, PROC_LAM, max_iter=PROC_H, seed=self.seed,
            comm=VirtualComm(1), **PROC_KNOBS,
        ).x
        self.obj_ref = _lasso_objective(self.A, self.b, self.x_ref)
        self.x_blocking = None
        if self.pipeline:
            out = process_backend.process_spmd_run(
                _proc_job, PROC_RANKS, args=(False, PROC_H, -1),
                machine=CRAY_XC30,
            )
            self.x_blocking = out.values[0][0]

    def use_tracer(self, tracer) -> None:
        _RANK_STATE["tracer"] = tracer

    def setup(self) -> float:
        """Fork a fresh pool and run one warm-up outer step on it."""
        if self.pool is not None:
            self.pool.shutdown()
        t0 = time.perf_counter()
        self.pool = process_backend.WorkerPool(PROC_RANKS, machine=CRAY_XC30)
        self.pool.run(_proc_job, args=(self.pipeline, PROC_KNOBS["s"], -1))
        return time.perf_counter() - t0

    def round(self, tracer, op0: int) -> Round:
        r = Round()
        t0 = time.perf_counter()
        if tracer is None:
            out = self.pool.run(_proc_job, args=(self.pipeline, PROC_H, op0))
        else:
            out = tracer.root(op0, self.pool.run, _proc_job,
                              args=(self.pipeline, PROC_H, op0))
        r.wall = r.busy = time.perf_counter() - t0
        r.solves.append(r.wall)
        x, iters, model_s, export = out.values[0]
        r.exports = [v[3] for v in out.values if v[3] is not None]
        r.attempted = r.ops = 1
        r.iters, r.model_s = iters, model_s
        drift = float(np.max(np.abs(x - self.x_ref))
                      / max(float(np.max(np.abs(self.x_ref))), 1e-300))
        r.obj_rel_err = _rel(_lasso_objective(self.A, self.b, x), self.obj_ref)
        if drift > 1e-9 or iters != PROC_H:
            r.errors.append(f"x is {drift:.3g} from the virtual reference "
                            f"after {iters} iterations")
        if self.x_blocking is not None and not np.array_equal(x, self.x_blocking):
            r.errors.append("pipelined x differs from the blocking x")
        r.failed = int(bool(r.errors))
        return r

    def teardown(self) -> list[str]:
        """Shut the pool down; report any child process still alive."""
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        problems = [f"live child {p.pid} after shutdown"
                    for p in multiprocessing.active_children()]
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # no children left at all
            if pid == 0:
                problems.append("an unreaped child process is still running")
                break
        return problems


# -- serve-mixed --------------------------------------------------------------

SERVE_TENANT_ROWS = 400  # onboarding rows, also each tenant's window
SERVE_FEATURES = 120
SERVE_DENSITY = 0.1
SERVE_APPEND_ROWS = 4
#: Each tenant's request stream: runs of consecutive appends of these
#: lengths, in seeded order, with one predict between runs. The 9
#: predicts and 21 appends per tenant make the 30% / 70% mix; every run
#: fits in one coalesced batch (max_coalesce=8), so a session always
#: makes the same number of refits of the same sizes whatever the seed.
SERVE_APPEND_RUNS = (0, 1, 1, 2, 2, 2, 3, 3, 3, 4)
SERVE_TAIL = SERVE_APPEND_ROWS * sum(SERVE_APPEND_RUNS)  # rows appends consume
SERVE_VIRTUAL_P = 64
SERVE_LASSO_KNOBS = dict(solver="sa-accbcd", mu=8, s=16, max_iter=256,
                         tol=None, record_every=32)
SERVE_SVM_KNOBS = dict(solver="sa-svm", s=16, max_iter=512, tol=None,
                       record_every=64)


def _serve_tenants(seed: int) -> list:
    m = SERVE_TENANT_ROWS + SERVE_TAIL
    n = SERVE_FEATURES
    specs = []
    for i, task in enumerate(("lasso", "lasso", "svm", "svm")):
        rng = np.random.default_rng([seed, i])
        A = sp.random(m, n, density=SERVE_DENSITY, random_state=rng,
                      format="csr")
        w = np.zeros(n)
        active = rng.choice(n, 10, replace=False)
        w[active] = rng.standard_normal(10)
        y = A @ w + 0.01 * rng.standard_normal(m)
        if task == "svm":
            y = np.where(y > 0, 1.0, -1.0)
        knobs = SERVE_LASSO_KNOBS if task == "lasso" else SERVE_SVM_KNOBS
        specs.append(TenantSpec(
            name=f"{task}{i}", A=A, b=y, m0=SERVE_TENANT_ROWS, task=task,
            max_rows=SERVE_TENANT_ROWS, knobs=dict(knobs, seed=seed),
        ))
    return specs


def _serve_trace(seed: int, names: list) -> list:
    """Every tenant's stream (seeded run order), interleaved tenant by
    tenant, all arriving at t=0: the admission queue holds the whole burst
    and coalesces each run of appends into one refit."""
    rng = np.random.default_rng([seed, 99])
    streams = []
    for _ in names:
        runs = rng.permutation(SERVE_APPEND_RUNS)
        ops = []
        for i, run in enumerate(runs):
            if i:
                ops.append("predict")
            ops.extend(["append"] * int(run))
        streams.append(ops)
    events = []
    for step in range(max(len(ops) for ops in streams)):
        for name, ops in zip(names, streams):
            if step < len(ops):
                events.append(TraceEvent(t=0.0, tenant=name, op=ops[step],
                                         rows=SERVE_APPEND_ROWS))
    return events


class ServeMixed:
    name = "serve-mixed"
    required = ("sampling", "gather", "gram", "reduce", "eig", "solver",
                "objective", "ledger", "checkpoint", "stream", "admit")
    #: no separate set-up: every round onboards its tenants afresh, and
    #: ``round`` measures that onboarding as the round's set-up time
    setup_reps = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = _serve_tenants(seed)
        self.trace = _serve_trace(seed, [s.name for s in self.specs])
        self.refits = []  # (warm_start, wall seconds, iterations) per solve
        orig = streaming.StreamingSweep.solve

        def timed_solve(sweep, lam=None, warm_start=True, **overrides):
            t0 = time.perf_counter()
            res = orig(sweep, lam=lam, warm_start=warm_start, **overrides)
            self.refits.append((warm_start, time.perf_counter() - t0,
                                res.iterations))
            return res

        # a timer on the refit entry point (two clock reads per solve)
        streaming.StreamingSweep.solve = timed_solve

    def _session(self, on_dispatch):
        return engine.serve_trace(
            self.specs, self.trace, queue_depth=len(self.trace),
            max_coalesce=8, virtual_p=SERVE_VIRTUAL_P, machine=CRAY_XC30,
            fault_hook=on_dispatch,
        )

    def prepare(self) -> None:
        """One untimed session fixes the models every repeat must match."""
        rep = self._session(None)
        self.ref_hashes = [t["model_hash"] for t in rep["tenants"]]
        self.ref_metrics = [t["final_metric"] for t in rep["tenants"]]

    def round(self, tracer, op0: int) -> Round:
        r = Round()
        self.refits.clear()
        first = []

        def on_dispatch(comm, tenant, dispatch_no, op):
            if not first:
                first.append(time.perf_counter())
            if tracer is None:
                r.cal += calib.probe(1)

        t0 = time.perf_counter()
        if tracer is None:
            rep = self._session(on_dispatch)
        else:
            rep = tracer.root(op0, self._session, on_dispatch)
        t1 = time.perf_counter()
        r.wall = t1 - t0 - r.cal_s
        r.setup.append(first[0] - t0)
        r.busy = t1 - first[0] - r.cal_s
        warm = [(dt, it) for ws, dt, it in self.refits if ws]
        r.solves = [dt for dt, _ in warm]
        r.iters = sum(it for _, it in warm)
        n = len(self.trace)
        r.attempted = n
        r.ops = rep["totals"]["outcomes"]["completed"]
        r.failed = n - r.ops
        if r.failed:
            r.errors.append(f"{r.failed} of {n} requests not completed: "
                            f"{rep['totals']['outcomes']}")
        r.model_s = sum(t["cost"]["serve"]["seconds"] for t in rep["tenants"])
        hashes = [t["model_hash"] for t in rep["tenants"]]
        if hashes != self.ref_hashes:
            r.failed = n  # a wrong model taints every request it served
            r.errors.append(f"tenant model hashes {hashes} differ from "
                            f"{self.ref_hashes}")
        r.obj_rel_err = max(_rel(t["final_metric"], ref) for t, ref in
                            zip(rep["tenants"], self.ref_metrics))
        r.rejected = rep["totals"]["outcomes"]["rejected"]
        return r

    def teardown(self) -> list[str]:
        return []


WORKLOADS = {
    "fig3-sweep": Fig3Sweep,
    "lasso-proc-blocking": lambda seed: LassoProc(seed, pipeline=False),
    "lasso-proc-pipeline": lambda seed: LassoProc(seed, pipeline=True),
    "serve-mixed": ServeMixed,
}
