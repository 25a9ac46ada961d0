"""Wall-clock benchmark of the SA solvers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig3-sweep --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
measures the same workload twice, each for half the time: untraced, then
with every layer wrapped by ``perfbench/tracer.py``; it reports per-layer
metrics and the tracing overhead. Each run checks the program's outputs
against the workload's oracle, prints every metric by name with its unit,
writes a result file (and, traced, the spans) under ``.perfbench_out/``,
and prints one JSON object as its last line. A failed check exits 1.
Gated times and rates are scaled to reference-host seconds by a
host-speed probe and the steal time (``perfbench/calib.py``); the
unscaled wall time is printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

#: One BLAS thread per process, set before numpy loads. OpenBLAS otherwise
#: starts a thread per core that busy-waits between calls: with two forked
#: ranks that is four spinning threads on a two-core host, and the timings
#: measure the scheduler. Set, not defaulted, so every run is alike.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

#: seeds at or above this are held out: never used while tuning the
#: benchmark or a change, so a claim can be re-checked on fresh inputs
HELD_OUT_SEED = 1000


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import the program from the checkout's ``src``; None when absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import calib
    import tracer
    import workloads

    return workloads, tracer, calib


# -- host and provenance -----------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = _read(str(ROOT / ".git" / head[5:]))
    if ref is not None:
        return ref.strip()
    packed = _read(str(ROOT / ".git" / "packed-refs")) or ""
    for line in packed.splitlines():
        if line.endswith(" " + head[5:]):
            return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        level, size = _read(base + "level"), _read(base + "size")
        if level is None or size is None:
            continue
        caches[f"L{level.strip()}"] = size.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "seed_role": "held-out" if seed >= HELD_OUT_SEED else "tuning",
        "blas_threads": BLAS_THREADS,
    }


# -- measuring ---------------------------------------------------------------


def measure(wl, seconds: float, tracer, calib) -> dict:
    """Set up ``wl.setup_reps`` times, then run rounds for ``seconds``.

    The host-speed kernel is probed before and after every set-up and
    round, outside their timing; each gets the factor of the probes on
    either side of it and of those the round took inside, and of the
    steal time while it ran (``calib.py``).
    """
    before = calib.probe()
    setups = []
    for _ in range(wl.setup_reps):
        ticks = calib.cpu_ticks()
        s = wl.setup()
        steal = calib.steal_frac(ticks, calib.cpu_ticks())
        after = calib.probe()
        setups.append(s * calib.factor(before + after, steal))
        before = after
    after_setup = tracer.totals() if tracer is not None else None
    rounds = []
    t0 = time.perf_counter()
    op = 0
    while not rounds or time.perf_counter() - t0 < seconds:
        ticks = calib.cpu_ticks()
        r = wl.round(tracer, op)
        steal = calib.steal_frac(ticks, calib.cpu_ticks())
        after = calib.probe()
        r.factor = calib.factor(before + r.cal + after, steal)
        before = after
        op += max(r.attempted, 1)
        rounds.append(r)
    problems = wl.teardown()
    return {"setups": setups + [s * r.factor for r in rounds for s in r.setup],
            "rounds": rounds, "problems": problems, "after_setup": after_setup,
            "after_rounds": tracer.totals() if tracer is not None else None}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (a rank)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def median_solves(rounds, scaled: bool = True) -> list[float]:
    """Median time of each solve slot across rounds, in reference-host
    seconds (``scaled``) or in wall seconds.

    Every round makes the same solves in the same order (a fig3 case, the
    proc solve, a serve refit), so slot k is one kind of solve, and its
    median over rounds is that solve's typical time.
    """
    slots = len(rounds[0].solves)
    if any(len(r.solves) != slots for r in rounds):
        raise RuntimeError("rounds made different numbers of solves")
    return [statistics.median(r.solves[k] * (r.factor if scaled else 1.0)
                              for r in rounds) for k in range(slots)]


def end_to_end(m: dict) -> dict:
    """The gated metrics. Times are reference-host seconds (see
    ``calib.py``); ``model_s`` and ``peak_rss_mb`` are not times."""
    rounds = m["rounds"]
    ops = sum(r.ops for r in rounds)
    solve_med = median_solves(rounds)
    return {
        "setup_s": (statistics.median(m["setups"]), "s"),
        "solve_s_p50": (statistics.fmean(solve_med), "s"),
        "iters_per_s": (statistics.median(r.iters for r in rounds)
                        / sum(solve_med), "1/s"),
        "model_s": (sum(r.model_s for r in rounds) / max(ops, 1), "s"),
        "req_per_s": (statistics.median(r.ops / (r.busy * r.factor)
                                        for r in rounds), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def extras(m: dict, failed_frac: float) -> dict:
    """Metrics printed beside the gated ones: p90 where at least ten
    samples lie beyond it, the unscaled wall time and the host-speed
    factor behind the scaled ones, the oracle distance and the failure
    share."""
    rounds = m["rounds"]
    solves = [s * r.factor for r in rounds for s in r.solves]
    out = {"solve_count": (len(solves), "count")}
    if len(solves) >= 100:
        out["solve_s_p90"] = (
            statistics.quantiles(solves, n=10, method="inclusive")[-1], "s")
    out["solve_s_p50_wall"] = (
        statistics.fmean(median_solves(rounds, scaled=False)), "s")
    out["host_factor"] = (statistics.median(r.factor for r in rounds), "1")
    out["obj_rel_err"] = (max(r.obj_rel_err for r in m["rounds"]), "1")
    out["failed_frac"] = (failed_frac, "1")
    return out


def traced_metrics(wl, tracer_mod, calib, seconds: float):
    """Untraced half, then traced half; per-layer metrics per operation."""
    plain = measure(wl, seconds / 2, None, calib)
    tr = tracer_mod.Tracer()
    tracer_mod.install(tr)
    if hasattr(wl, "use_tracer"):
        wl.use_tracer(tr)
    traced = measure(wl, seconds / 2, tr, calib)
    setup = traced["after_setup"]  # the tracer was installed just before
    parent = tracer_mod.combine([traced["after_rounds"], traced["after_setup"]], -1)
    rank_exports = [e for r in traced["rounds"] for e in r.exports]
    ops = sum(r.ops for r in traced["rounds"])
    if rank_exports:  # process ranks: rank 0 holds the operations
        main = tracer_mod.combine([r.exports[0] for r in traced["rounds"]])
        side = [parent]
    else:
        main, side = parent, []
    metrics = tracer_mod.layer_metrics(main, side, ops, setup, wl.setup_reps)
    metrics["admit.rejected"] = (
        sum(r.rejected for r in traced["rounds"]) / max(ops, 1), "count/op")

    def per_round(m):
        return statistics.median(r.wall * r.factor / max(r.ops, 1)
                                 for r in m["rounds"])

    metrics["trace.overhead_frac"] = (
        per_round(traced) / per_round(plain) - 1.0, "frac")
    spans = len(tr.sp_name) + sum(len(e["spans"]["name"]) for e in rank_exports)
    metrics["trace.spans"] = (spans / max(ops, 1), "count/op")
    missing = tracer_mod.zero_call_layers([main, setup] + side, wl.required)
    return plain, traced, metrics, missing, tr.export(), rank_exports


def _write_spans(path: Path, parent: dict, rank_exports: list) -> None:
    """One npz: the parent's span columns and name table, then each rank
    export's, in the order the rounds returned them."""
    import numpy as np

    arrays = {}
    for prefix, export in [("parent", parent)] + [
            (f"rank_export{i}", e) for i, e in enumerate(rank_exports)]:
        arrays[f"{prefix}_names"] = np.array(export["names"])
        for k, v in export["spans"].items():
            arrays[f"{prefix}_{k}"] = v
    np.savez_compressed(path, **arrays)


def main(argv=None) -> int:
    args = _parse(argv)
    loaded = _import_program()
    if loaded is None:
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads, tracer_mod, calib = loaded
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.import_s = import_s
    wl.prepare()

    missing = []
    ticks = calib.cpu_ticks()
    if args.trace == 0:
        m = measure(wl, args.seconds, None, calib)
        metrics = end_to_end(m)
        runs = [m]
    else:
        plain, traced, metrics, missing, parent, rank_exports = \
            traced_metrics(wl, tracer_mod, calib, args.seconds)
        runs = [plain, traced]
    rounds = [r for m in runs for r in m["rounds"]]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    for m in runs:
        if m["problems"]:
            failed += 1
            errors.extend(m["problems"])
    if missing:
        failed += 1
        errors.append(f"coverage: no call recorded in layer(s) {missing}")
    shown = dict(metrics)
    if args.trace == 0:
        shown.update(extras(runs[0], failed / attempted))
        if args.workload == "serve-mixed":  # the solves there are refits
            shown["refit_s_p50"] = shown["solve_s_p50"]
            if "solve_s_p90" in shown:
                shown["refit_s_p90"] = shown["solve_s_p90"]
    if units != {k: u for k, (_, u) in metrics.items()}:
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2

    host = provenance(args.seed)
    host["steal_frac"] = calib.steal_frac(ticks, calib.cpu_ticks())
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  rounds {len(rounds)}")
    for k, v in host.items():
        print(f"  host.{k} = {v}")
    for name, (value, unit) in shown.items():
        print(f"  {name:26s} {value:.6g} {unit}")
    for e in errors:
        print(f"  FAILED: {e}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "host": host,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "attempted": attempted, "failed": failed, "errors": errors,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        _write_spans(OUT_DIR / f"{stem}-spans.npz", parent, rank_exports)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u}
                    for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
