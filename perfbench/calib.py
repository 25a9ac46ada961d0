"""Host-speed calibration for the wall-clock metrics.

The 2-vCPU host the benchmark was tuned on runs in fast and slow phases
that last from a second to minutes: the same fixed kernel takes 1.0x or
about 1.4x its time, with no steal time and no run-queue wait, so a
slow phase cannot be told apart from a slower program by wall time
alone. ``probe`` times a fixed kernel of the benchmark's own (sparse
mat-vec, small dense products and interpreter work, the mix the SA
solvers spend their time in); the benchmark probes before and after
every timed round and set-up and scales that round's wall times by
``REF_S / median(probes)``. A change to the program moves the round's
time and not the probe, so the scaled time still tracks the program; a
host phase moves both, and the ratio cancels it.

The probes run on one core while the other idles, so they miss what
slows the two-rank workloads most: steal time, the hypervisor running
another guest on a vCPU the ranks need (10-16% of the wanted CPU time
in some runs, which were 1.3x slower). The factor is therefore also
multiplied by ``1 - steal``, the share of the CPU time the guest wanted
during the round that it got (from /proc/stat, 10 ms ticks).

The kernel never calls into ``repro`` and its inputs are fixed, not
drawn from the workload seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

#: A round figure for the kernel's seconds on the reference host (2-vCPU
#: Intel Xeon at 2.0 GHz, Python 3.11, one BLAS thread), where it takes
#: 1.5-2.7 ms depending on the phase and on what ran just before it.
#: Scaled times are "seconds on a host where the kernel takes REF_S";
#: they differ from wall time by a factor that cancels in any comparison
#: of two commits on one host, and the run prints that factor
#: (``host_factor``) beside the unscaled ``solve_s_p50_wall``.
REF_S = 2.0e-3

#: probes taken at each round boundary
PROBES = 5

_rng = np.random.default_rng(20180521)
_M = sp.random(300, 200, density=0.05, random_state=_rng, format="csr")
_V = _rng.standard_normal(200)
_G = _rng.standard_normal((32, 32))


def _kernel() -> float:
    acc = 0.0
    for i in range(100):
        y = _M @ _V
        acc += float(y[i % 300])
        acc += float(np.linalg.norm(_G @ _G[i % 32]))
        d = {}
        for j in range(60):
            d[j] = j * i
        acc += sum(d.values())
    return acc


def probe(n: int = PROBES) -> list[float]:
    """Wall seconds of ``n`` runs of the kernel."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t0)
    return out


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, non-idle) CPU ticks of the guest so far, all CPUs summed,
    from /proc/stat; None where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            line = fh.readline().split()
    except OSError:
        return None
    if len(line) < 9 or line[0] != "cpu":
        return None
    # user nice system idle iowait irq softirq steal (guest is in user)
    ticks = [int(v) for v in line[1:9]]
    return ticks[7], sum(ticks) - ticks[3] - ticks[4]


def steal_frac(start, end) -> float:
    """Share of the CPU time the guest wanted between two ``cpu_ticks``
    readings that the hypervisor gave to other guests instead."""
    if start is None or end is None or end[1] <= start[1]:
        return 0.0
    return (end[0] - start[0]) / (end[1] - start[1])


def factor(samples: list[float], steal: float = 0.0) -> float:
    """Scale from wall seconds now to reference-host seconds: the probe
    ratio, times the share of the wanted CPU time the guest got."""
    return REF_S / statistics.median(samples) * (1.0 - steal)
