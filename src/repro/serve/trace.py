"""Timestamped arrival traces for the multi-tenant serving engine.

A trace is an ordered list of :class:`TraceEvent`\\ s — "at virtual time
``t``, tenant ``X`` asked for ``op`` over ``rows`` rows". Time is
**virtual** (modelled seconds, the same clock the cost ledger charges);
replaying a trace never sleeps on the wall clock, which is what makes
serving runs deterministic and CI-friendly: the same trace over the
same machine model produces the same admissions, the same rejections,
and the same latency percentiles, bit for bit.

Traces come from three places:

* :func:`load_trace` — real recorded arrivals, as JSON lines (one
  object per line) or one JSON array: ``{"t": 0.004, "tenant": "a",
  "op": "append", "rows": 8}`` with an optional per-request
  ``"deadline"`` override;
* :func:`synthetic_trace` — a seeded generator (exponential-ish
  inter-arrival gaps, configurable predict/append mix) for benchmarks
  and smoke tests;
* literal lists of :class:`TraceEvent` built in tests.

The ``op`` vocabulary is shared with the streaming replayer's schedule
tokens (:func:`repro.streaming.replay_schedule`): ``append`` consumes
the next ``rows`` rows of the tenant's held-out tail, ``evict_oldest``
/ ``relabel_oldest`` act on the oldest surviving rows, and ``predict``
scores ``rows`` query rows against the tenant's last committed model.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from repro.errors import ServeError

__all__ = ["TraceEvent", "TRACE_OPS", "load_trace", "synthetic_trace",
           "validate_trace"]

#: request kinds a trace may carry; ``predict`` is read-only (served
#: from the last committed model, never refits), the rest mutate the
#: tenant's data and trigger one warm refit per dispatched batch
TRACE_OPS = ("append", "predict", "evict_oldest", "relabel_oldest")


@dataclass(frozen=True)
class TraceEvent:
    """One request arrival.

    ``t`` is the arrival instant in virtual seconds; ``deadline`` (also
    virtual seconds, measured from ``t``) overrides the engine-wide
    default for this request only.
    """

    t: float
    tenant: str
    op: str = "append"
    rows: int = 1
    deadline: float | None = None


def _real(value, where: str, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ServeError(f"{where}: {name} must be a number, got {value!r}") from None


def _check_event(ev: TraceEvent, where: str) -> TraceEvent:
    if not isinstance(ev.tenant, str) or not ev.tenant:
        raise ServeError(f"{where}: tenant must be a non-empty string")
    if ev.op not in TRACE_OPS:
        raise ServeError(
            f"{where}: unknown op {ev.op!r}; expected one of {TRACE_OPS}"
        )
    t = _real(ev.t, where, "t")
    if not math.isfinite(t) or t < 0:
        raise ServeError(f"{where}: arrival time must be finite and >= 0, got {ev.t!r}")
    rows = ev.rows
    if (isinstance(rows, (bool, np.bool_)) or not isinstance(rows, numbers.Real)
            or not math.isfinite(rows) or rows != int(rows)):
        raise ServeError(f"{where}: rows must be an integer, got {rows!r}")
    rows = int(rows)
    if rows < 1:
        raise ServeError(f"{where}: rows must be >= 1, got {ev.rows!r}")
    dl = ev.deadline
    if dl is not None:
        dl = _real(dl, where, "deadline")
        if not math.isfinite(dl) or dl <= 0:
            raise ServeError(
                f"{where}: deadline must be finite and > 0, got {ev.deadline!r}"
            )
    return TraceEvent(t=t, tenant=ev.tenant, op=ev.op, rows=rows, deadline=dl)


def validate_trace(events, known_tenants=None) -> list:
    """Validate + normalise a trace; returns events sorted by arrival.

    The sort is stable, so same-instant events keep their input order
    (FIFO within a burst). ``known_tenants`` (optional) rejects events
    naming a tenant the engine does not host — a trace typo should fail
    loudly at validation, not dispatch a refit into the void.
    """
    out = []
    for i, ev in enumerate(events):
        if not isinstance(ev, TraceEvent):
            raise ServeError(
                f"trace[{i}]: expected a TraceEvent, got {type(ev).__name__}"
            )
        ev = _check_event(ev, f"trace[{i}]")
        if known_tenants is not None and ev.tenant not in known_tenants:
            raise ServeError(
                f"trace[{i}]: unknown tenant {ev.tenant!r}; engine hosts "
                f"{sorted(known_tenants)}"
            )
        out.append(ev)
    return sorted(out, key=lambda e: e.t)


def load_trace(path) -> list:
    """Read a trace file: JSON lines (one object per line) or one JSON
    array. Each record needs ``t`` and ``tenant``; ``op`` defaults to
    ``"append"``, ``rows`` to 1, ``deadline`` to the engine default.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ServeError(f"could not read trace {os.fspath(path)!r}: {exc}") from exc
    records: list = []
    stripped = text.lstrip()
    try:
        if stripped.startswith("["):
            records = json.loads(text)
        else:
            for line in text.splitlines():
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    except ValueError as exc:
        raise ServeError(
            f"trace {os.fspath(path)!r} is not valid JSON/JSONL: {exc}"
        ) from exc
    events = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "t" not in rec or "tenant" not in rec:
            raise ServeError(
                f"trace record {i} must be an object with 't' and 'tenant',"
                f" got {rec!r}"
            )
        events.append(TraceEvent(
            t=rec["t"], tenant=rec["tenant"], op=rec.get("op", "append"),
            rows=rec.get("rows", 1), deadline=rec.get("deadline"),
        ))
    return validate_trace(events)


def synthetic_trace(
    tenants,
    n_requests: int,
    *,
    seed: int = 0,
    mean_gap: float = 0.0,
    rows: int = 2,
    predict_frac: float = 0.25,
    deadline: float | None = None,
    append_budget: dict | None = None,
) -> list:
    """A deterministic synthetic arrival trace over ``tenants``.

    Inter-arrival gaps are exponential with mean ``mean_gap`` virtual
    seconds (0.0 = one burst at t=0, the maximal-backpressure case);
    each request picks a tenant uniformly and is a ``predict`` with
    probability ``predict_frac``, else an ``append`` of ``rows`` rows.
    ``append_budget`` (tenant -> max rows that may ever be appended)
    converts appends that would overdraw a tenant's held-out tail into
    predicts, so a generated trace is always servable.
    """
    names = sorted(tenants)
    if not names:
        raise ServeError("synthetic_trace needs at least one tenant")
    if n_requests < 1:
        raise ServeError(f"n_requests must be >= 1, got {n_requests}")
    if not 0.0 <= predict_frac <= 1.0:
        raise ServeError(f"predict_frac must be in [0, 1], got {predict_frac}")
    rng = np.random.default_rng(seed)
    t = 0.0
    used: dict = {name: 0 for name in names}
    events = []
    for _ in range(int(n_requests)):
        if mean_gap > 0:
            t += float(rng.exponential(mean_gap))
        name = names[int(rng.integers(len(names)))]
        op = "predict" if rng.random() < predict_frac else "append"
        if op == "append" and append_budget is not None:
            if used[name] + rows > int(append_budget.get(name, rows)):
                op = "predict"
        if op == "append":
            used[name] += rows
        events.append(TraceEvent(t=t, tenant=name, op=op, rows=rows,
                                 deadline=deadline))
    return validate_trace(events)
