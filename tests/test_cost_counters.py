"""Every :class:`CostSnapshot` counter survives every serializer and sum.

The counters are declared once, as dataclass fields with a combine rule
(sum, or watermark) and a restore-on-resume flag. This test gives each
field a distinct nonzero value and pushes it through snapshot
arithmetic, the ledger, result and checkpoint serialization, the
stream/serve cost dicts and the path totals, so a new counter cannot be
left out of any of them.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.checkpoint import make_solver_checkpoint, resume_solver
from repro.errors import SolverError
from repro.machine.ledger import COST_FIELDS, CostLedger, CostSnapshot
from repro.path import PathResult
from repro.solvers.base import ConvergenceHistory, SolverResult, Terminator
from repro.solvers.sampling import BlockSampler
from repro.solvers.serialization import result_from_dict, result_to_dict
from repro.streaming import _cost_dict, _sum_cost_dicts


def _snap(offset: int) -> CostSnapshot:
    """Distinct nonzero values: field i holds offset + i (+ 0.25 if float)."""
    vals = {}
    for i, f in enumerate(COST_FIELDS):
        kind = f.metadata["kind"]
        vals[f.name] = kind(offset + i + (0.25 if kind is float else 0))
    return CostSnapshot(**vals)


def _combined(f, a, b):
    return max(a, b) if f.metadata["watermark"] else a + b


def _result(snap: CostSnapshot) -> SolverResult:
    history = ConvergenceHistory(
        "objective", iterations=[0], metric=[1.0], seconds=[0.0],
        comm_seconds=[0.0], flops=[0.0],
    )
    return SolverResult("sa-bcd(mu=1, s=2)", np.zeros(3), 0, 1.0, history, snap)


A, B = _snap(3), _snap(40)


def test_fields_are_distinct_and_nonzero():
    vals = [getattr(A, f.name) for f in COST_FIELDS]
    assert all(vals) and len(set(vals)) == len(vals)
    assert len(COST_FIELDS) == len(dataclasses.fields(CostSnapshot))


def test_declared_rules():
    marks = {f.name for f in COST_FIELDS if f.metadata["watermark"]}
    kept = {f.name for f in COST_FIELDS if not f.metadata["restored"]}
    assert marks == {"max_staleness"}
    assert kept == {"recoveries", "respawns", "replayed_iterations"}


@pytest.mark.parametrize("f", COST_FIELDS, ids=lambda f: f.name)
def test_every_counter_round_trips(f):
    name, a, b = f.name, getattr(A, f.name), getattr(B, f.name)

    # snapshot arithmetic: sum/watermark, delta keeps the later watermark
    assert getattr(A + B, name) == _combined(f, a, b)
    assert getattr(B - A, name) == (b if f.metadata["watermark"] else b - a)

    # the dict form used by the streaming checkpoints
    assert getattr(CostSnapshot.from_dict(json.loads(json.dumps(A.to_dict()))), name) == a

    # saved results
    saved = json.loads(json.dumps(result_to_dict(_result(A))))
    assert getattr(result_from_dict(saved).cost, name) == a

    # stream/serve report cost dicts and their fold
    da, db = _cost_dict(A), _cost_dict(B)
    assert da[name] == a
    total = _sum_cost_dicts([da, db])
    assert total[name] == _combined(f, a, b)
    assert total["seconds"] == da["seconds"] + db["seconds"]
    assert type(total[name]) is f.metadata["kind"]

    # path-sweep totals
    path = PathResult("lasso", np.array([1.0, 0.5]), [_result(A), _result(B)], None)
    assert getattr(path.total_cost, name) == _combined(f, a, b)

    # ledger snapshot / restore / reset
    led = CostLedger()
    setattr(led, name, a)
    assert getattr(led.snapshot(), name) == a
    assert led.summary()[name] == a
    led.reset()
    assert getattr(led.snapshot(), name) == f.metadata["kind"]()
    led.restore(B)
    restored = b if f.metadata["restored"] else 0
    assert getattr(led.snapshot(), name) == restored

    # solver checkpoints: dumped always, restored per the flag
    src = CostLedger()
    src.restore(A)
    setattr(src, name, a)
    ck = json.loads(json.dumps(make_solver_checkpoint(
        family="lasso-plain", solver="sa-bcd", iteration=0, seed=0,
        params={"n": 3}, state={"x": np.zeros(3)}, term=Terminator(4),
        history=_result(A).history, ledger=src,
    )))
    assert ck["ledger"][name] == a
    dst = CostLedger()
    resume_solver(ck, sampler=BlockSampler(3, 1, 0), term=Terminator(4),
                  history=ConvergenceHistory("objective"), ledger=dst)
    assert getattr(dst.snapshot(), name) == (a if f.metadata["restored"] else 0)


def test_older_payloads_load_missing_counters_as_zero():
    required = [f.name for f in COST_FIELDS if f.default is dataclasses.MISSING]
    assert required == ["comm_seconds", "compute_seconds", "messages",
                        "words", "flops"]
    old = {k: v for k, v in A.to_dict().items() if k in required}
    snap = CostSnapshot.from_dict(old)
    for f in COST_FIELDS:
        want = getattr(A, f.name) if f.name in required else 0
        assert getattr(snap, f.name) == want
    saved = result_to_dict(_result(A))
    saved["cost"] = old
    assert result_from_dict(saved).cost == snap


@pytest.mark.parametrize("key", ["comm_seconds", "compute_seconds",
                                 "messages", "words", "flops"])
def test_result_from_dict_requires_original_counters(key):
    saved = result_to_dict(_result(A))
    del saved["cost"][key]
    with pytest.raises(SolverError, match=key):
        result_from_dict(saved)


def test_result_from_dict_rejects_non_numeric_cost():
    saved = result_to_dict(_result(A))
    saved["cost"]["messages"] = "many"
    with pytest.raises(SolverError, match="non-numeric"):
        result_from_dict(saved)
    saved["cost"] = [1, 2]
    with pytest.raises(SolverError, match="expected an object"):
        result_from_dict(saved)
