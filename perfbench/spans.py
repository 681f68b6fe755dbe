"""In-memory spans around probedist's public functions, and self times.

``Tracer.install`` wraps each public function of the probedist modules, and
the methods that carry the per-layer counters, in every module namespace
where a caller looks the name up (``testers.pack_rows`` as well as
``core.pack_rows``).  Each call records one span: name, start, end, parent
span, trial id and the counters its hook computes.  Nothing is written
until ``write_csv`` runs at the end of a traced run.
"""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from probedist import core, distances, generators, std_testers, strings, testers


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    trial: int
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so the result never counts a covered instant twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _rows_of(handles) -> np.ndarray:
    if isinstance(handles, core.SampleBatch):
        return handles.rows
    if isinstance(handles, core.SampleHandle):
        return np.array([handles.row])
    return np.array([h.row for h in handles])


def _query_block_pre(args, kwargs) -> dict:
    # Mirrors BilledOracle.query_block's choice between its distinct-pair
    # and duplicate-pair billing paths, from the arguments alone.
    oracle = args[0]
    rows = _rows_of(_arg(args, kwargs, 1, "handles"))
    pos = np.asarray(_arg(args, kwargs, 2, "positions"))
    if pos.ndim == 1:
        width, pos_unique = pos.size, np.unique(pos).size == pos.size
    else:
        width = pos.shape[-1]
        srt = np.sort(pos, axis=-1)
        pos_unique = width <= 1 or bool(np.all(srt[..., 1:] != srt[..., :-1]))
    dup = not (np.unique(rows).size == rows.size and pos_unique)
    return {"pairs": int(rows.size * width), "dup": int(dup), "_q": oracle.queries_used}


def _query_pre(args, kwargs) -> dict:
    return {"pairs": 1, "_q": args[0].queries_used}


def _decide_values(args, kwargs) -> dict:
    return {"values": len(_arg(args, kwargs, 1, "values"))}


def _billed_post(counts: dict, args, kwargs) -> None:
    counts["billed"] = args[0].queries_used - counts.pop("_q")


# name -> (pre hook computing counts before the call, post hook after it)
_HOOKS = {
    "core.draw_rows": (lambda a, k: {"rows": int(_arg(a, k, 2, "count"))}, None),
    "core.draw": (lambda a, k: {"samples": int(_arg(a, k, 1, "count"))}, None),
    "core.query_block": (_query_block_pre, _billed_post),
    "core.query": (_query_pre, _billed_post),
    "core.pack_rows": (lambda a, k: {"rows": int(np.shape(_arg(a, k, 0, "bits"))[0])}, None),
    "std_testers.std_equality_tester": (
        lambda a, k: {"values": len(_arg(a, k, 0, "values_a")) + len(_arg(a, k, 1, "values_b"))},
        None,
    ),
    "std_testers.SupportInner.decide": (_decide_values, None),
    "std_testers.GrainedInner.decide": (_decide_values, None),
}

# (class, method, span name): the methods that carry per-layer counters
_METHODS = [
    (core.FiniteDistribution, "draw_rows", "core.draw_rows"),
    (core.ImplicitDistribution, "draw_rows", "core.draw_rows"),
    (core.BilledOracle, "draw", "core.draw"),
    (core.BilledOracle, "query", "core.query"),
    (core.BilledOracle, "query_block", "core.query_block"),
    (strings.LinearityTester, "test", "strings.LinearityTester.test"),
    (strings.LinearityTester, "test_batch", "strings.LinearityTester.test_batch"),
    (strings.HadamardCorrector, "correct", "strings.HadamardCorrector.correct"),
    (strings.HadamardCorrector, "correct_batch", "strings.HadamardCorrector.correct_batch"),
    (strings.ConstantTester, "test", "strings.ConstantTester.test"),
    (std_testers.SupportInner, "decide", "std_testers.SupportInner.decide"),
    (std_testers.GrainedInner, "decide", "std_testers.GrainedInner.decide"),
]

_MODULES = {"core": core, "distances": distances, "generators": generators,
            "std_testers": std_testers, "strings": strings, "testers": testers}


class Tracer:
    """Records spans while installed; ``trial`` tags spans with a trial id.

    One span stack serves the whole process, so trace one thread at a time.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        pre, post = _HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            counts = {}
            if pre:
                # The hook gets a span of its own, so that its cost is not
                # charged to the caller's self time.
                start = time.perf_counter()
                counts = pre(args, kwargs)
                spans.append(Span("trace.hook", start, time.perf_counter(), parent, self.trial))
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, parent, self.trial, counts))
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx].start, spans[idx].end = start, end
                if post:
                    post(counts, args, kwargs)

        return traced

    def install(self) -> None:
        owners = [m for key, m in sys.modules.items()
                  if key == "probedist" or key.startswith("probedist.")]
        for short, module in _MODULES.items():
            for public in module.__all__:
                fn = getattr(module, public)
                if not callable(fn) or isinstance(fn, type):
                    continue
                traced = self.wrap(f"{short}.{public}", fn)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, traced)
        for cls, method, name in _METHODS:
            self._patch(cls, method, self.wrap(name, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "trial", "counts"])
            for i, s in enumerate(self.spans):
                counts = ";".join(f"{k}={v}" for k, v in s.counts.items())
                out.writerow([i, s.name, f"{s.start:.9f}", f"{s.end:.9f}", s.parent, s.trial,
                              counts])



# Testers the workloads run; each gets a ``testers.<name>.self_s`` metric.
TESTERS = ["support_tester", "self_correcting_tester", "noisy_membership_tester",
           "perturbation_tester", "pair_equality_tester"]

_CALLS_SELF = ["core.random_subset", "core.query",
               "strings.LinearityTester.test_batch", "strings.HadamardCorrector.correct_batch",
               "strings.ConstantTester.test",
               "distances.emd", "distances.dist_to_support_m"]
# A public function that is the whole body of another public function: its
# self time, when called from there, belongs to the caller's metric.
_IMPLEMENTS = {"distances.emd_with_plan": "distances.emd"}
_VALUES = ["std_testers.std_equality_tester", "std_testers.SupportInner.decide",
           "std_testers.GrainedInner.decide"]


def layer_metrics(spans: list[Span], n: int) -> dict:
    """Per-layer metrics that come from spans alone, summed over all spans."""
    agg: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        target = _IMPLEMENTS.get(s.name)
        if target and s.parent >= 0 and spans[s.parent].name == target:
            agg[target]["self_s"] += own
            continue
        a = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0, "dup_self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += own
        for key, value in s.counts.items():
            a[key] = a.get(key, 0) + value
        if s.counts.get("dup"):
            a["dup_self_s"] += own

    def get(name: str, key: str):
        return agg.get(name, {}).get(key, 0)

    out = {}
    for name in ["core.draw_rows", "core.draw", "core.query_block", "core.pack_rows"]:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    out["core.draw_rows.rows"] = get("core.draw_rows", "rows")
    out["core.draw_rows.mib"] = get("core.draw_rows", "rows") * n / 2**20
    out["core.draw.samples"] = get("core.draw", "samples")
    for key in ["pairs", "billed"]:
        out[f"core.query_block.{key}"] = get("core.query_block", key)
    out["core.query_block.dup_calls"] = get("core.query_block", "dup")
    out["core.query_block.dup_self_s"] = get("core.query_block", "dup_self_s")
    pairs = get("core.query_block", "pairs") + get("core.query", "pairs")
    billed = get("core.query_block", "billed") + get("core.query", "billed")
    out["core.billed_ratio"] = billed / pairs if pairs else 0.0
    out["core.pack_rows.rows"] = get("core.pack_rows", "rows")
    for name in _CALLS_SELF:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in _VALUES:
        for key in ["calls", "values", "self_s"]:
            out[f"{name}.{key}"] = get(name, key)
    for name in TESTERS:
        out[f"testers.{name}.self_s"] = get(f"testers.{name}", "self_s")
    out["generators.build_s"] = sum(
        s.end - s.start for s in spans
        if s.name.startswith("generators.")
        and not (s.parent >= 0 and spans[s.parent].name.startswith("generators."))
    )
    return out
