"""Spans around the public stage calls, recorded from the benchmark's side.

`patched(tracer)` replaces each function named in STAGES, at every stpca
module that binds it, with a wrapper that records one span per call, and puts
the originals back on exit. Library code is never edited, so a stage the
library stops calling through its module binding simply drops out of the
trace and its time shows up as its caller's self time.

A span is ``[name, start, end, parent, op_id, rss_in_kb, rss_out_kb,
alloc_peak_bytes]``; times are ``time.perf_counter`` seconds, parent is the
index of the enclosing span or None, and rss is ``ru_maxrss`` (the process
high-water mark) at entry and exit. Spans stay in memory; the caller writes
them out when the run ends.
"""

from __future__ import annotations

import functools
import resource
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Per-candidate and per-tuple helpers (rank1_inner, even_all_count) are left
# out: a span per call would cost more than the work it measures.
STAGES = (
    "experiments.trial_seed",
    "model.sample_sstm",
    "model.sample_general_instance",
    "model.sample_noise_tensor",
    "tensor.add_rank1",
    "tensor.write_sstf1",
    "tensor.read_sstf1",
    "tensor.contract_leave_one",
    "tensor.contract_leave_mode",
    "recovery.preprocess_split",
    "recovery.argmax_over_Ut",
    "recovery.top_k_magnitude",
    "recovery.recover_single",
    "recovery.recover_multi",
    "recovery.recover_general",
    "recovery.match_supports",
    "lowdeg.chi_squared_exact",
    "lowdeg.lower_bound_lambda",
    "lowdeg.upper_bound_lambda",
    "infotheory.it_bound_report",
    "infotheory.covering_number_oracle",
)

SPAN_FIELDS = ("name", "start", "end", "parent", "op_id", "rss_in_kb", "rss_out_kb",
               "alloc_peak_bytes")
NAME, START, END, PARENT, OP, RSS_IN, RSS_OUT, ALLOC = range(len(SPAN_FIELDS))


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder; with `track_alloc` it also records each span's
    tracemalloc peak above the allocation level at its entry."""

    def __init__(self, track_alloc: bool = False):
        self.spans: list[list] = []
        self.track_alloc = track_alloc
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._alloc: list[list[int]] = []  # [current at entry, peak seen] per open span

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.op_id, _maxrss_kb(), 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if self.track_alloc:
            self._alloc_enter()
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            if self.track_alloc:
                span[ALLOC] = self._alloc_exit()
            span[RSS_OUT] = _maxrss_kb()
            self._stack.pop()

    def op(self, op_id: str, name: str, fn, *args):
        """Run one op as a root span."""
        self.op_id = op_id
        try:
            return self.call(name, fn, *args)
        finally:
            self.op_id = None

    # tracemalloc keeps one peak; nested spans reset it, so each open span
    # keeps the highest peak seen before a child reset it.
    def _alloc_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._alloc:
            self._alloc[-1][1] = max(self._alloc[-1][1], peak)
        tracemalloc.reset_peak()
        self._alloc.append([current, current])

    def _alloc_exit(self) -> int:
        start, seen = self._alloc.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self._alloc:
            self._alloc[-1][1] = max(self._alloc[-1][1], peak)
        return peak - start


@contextmanager
def patched(tracer: Tracer):
    """Route every stpca binding of each STAGES function through `tracer`."""
    modules = [m for key, m in sys.modules.items() if key == "stpca" or key.startswith("stpca.")]
    saved = []
    for stage in STAGES:
        layer, attr = stage.split(".")
        fn = getattr(sys.modules[f"stpca.{layer}"], attr)
        wrapper = functools.wraps(fn)(functools.partial(tracer.call, stage, fn))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    saved.append((module, key, fn))
                    setattr(module, key, wrapper)
    try:
        yield
    finally:
        for module, key, fn in reversed(saved):
            setattr(module, key, fn)


def op_spans(spans: list[list], prefix: str) -> list[list[list]]:
    """The spans of each op whose id starts with `prefix`, one list per op."""
    grouped: dict[str, list[list]] = defaultdict(list)
    for span in spans:
        if span[OP] is not None and span[OP].startswith(prefix):
            grouped[span[OP]].append(span)
    return list(grouped.values())


def per_op_totals(spans: list[list], key: int | None = None) -> dict[str, float]:
    """Inclusive seconds (or, with key=ALLOC, the peak) per stage name in one op."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        if key is None:
            out[span[NAME]] += span[END] - span[START]
        else:
            out[span[NAME]] = max(out[span[NAME]], span[key])
    return out


def self_times(spans: list[list], prefix: str) -> dict:
    """Self time per stage over the ops whose id starts with `prefix`, and how
    much of each op's wall time the stages cover.

    A span's self time is its duration minus its children's. Summed over one
    op, self times equal the op's wall time; the root span's own self time is
    the uncovered remainder (benchmark glue and library code between stages).
    RSS is the process high-water mark at stage exit, and its rise during the
    stage, in MB.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    ops: dict[str, dict] = {}
    for index, span in enumerate(spans):
        if span[OP] is None or not span[OP].startswith(prefix):
            continue
        op = ops.setdefault(span[OP], {"self": defaultdict(float), "calls": defaultdict(int),
                                       "hwm": defaultdict(int), "rise": defaultdict(int)})
        name = span[NAME]
        op["self"][name] += span[END] - span[START] - child_time[index]
        op["calls"][name] += 1
        op["hwm"][name] = max(op["hwm"][name], span[RSS_OUT])
        op["rise"][name] += span[RSS_OUT] - span[RSS_IN]
        if span[PARENT] is None:
            op["root"], op["wall_s"] = name, span[END] - span[START]
    stages: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for op in ops.values():
        for name, own in op["self"].items():
            stages[name]["self_s"].append(own)
            stages[name]["calls"].append(op["calls"][name])
            stages[name]["hwm"].append(op["hwm"][name])
            stages[name]["rise"].append(op["rise"][name])
    return {
        "stages": {
            name: {
                "self_s_p50": statistics.median(f["self_s"]),
                "calls_per_op": statistics.median(f["calls"]),
                "rss_hwm_mb": max(f["hwm"]) / 1024,
                "rss_rise_mb_max": max(f["rise"]) / 1024,
            }
            for name, f in stages.items()
        },
        "ops": [
            {"op_id": op_id, "wall_s": op["wall_s"], "uncovered_s": op["self"][op["root"]],
             "self_sum_s": sum(op["self"].values())}
            for op_id, op in ops.items()
        ],
    }
