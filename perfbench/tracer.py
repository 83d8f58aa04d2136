"""Spans around calls into the package's public functions, taken from outside.

`Tracer.install` replaces each target function, in every loaded `pe_rank`
module that binds it, by a wrapper that records a span: name, start, end,
parent span and thread. Because every binding that *is* the target gets the
wrapper (`taskmetrics.ter`, `cli.ter` and `textmetrics.ter` alike), calls made
inside the package are seen too. Spans stay in memory until `layer_metrics`
turns them into per-layer numbers; each thread has its own stack, since
`score_corpus` may score segments on a thread pool.

A target that the package no longer has is skipped, and its metrics are
absent from the result.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

# (module, function) pairs whose calls are recorded.
TARGETS = (
    ("corpus", "load_corpus"),
    ("corpus", "tokenize"),
    ("textmetrics", "ter"),
    ("textmetrics", "word_edit_distance"),
    ("textmetrics", "bleu"),
    ("textmetrics", "meteor_lite"),
    ("taskmetrics", "score_segment"),
    ("taskmetrics", "all_view"),
    ("rankeval", "spearman"),
    ("rankeval", "satra"),
    ("rankeval", "rank_by"),
    ("rankeval", "tail_overlap"),
    ("rankeval", "fractional_ranks"),
    ("stats", "williams_test"),
    ("stats", "weighted_mean_std"),
    ("stats", "ks_two_sample"),
    ("stats", "cluster_annotators"),
    ("cli", "read_scores"),
    ("cli", "write_scores"),
    ("cli", "score_corpus"),
    ("cli", "build_rank_table"),
    ("cli", "build_loo_table"),
    ("cli", "build_tails"),
    ("cli", "main"),
)

# Upper ends of the TER length buckets, by the longer of the two token lists.
TER_BUCKETS = (("len_lt20", 20), ("len_20_39", 40), ("len_40_59", 60), ("len_ge60", None))

NAME, START, END, PARENT, THREAD, EXTRA = range(6)


def _ter_extra(args, kwargs, result):
    hyp = args[0] if args else kwargs["hyp"]
    ref = args[1] if len(args) > 1 else kwargs["ref"]
    return (max(len(hyp), len(ref)), result.breakdown["shifts"], (tuple(hyp), tuple(ref)))


def _rows_extra(args, kwargs, result):
    return len(result)


# Per-target facts kept on the span, computed from the call's arguments and result.
EXTRAS: dict[str, Callable] = {
    "textmetrics.ter": _ter_extra,
    "cli.read_scores": _rows_extra,
}
# Targets whose span also records process CPU seconds (all threads).
CPU_TIMED = {"cli.score_corpus"}


class Tracer:
    """Records spans for the targets while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.installed: list[str] = []  # targets found, as `<module>.<function>`

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, local, clock = self.spans, self._local, time.perf_counter
        extra = EXTRAS.get(name)
        cpu = name in CPU_TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), None]
            spans.append(span)
            stack.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if cpu:
                span[EXTRA] = time.process_time() - cpu0
            elif extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self.installed = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pe_rank" or n.startswith("pe_rank."))]
        for mod_name, fn_name in TARGETS:
            owner = sys.modules.get(f"pe_rank.{mod_name}")
            target = getattr(owner, fn_name, None)
            if target is None:
                continue
            self.installed.append(f"{mod_name}.{fn_name}")
            wrapper = self._wrap(f"{mod_name}.{fn_name}", target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def layer_metrics(spans: list[list], installed: list[str]) -> dict[str, float]:
    """Per-layer metrics named `<module>.<function>.<stat>` from one pass's spans.

    For every installed target: `calls`, `s` (summed span time) and `self_s`
    (span time not covered by its child spans). Plus the TER shift, length
    bucket and distinct-pair figures, the rows `read_scores` returned and the
    CPU seconds `score_corpus` used.
    """
    child_time: dict[int, float] = defaultdict(float)
    by_name: dict[str, list[list]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
        if span[PARENT] is not None:
            child_time[id(span[PARENT])] += span[END] - span[START]
    out: dict[str, float] = {}
    for name in installed:
        own = by_name[name]
        total = sum(s[END] - s[START] for s in own)
        out[f"{name}.calls"] = len(own)
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = total - sum(child_time[id(s)] for s in own)

    if "textmetrics.ter" in installed:
        ter = by_name["textmetrics.ter"]
        calls = len(ter)
        shifts = sum(s[EXTRA][1] for s in ter)
        out["textmetrics.ter.shifts"] = shifts
        out["textmetrics.ter.distinct_frac"] = (
            len({s[EXTRA][2] for s in ter}) / calls if calls else 0.0
        )
        if "textmetrics.word_edit_distance" in installed:
            wed_calls = out["textmetrics.word_edit_distance.calls"]
            out["textmetrics.ter.shift_yield"] = shifts / wed_calls if wed_calls else 0.0
        lower = 0
        for label, upper in TER_BUCKETS:
            hit = [s for s in ter if lower <= s[EXTRA][0] and (upper is None or s[EXTRA][0] < upper)]
            out[f"textmetrics.ter.{label}.calls"] = len(hit)
            out[f"textmetrics.ter.{label}.s"] = sum(s[END] - s[START] for s in hit)
            lower = upper
    if "cli.read_scores" in installed:
        out["cli.read_scores.rows"] = sum(s[EXTRA] for s in by_name["cli.read_scores"])
    if "cli.score_corpus" in installed:
        out["cli.score_corpus.cpu_s"] = sum(s[EXTRA] for s in by_name["cli.score_corpus"])
    return out


def write_spans(spans: list[list], path) -> None:
    """One span per line: index, name, start, end (seconds), parent index, thread."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = min((s[START] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\tthread\n")
        for i, s in enumerate(spans):
            parent = "" if s[PARENT] is None else index[id(s[PARENT])]
            fh.write(f"{i}\t{s[NAME]}\t{s[START] - t0:.9f}\t{s[END] - t0:.9f}\t{parent}\t{s[THREAD]}\n")
