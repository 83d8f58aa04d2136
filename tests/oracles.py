"""Independent oracle implementations used only by the tests.

Everything here is deliberately naive: full-matrix dynamic programming,
breadth-first search over shift sequences, exhaustive alignment enumeration,
plain rank-then-Pearson arithmetic, the leave-one-out mean as Python's `sum`
adds it (`loo_mean`), and the loops and sort key that ranked and scored
rankings before numpy did (`tie_loop_fractional_ranks`, `signed_key_ranking`,
`satra_loop`, `delta_avg_loop`). None of it shares code
with the package so a bug cannot hide on both sides of a comparison, except
`score_corpus_per_session`: it checks how scoring fans out over sessions, not
the metrics, so it calls the package's metric functions.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np


def levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[-1][-1]


def shift_moves(state: tuple[str, ...], ref: Sequence[str], max_block: int = 10):
    """Every legal block shift of `state`: the block must match a reference
    span, must not already match the reference at its own position, and lands
    at the (clamped) position of a reference occurrence."""
    n = len(state)
    for b in range(n):
        for length in range(1, min(max_block, n - b) + 1):
            block = list(state[b : b + length])
            if block == list(ref[b : b + length]):
                continue
            removed = list(state[:b]) + list(state[b + length :])
            dests = set()
            for rpos in range(len(ref) - length + 1):
                if list(ref[rpos : rpos + length]) != block:
                    continue
                dest = min(rpos, len(removed))
                if dest == b or dest in dests:
                    continue
                dests.add(dest)
                yield tuple(removed[:dest] + block + removed[dest:])


def exhaustive_shift_min(hyp: Sequence[str], ref: Sequence[str], max_block: int = 10) -> int:
    """Minimum (shifts + remaining edit distance) over ALL shift sequences."""
    start = tuple(hyp)
    ed_cache: dict[tuple[str, ...], int] = {}

    def ed(state: tuple[str, ...]) -> int:
        if state not in ed_cache:
            ed_cache[state] = levenshtein(state, ref)
        return ed_cache[state]

    best = ed(start)
    frontier = {start}
    visited = {start}
    shifts = 0
    while frontier and shifts + 1 < best:
        shifts += 1
        nxt = set()
        for state in frontier:
            for moved in shift_moves(state, ref, max_block):
                if moved not in visited:
                    visited.add(moved)
                    nxt.add(moved)
        for state in nxt:
            best = min(best, shifts + ed(state))
        frontier = nxt
    return best


def brute_min_chunks(hyp: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """(max matches, min chunks over all maximum alignments), by enumeration."""
    need = {w: min(hyp.count(w), ref.count(w)) for w in set(hyp)}
    need = {w: c for w, c in need.items() if c}
    matches = sum(need.values())
    if matches == 0:
        return 0, 0
    best = [matches]  # chunks can never exceed matches

    def count_chunks(pairs: list[tuple[int, int]]) -> int:
        chunks = 0
        prev = None
        for i, j in pairs:  # pairs arrive sorted by hyp index
            if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
                chunks += 1
            prev = (i, j)
        return chunks

    def recurse(i: int, left: dict[str, int], used: set[int], pairs: list[tuple[int, int]]):
        if i == len(hyp):
            if sum(left.values()) == 0:
                best[0] = min(best[0], count_chunks(pairs))
            return
        w = hyp[i]
        if left.get(w, 0) > 0:
            for j, rw in enumerate(ref):
                if rw == w and j not in used:
                    left[w] -= 1
                    used.add(j)
                    recurse(i + 1, left, used, pairs + [(i, j)])
                    used.discard(j)
                    left[w] += 1
        recurse(i + 1, left, used, pairs)

    recurse(0, dict(need), set(), [])
    return matches, best[0]


def rank_pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rho computed the long way: average ranks, then Pearson."""

    def ranks(v: Sequence[float]) -> list[float]:
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(x), ranks(y)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def tie_loop_fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """Average ranks by walking each run of equal values in a stable argsort."""
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(len(a), dtype=float)
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def signed_key_ranking(values: dict[str, float], higher_is_more_effort: bool) -> list[str]:
    """Ids sorted by (sign * value, id): least effort first, ties on the id."""
    sign = 1.0 if higher_is_more_effort else -1.0
    return sorted(values, key=lambda sid: (sign * values[sid], sid))


def loo_mean(columns: Sequence[Sequence[float]]) -> list[float]:
    """Per-segment mean of the columns: Python's sum over the zipped values, then divide."""
    return [sum(values) / len(values) for values in zip(*columns)]


def satra_directly(times: Sequence[float], lengths: Sequence[int]) -> float:
    n = len(times)
    acc = 0.0
    for j in range(1, n):
        top = sum(times[:j]) / sum(lengths[:j])
        bottom = sum(times[j:]) / sum(lengths[j:])
        acc += top / bottom
    return acc / (n - 1)


def _added(values: Sequence[float]) -> float:
    """The values added in order from 0.0 with `+=`. Python 3.12's `sum` adds
    floats with compensation, so it would round differently by version."""
    total = 0.0
    for v in values:
        total += v
    return total


def satra_loop(times: Sequence[float], lengths: Sequence[int]) -> float:
    """SATRA as one pass over the splits of a ranking, least effort first.

    A zero-time suffix raises ValueError; a suffix whose time per word
    underflows to 0 raises ZeroDivisionError; overflow returns inf or NaN.
    """
    n = len(times)
    total_time = _added(times)
    total_len = 0
    for length in lengths:
        total_len += length
    time_prefix = 0.0
    len_prefix = 0
    acc = 0.0
    for j in range(n - 1):
        time_prefix += times[j]
        len_prefix += lengths[j]
        time_suffix = total_time - time_prefix
        len_suffix = total_len - len_prefix
        if time_suffix <= 0:
            raise ValueError("degenerate times: zero-time suffix")
        acc += (time_prefix / len_prefix) / (time_suffix / len_suffix)
    return acc / (n - 1)


def delta_avg_loop(ranking: Sequence[str], gold: dict[str, float], quantiles: int) -> float:
    """DeltaAVG with every head mean added from scratch (inputs assumed valid)."""
    n = len(ranking)
    values = [gold[sid] for sid in ranking]
    overall = _added(values) / n
    base = n // quantiles
    acc = 0.0
    head = 0
    for _ in range(quantiles - 1):
        head += base
        acc += _added(values[:head]) / head - overall
    return acc / (quantiles - 1)


def brute_force_min_satra(times: Sequence[float], lengths: Sequence[int]) -> float:
    n = len(times)
    return min(
        satra_directly([times[i] for i in perm], [lengths[i] for i in perm])
        for perm in itertools.permutations(range(n))
    )


def score_corpus_per_session(corpus) -> list:
    """Scores rows built one session at a time, with nothing shared.

    TER/BLEU/METEOR against the independent reference are recomputed for
    every session; a segment's ALL row is the `all_view` of its session rows,
    or a reference-only row when it has none. Rows are sorted by segment id,
    then annotator id, with the ALL row last.
    """
    from pe_rank.corpus import ALL_ANNOTATORS, mt_char_count, tokenize
    from pe_rank.taskmetrics import SegmentScores, all_view, keys_per_char, petpw
    from pe_rank.textmetrics import bleu, meteor_lite, ter

    out = []
    for seg in sorted(corpus.segments, key=lambda s: s.id):
        sessions = [s for s in corpus.sessions if s.segment_id == seg.id]
        rows = []
        for sess in sorted(sessions, key=lambda s: s.annotator_id):
            hyp = tokenize(seg.mt)
            ref = tokenize(seg.reference)
            pe = tokenize(sess.pe_text)
            rows.append(
                SegmentScores(
                    segment_id=seg.id,
                    annotator_id=sess.annotator_id,
                    mt_tokens=len(hyp),
                    pe_time_sec=sess.pe_time_sec,
                    petpw=petpw(sess.pe_time_sec, len(hyp)),
                    keys_per_char=keys_per_char(sess.keystrokes, mt_char_count(seg.mt)),
                    hter=ter(hyp, pe).score,
                    hbleu=bleu(hyp, pe),
                    hmeteor=meteor_lite(hyp, pe).score,
                    ter=ter(hyp, ref).score,
                    bleu=bleu(hyp, ref),
                    meteor=meteor_lite(hyp, ref).score,
                    da=seg.da,
                )
            )
        if rows:
            rows.append(all_view(rows))
        else:
            hyp = tokenize(seg.mt)
            ref = tokenize(seg.reference)
            rows.append(
                SegmentScores(
                    segment_id=seg.id,
                    annotator_id=ALL_ANNOTATORS,
                    mt_tokens=len(hyp),
                    pe_time_sec=None,
                    petpw=None,
                    keys_per_char=None,
                    hter=None,
                    hbleu=None,
                    hmeteor=None,
                    ter=ter(hyp, ref).score,
                    bleu=bleu(hyp, ref),
                    meteor=meteor_lite(hyp, ref).score,
                    da=seg.da,
                )
            )
        out.extend(rows)
    return out
