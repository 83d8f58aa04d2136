"""Independent oracle implementations used only by the tests.

Everything here is deliberately naive: full-matrix dynamic programming,
the two-row DP and DP-scored greedy TER that the package used before its
bit-parallel edit distance (`dp_word_edit_distance`, `dp_ter`), the
bit-parallel greedy TER that scored every candidate shift to the end before
the package pruned candidates by bounds on their gain (`unpruned_ter`),
breadth-first search over shift sequences, exhaustive alignment enumeration,
plain rank-then-Pearson arithmetic, the leave-one-out mean as Python's `sum`
adds it (`loo_mean`), and the loops and sort key that ranked and scored
rankings before numpy did (`tie_loop_fractional_ranks`, `signed_key_ranking`,
`satra_loop`), a TSV file parsed line by line and cell by
cell (`row_read_tsv`), a scores file read through it into per-annotator
columns (`row_score_views`), and the hand-written forms that the package
replaced with standard library and numpy calls (`dp_longest_common_run`,
`clipped_matches` behind `comprehension_bleu` and `meteor_by_enumeration`,
`moments_weighted_mean_std`, `replace_chain_escape`), and the incomplete
beta continued fraction with its two Lentz updates written out
(`unfolded_beta_cont_frac`). None of it shares code with the package so a
bug cannot hide on both sides of a comparison, except
`score_corpus_per_session`, which checks how scoring fans out over sessions,
not the metrics, and so calls the package's metric functions. `row_read_tsv`
takes only `CorpusError`, the type it must raise, and the `MINIMUM` table of
column rules from the package.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


def shift_moves(state: Sequence[str], ref: Sequence[str], max_block: int = 10):
    """Every legal block shift of `state` as (block start, block length, dest,
    shifted state): the block must match a reference span, must not already
    match the reference at its own position, and lands at the (clamped)
    position of a reference occurrence. Moves come in (start, length, dest)
    order."""
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
                yield b, length, dest, tuple(removed[:dest] + block + removed[dest:])


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
            for *_, moved in shift_moves(state, ref, max_block):
                if moved not in visited:
                    visited.add(moved)
                    nxt.add(moved)
        for state in nxt:
            best = min(best, shifts + ed(state))
        frontier = nxt
    return best


def dp_word_edit_distance(hyp: Sequence[str], ref: Sequence[str]) -> int:
    """Levenshtein distance over tokens by the two-row DP that the package
    used before its bit-parallel form."""
    if len(hyp) < len(ref):  # fewer columns, same result (the metric is symmetric)
        hyp, ref = ref, hyp
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, 1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (h != r))
        prev = cur
    return prev[-1]


def edit_breakdown(hyp: Sequence[str], ref: Sequence[str]) -> tuple[int, int, int]:
    """(insertions, deletions, substitutions) along the optimal path that
    prefers match, then substitution, then deletion, backtraced from the end."""
    n, m = len(hyp), len(ref)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + (hyp[i - 1] != ref[j - 1]),
            )
    ins = dels = subs = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (hyp[i - 1] != ref[j - 1]):
            if hyp[i - 1] != ref[j - 1]:
                subs += 1
            i -= 1
            j -= 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return ins, dels, subs


def dp_ter(hyp: Sequence[str], ref: Sequence[str], max_block: int = 10) -> dict:
    """Greedy TER as the package computed it before its bit-parallel form:
    every legal shift is scored with a fresh DP, the shift with the largest
    gain wins (ties: smallest block start, shortest block, leftmost dest),
    and shifting stops when no shift strictly lowers the distance. Returns
    the fields of a `TerResult` as a dict."""
    current = list(hyp)
    shifts = 0
    dist = dp_word_edit_distance(current, ref)
    while dist > 0:
        best_key = None
        best_hyp = None
        for b, length, dest, shifted in shift_moves(current, ref, max_block):
            gain = dist - dp_word_edit_distance(shifted, ref)
            if gain < 1:
                continue
            key = (-gain, b, length, dest)
            if best_key is None or key < best_key:
                best_key = key
                best_hyp = list(shifted)
        if best_key is None:
            break
        shifts += 1
        dist += best_key[0]
        current = best_hyp
    ins, dels, subs = edit_breakdown(current, ref)
    edits = shifts + dist
    return {
        "edits": edits,
        "ref_len": len(ref),
        "score": edits / len(ref),
        "breakdown": {"insertions": ins, "deletions": dels, "substitutions": subs, "shifts": shifts},
    }


def unpruned_ter(hyp: Sequence[str], ref: Sequence[str], max_block: int = 10) -> dict:
    """Greedy TER as the package computed it before it pruned candidates by
    bounds on their gain: the rules and tie break of `dp_ter`, with every
    candidate scored to the end by Hyyrö's bit-parallel Levenshtein, resumed
    from the DP column of the prefix it shares with the current hypothesis.
    Returns the fields of a `TerResult` as a dict."""
    m = len(ref)
    mask, high = (1 << m) - 1, 1 << (m - 1)
    peq: dict[str, int] = {}
    starts: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        peq[tok] = peq.get(tok, 0) | 1 << j
        starts.setdefault(tok, []).append(j)

    def advance(tokens, vp, vn, dist):
        for tok in tokens:
            eq = peq.get(tok, 0)
            xv = eq | vn
            xh = (((eq & vp) + vp) ^ vp) | eq
            ph = vn | ~(xh | vp)
            mh = vp & xh
            dist += 1 if ph & high else -1 if mh & high else 0
            ph = ph << 1 | 1
            vp = (mh << 1 | ~(xv | ph)) & mask
            vn = ph & xv
        return vp, vn, dist

    current = list(hyp)
    shifts = 0
    dist = advance(current, mask, 0, m)[2]
    while dist > 0:
        columns = [(mask, 0, m)]  # columns[k]: after current[:k]
        for tok in current:
            columns.append(advance((tok,), *columns[-1]))
        n = len(current)
        best_key = None
        best_hyp = None
        for b in range(n):
            positions = starts.get(current[b], [])
            for length in range(1, min(max_block, n - b) + 1):
                if length > 1:
                    token, last = current[b + length - 1], m - length
                    positions = [r for r in positions if r <= last and ref[r + length - 1] == token]
                if not positions:
                    break
                block = current[b : b + length]
                if block == list(ref[b : b + length]):
                    continue
                removed = current[:b] + current[b + length :]
                last_dest = -1
                for rpos in positions:
                    dest = min(rpos, n - length)
                    if dest == b or dest == last_dest:
                        continue
                    last_dest = dest
                    shifted = removed[:dest] + block + removed[dest:]
                    k = min(b, dest)
                    gain = dist - advance(shifted[k:], *columns[k])[2]
                    if gain < 1:
                        continue
                    key = (-gain, b, length, dest)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_hyp = shifted
        if best_key is None:
            break
        shifts += 1
        dist += best_key[0]
        current = best_hyp
    ins, dels, subs = edit_breakdown(current, ref)
    edits = shifts + dist
    return {
        "edits": edits,
        "ref_len": m,
        "score": edits / m,
        "breakdown": {"insertions": ins, "deletions": dels, "substitutions": subs, "shifts": shifts},
    }


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


def dp_longest_common_run(hyp: Sequence[str], ref: Sequence[str]) -> int:
    """Length of the longest run of tokens found in both, by the two-row DP
    that the package used before `difflib`."""
    best = 0
    prev = [0] * (len(ref) + 1)
    for i in range(1, len(hyp) + 1):
        cur = [0] * (len(ref) + 1)
        for j in range(1, len(ref) + 1):
            if hyp[i - 1] == ref[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best


def clipped_matches(hyp_counts: Counter, ref_counts: Counter) -> dict:
    """Each hypothesis item present in the reference -> the smaller of its two
    counts, by the comprehension the package used before `Counter`'s `&`."""
    return {w: min(c, ref_counts[w]) for w, c in hyp_counts.items() if ref_counts[w]}


def comprehension_bleu(hyp: Sequence[str], ref: Sequence[str], max_n: int = 4) -> float:
    """Sentence BLEU as the package computes it, with the clipped n-gram counts
    of `clipped_matches` (the same add-one smoothing and brevity penalty)."""
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        hyp_counts = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        ref_counts = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        matched = sum(clipped_matches(hyp_counts, ref_counts).values())
        total = max(len(hyp) - n + 1, 0)
        if n == 1:
            if matched == 0:
                return 0.0
        elif matched == 0:
            matched += 1
            total += 1
        log_sum += math.log(matched / total)
    brevity = math.exp(1 - len(ref) / len(hyp)) if len(hyp) < len(ref) else 1.0
    return brevity * math.exp(log_sum / max_n)


def meteor_by_enumeration(hyp: Sequence[str], ref: Sequence[str]) -> dict:
    """The fields of `MeteorResult` for a pair short enough to enumerate: the
    matches of `clipped_matches`, the chunks of `brute_min_chunks`, and the
    package's arithmetic on them."""
    matches = sum(clipped_matches(Counter(hyp), Counter(ref)).values())
    if matches == 0:
        return dict(matches=0, chunks=0, precision=0.0, recall=0.0, fmean=0.0, penalty=0.0,
                    score=0.0)
    chunks = brute_min_chunks(hyp, ref)[1]
    precision, recall = matches / len(hyp), matches / len(ref)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return dict(matches=matches, chunks=chunks, precision=precision, recall=recall,
                fmean=fmean, penalty=penalty, score=fmean * (1 - penalty))


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


def moments_weighted_mean_std(
    values: Sequence[float], weights: Sequence[float]
) -> tuple[float, float]:
    """Weighted mean and population-form weighted std, by the moment sums the
    package used before `np.average` (inputs already checked)."""
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    x = np.asarray(values, dtype=float)
    mean = float((w * x).sum() / total)
    return mean, float(math.sqrt((w * (x - mean) ** 2).sum() / total))


def unfolded_beta_cont_frac(a: float, b: float, x: float) -> float:
    """The incomplete beta continued fraction by Lentz's method, as the package
    wrote it before it folded the even and odd updates into one loop body."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


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


def _row_lines(source, label: str) -> Iterator[str]:
    """Lines without their LF and one trailing CR, read one at a time; a file
    is decoded line by line, and a line that is not UTF-8 raises CorpusError
    naming `label` and the line."""
    from pe_rank.corpus import CorpusError

    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CorpusError(f"{label}: line {lineno}: {exc}") from None
                yield line.removesuffix("\n").removesuffix("\r")
    else:
        for raw in source:
            yield raw.removesuffix("\n").removesuffix("\r")


def replace_chain_escape(value: str) -> str:
    """A text field as written on disk, by the chain of `replace` calls the
    package used before `str.translate`: the backslash first, so that no
    escape it writes is escaped again."""
    return (
        value.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_ROW_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _row_cell_parser(column: str, annotation: str):
    """Parser of one column's cells, chosen by its dataclass field annotation.

    `str` cells are unescaped; `int`, `float` and `float | None` cells must be
    finite numbers no smaller than the column's MINIMUM, an int no larger
    than int64's maximum, and an empty `float | None` cell is None. Raises
    ValueError naming the column.
    """
    from pe_rank.corpus import MINIMUM

    if annotation == "str":
        return lambda raw: re.sub(r"\\([\\tnr])", lambda m: _ROW_UNESCAPES[m[1]], raw)
    number = {"int": int, "float": float, "float | None": float}[annotation]
    nullable = annotation == "float | None"
    minimum = MINIMUM.get(column)

    def parse(raw: str):
        if nullable and raw == "":
            return None
        try:
            value = number(raw)
        except ValueError:
            raise ValueError(f"non-numeric {column} {raw!r}") from None
        if number is float and not math.isfinite(value):
            raise ValueError(f"non-finite {column} {raw!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"{column} {raw!r} below minimum {minimum}")
        if number is int and value > 2**63 - 1:
            raise ValueError(f"{column} {raw!r} above maximum {2**63 - 1}")
        return value

    return parse


def row_read_tsv(
    source: str | Path | Iterable[str], cls: type, label: str, optional: Sequence[str] = ()
) -> Iterator[tuple[int, object]]:
    """`pe_rank.corpus.read_tsv` as it was before its column parse: one line,
    then one cell, at a time.

    Yields (line number, cls instance) per data row; raises CorpusError
    naming `label`, and the line for a bad row.
    """
    from pe_rank.corpus import CorpusError

    lines = enumerate(_row_lines(source, label), start=1)
    header = next((line.split("\t") for _, line in lines if line), None)
    if header is None:
        raise CorpusError(f"{label}: empty input (header row required)")
    names = [f.name for f in fields(cls)]
    for col in header:
        if header.count(col) > 1:
            raise CorpusError(f"{label}: duplicate column '{col}'")
    for name in names:
        if name not in header and name not in optional:
            raise CorpusError(f"{label}: missing required column '{name}'")
    for col in header:
        if col not in names:
            raise CorpusError(f"{label}: unexpected column '{col}'")
    plan = [
        (header.index(f.name) if f.name in header else None, _row_cell_parser(f.name, f.type))
        for f in fields(cls)
    ]
    for lineno, line in lines:
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise CorpusError(
                f"{label}: line {lineno}: expected {len(header)} fields, got {len(cells)}"
            )
        try:
            row = cls(*[parse("" if i is None else cells[i]) for i, parse in plan])
        except ValueError as exc:
            raise CorpusError(f"{label}: line {lineno}: {exc}") from None
        yield lineno, row


def row_score_views(path) -> dict:
    """A scores file read row by row, as the commands read it before the
    columnar reader: `row_read_tsv`'s rows, the duplicate and mt_tokens checks
    naming the line, then every row's float cells grouped per annotator.

    Returns `segment_ids` and `annotators` (sorted, ALL left out), `gaps`
    (annotator -> segment ids its rows lack, sorted) and `columns`
    (annotator -> field -> array in segment id order, gaps left out; every
    view's `mt_tokens` is the one column over all segments). Raises what the
    commands raised for a bad file.
    """
    from pe_rank.corpus import ALL_ANNOTATORS, CorpusError
    from pe_rank.taskmetrics import SegmentScores

    names = [f.name for f in fields(SegmentScores) if f.type.startswith("float")]
    seen: dict[str, set[str]] = {}
    tokens: dict[str, int] = {}
    read: dict[str, list[tuple[str, list[float]]]] = {}
    for lineno, row in row_read_tsv(path, SegmentScores, "scores"):
        sid, annotator = row.segment_id, row.annotator_id
        if sid in seen.setdefault(annotator, set()):
            raise CorpusError(
                f"scores: line {lineno}: duplicate row for segment "
                f"'{sid}', annotator '{annotator}'"
            )
        seen[annotator].add(sid)
        if tokens.setdefault(sid, row.mt_tokens) != row.mt_tokens:
            raise CorpusError(
                f"scores: line {lineno}: mt_tokens {row.mt_tokens} for segment '{sid}'"
                f" differs from {tokens[sid]} on an earlier row"
            )
        values = [getattr(row, name) for name in names]
        read.setdefault(annotator, []).append(
            (sid, [math.nan if v is None else v for v in values])
        )
    segment_ids = sorted(tokens)
    mt_tokens = np.array([tokens[sid] for sid in segment_ids])
    columns = {}
    for annotator, view in read.items():
        view.sort(key=lambda item: item[0])
        columns[annotator] = {
            name: np.array([cells[i] for _, cells in view], dtype=float)
            for i, name in enumerate(names)
        }
        columns[annotator]["mt_tokens"] = mt_tokens
    return {
        "segment_ids": segment_ids,
        "annotators": sorted(read.keys() - {ALL_ANNOTATORS}),
        "gaps": {a: sorted(tokens.keys() - seen[a]) for a in read},
        "columns": columns,
    }
