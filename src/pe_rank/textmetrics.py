"""Sentence-level text similarity metrics over token lists.

All operations are pure functions of their inputs. The same functions serve
two roles: scored against an independent reference they give TER/BLEU/METEOR,
scored against the post-edited version of the hypothesis they give the
human-targeted variants (HTER/HBLEU/HMETEOR).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Iterable, Sequence

# Standard TER shift constraints: blocks of at most this many tokens may be
# moved; the move distance is unbounded.
MAX_SHIFT_BLOCK = 10

# Exact chunk minimization for METEOR is bounded to this sentence length;
# longer sentences fall back to the greedy aligner.
METEOR_EXACT_LIMIT = 20

# Chunk minimization over maximum matchings is NP-hard in general; natural
# sentences stay far below this node budget, but adversarial inputs (many
# repeats of the same token) would otherwise take exponential time. When the
# budget runs out the best alignment found so far is used.
METEOR_SEARCH_BUDGET = 400_000


@dataclass(frozen=True)
class TerResult:
    edits: int
    ref_len: int
    score: float
    breakdown: dict[str, int]


@dataclass(frozen=True)
class MeteorResult:
    matches: int
    chunks: int
    precision: float
    recall: float
    fmean: float
    penalty: float
    score: float


def _match_masks(ref: Sequence[str]) -> dict[str, int]:
    """Per token, the bit mask of its positions in `ref` (bit j for ref[j])."""
    peq: dict[str, int] = {}
    for j, tok in enumerate(ref):
        peq[tok] = peq.get(tok, 0) | 1 << j
    return peq


def _advance(
    tokens: Iterable[str], peq: dict[str, int], m: int, vp: int, vn: int, dist: int
) -> tuple[int, int, int]:
    """Carry the DP column against a length-m reference over `tokens`.

    The column is held as Hyyrö's vertical delta vectors: bit j of `vp`
    (`vn`) is set when D[j+1] - D[j] is +1 (-1); `dist` is its last cell.
    """
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    for tok in tokens:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)
        mh = vp & xh
        if ph & high:
            dist += 1
        elif mh & high:
            dist -= 1
        ph = ph << 1 | 1  # row 0 of the global DP grows by one per token
        vp = (mh << 1 | ~(xv | ph)) & mask
        vn = ph & xv
    return vp, vn, dist


def word_edit_distance(hyp: Sequence[str], ref: Sequence[str]) -> int:
    """Levenshtein distance over tokens with unit costs.

    Bit-parallel (Myers 1999, in Hyyrö's 2001 edit-distance form): the
    reference is the pattern, one bit per reference token, and each
    hypothesis token advances the whole DP column in a few int operations.
    """
    m = len(ref)
    if not m:
        return len(hyp)
    return _advance(hyp, _match_masks(ref), m, (1 << m) - 1, 0, m)[2]


def _columns(
    tokens: Iterable[str], peq: dict[str, int], m: int, vp: int, vn: int, dist: int
) -> list[tuple[int, int, int]]:
    """The DP column (vp, vn, dist) after each of `tokens`, carried on from
    the given column."""
    out = []
    for tok in tokens:
        vp, vn, dist = _advance((tok,), peq, m, vp, vn, dist)
        out.append((vp, vn, dist))
    return out


def _edit_breakdown(
    hyp: Sequence[str], ref: Sequence[str], states: list[tuple[int, int, int]]
) -> tuple[int, int, int]:
    """(insertions, deletions, substitutions) along one fixed-preference optimal path.

    Transforms hyp into ref: a deletion removes a hyp token, an insertion adds
    a ref token. Co-optimal paths can trade a substitution for other kinds, so
    the backtrace prefers match, then substitution, then deletion. Each DP
    cell D[i][j] (hyp[:i] against ref[:j]) is read off `states[i]`, the
    column after hyp[:i]: i plus the vertical deltas of its rows below j.
    """

    def cell(i: int, j: int) -> int:
        low = (1 << j) - 1
        return i + (states[i][0] & low).bit_count() - (states[i][1] & low).bit_count()

    ins = dels = subs = 0
    i, j = len(hyp), len(ref)
    while i > 0 or j > 0:
        here = cell(i, j)
        if i > 0 and j > 0 and here == cell(i - 1, j - 1) + (hyp[i - 1] != ref[j - 1]):
            if hyp[i - 1] != ref[j - 1]:
                subs += 1
            i -= 1
            j -= 1
        elif i > 0 and here == cell(i - 1, j) + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return ins, dels, subs


def _token_positions(ref: Sequence[str]) -> dict[str, list[int]]:
    """Each reference token -> the positions it occurs at, ascending."""
    positions: dict[str, list[int]] = {}
    for rpos, token in enumerate(ref):
        positions.setdefault(token, []).append(rpos)
    return positions


def ter(hyp: Sequence[str], ref: Sequence[str]) -> TerResult:
    """Translation edit rate with greedy block shifts.

    Repeatedly applies the shift that most reduces the remaining edit
    distance (ties: smallest block start, then shortest block, then leftmost
    destination); each shift costs one edit and is only taken when it strictly
    reduces the distance, so total edits never exceed the plain edit distance.

    A shift moves a block that matches a reference span, and does not already
    match the reference at its own position, to where an occurrence of that
    span starts (clamped to the end). Moving the block H[b : b + length] of
    the current hypothesis H to `dest` gives S, which agrees with H outside
    the window [lo, hi) = [min(b, dest), max(b, dest) + length).

    Candidates come in (b, length, dest) order, so one whose gain
    ed(H, R) - ed(S, R) only ties the best gain so far never wins the tie
    break. A candidate is dropped as soon as one of two bounds on its gain
    is at most the best gain so far:

    - Move bound: gain <= 2 * min(length, |dest - b|). By the triangle
      inequality ed(H, R) <= ed(H, S) + ed(S, R), so gain <= ed(H, S), and S
      is H with either the block or the |dest - b| tokens it passes deleted
      and inserted again on the other side.
    - Column bound: every alignment path crosses DP column k at some row j,
      so ed(X + Y, R) = min_j ed(X, R[:j]) + ed(Y, R[j:]). For k >= hi, H
      and S share Y = H[k:]; with j the row that is optimal for S,
      gain <= C_H[j] - C_S[j] <= max_j (C_H[j] - C_S[j]), where C_H and C_S
      are the columns after H[:k] and S[:k]. Both are k in row 0 and move
      by their vertical deltas, so C_H - C_S grows by at most one per row
      where C_H steps up and C_S does not, and one per row where C_S steps
      down and C_H does not: gain <= popcount(vp_H & ~vp_S) +
      popcount(vn_S & ~vn_H).

    So S's column starts from H's stored column at lo, crosses the window,
    and is carried over the shared suffix only while the column bound
    leaves room to beat the best gain; a scan that reaches the end has the
    exact gain.
    """
    if not ref:
        raise ValueError("empty reference")
    m = len(ref)
    peq = _match_masks(ref)
    starts = _token_positions(ref)
    current = list(hyp)
    n = len(current)
    states = [((1 << m) - 1, 0, m)]  # states[k]: the column after current[:k]
    states += _columns(current, peq, m, *states[0])
    dist = states[n][2]
    shifts = 0
    while dist > 0:
        best = 0  # the best gain so far; a candidate must beat it
        best_shift: tuple[int, int, list[str]] | None = None
        for b in range(n):
            positions = starts.get(current[b], [])  # where the block occurs in ref
            for length in range(1, min(MAX_SHIFT_BLOCK, n - b) + 1):
                if length > 1:  # keep the occurrences of the shorter block it extends
                    token, last = current[b + length - 1], m - length
                    positions = [
                        r for r in positions if r <= last and ref[r + length - 1] == token
                    ]
                if not positions:
                    break  # no longer block from b is a reference span either
                if 2 * length <= best or b in positions:
                    continue  # move bound, or aligned in place (not a repair)
                block = current[b : b + length]
                last_dest = -1
                for rpos in positions:
                    dest = min(rpos, n - length)
                    if dest == b or dest == last_dest:  # clamped dests repeat in a run
                        continue
                    last_dest = dest
                    if 2 * abs(dest - b) <= best:
                        continue  # move bound
                    if dest < b:
                        lo, hi, window = dest, b + length, block + current[dest:b]
                    else:
                        lo, hi = b, dest + length
                        window = current[b + length : hi] + block
                    vp, vn, d = _advance(window, peq, m, *states[lo])
                    for k in range(hi, n):
                        cvp, cvn, _ = states[k]
                        if (cvp & ~vp).bit_count() + (vn & ~cvn).bit_count() <= best:
                            break  # column bound
                        vp, vn, d = _advance((current[k],), peq, m, vp, vn, d)
                    else:
                        if dist - d > best:
                            best = dist - d
                            best_shift = (lo, hi, window)
        if best_shift is None:
            break
        lo, hi, window = best_shift
        current[lo:hi] = window
        states[lo + 1 :] = _columns(current[lo:], peq, m, *states[lo])
        shifts += 1
        dist -= best
    ins, dels, subs = _edit_breakdown(current, ref, states)
    edits = shifts + dist
    return TerResult(
        edits=edits,
        ref_len=m,
        score=edits / m,
        breakdown={
            "insertions": ins,
            "deletions": dels,
            "substitutions": subs,
            "shifts": shifts,
        },
    )


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hyp: Sequence[str], ref: Sequence[str], max_n: int = 4) -> float:
    """Sentence BLEU with add-one smoothing on zero counts for n >= 2.

    Returns 0 when the hypothesis is empty or shares no unigram with the
    reference. Brevity penalty exp(1 - |ref|/|hyp|) applies only to short
    hypotheses.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if not ref:
        raise ValueError("empty reference")
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matched = sum((_ngram_counts(hyp, n) & _ngram_counts(ref, n)).values())  # clipped
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


def _greedy_chunks(hyp: Sequence[str], ref: Sequence[str], need: Counter) -> int:
    ref_positions = _token_positions(ref)
    used = [False] * len(ref)
    left = dict(need)
    chunks = 0
    ext = -1  # ref index that would continue the current chunk
    for i, w in enumerate(hyp):
        if left.get(w, 0) == 0:
            ext = -1
            continue
        if 0 <= ext < len(ref) and ref[ext] == w and not used[ext]:
            j = ext
        else:
            # start a new chunk where the longest common run begins
            j = -1
            best_run = -1
            for p in ref_positions[w]:
                if used[p]:
                    continue
                run = 0
                while (
                    i + run < len(hyp)
                    and p + run < len(ref)
                    and hyp[i + run] == ref[p + run]
                    and not used[p + run]
                ):
                    run += 1
                if run > best_run:
                    best_run = run
                    j = p
            chunks += 1
        used[j] = True
        left[w] -= 1
        ext = j + 1
    return chunks


def _longest_common_run(hyp: Sequence[str], ref: Sequence[str]) -> int:
    # autojunk=False: otherwise a token frequent in a ref of 200+ tokens is junk
    matcher = SequenceMatcher(None, hyp, ref, autojunk=False)
    return matcher.find_longest_match(0, len(hyp), 0, len(ref)).size


def _exact_min_chunks(
    hyp: Sequence[str], ref: Sequence[str], need: Counter, upper: int
) -> int:
    """Minimum chunk count over all maximum one-to-one alignments.

    Depth-first over hypothesis positions with branch-and-bound. Chunks only
    grow as matches are added, and the remaining matches need at least
    ceil(remaining / longest-common-run) further chunks (minus one if a chunk
    is currently open), so partial states that cannot beat the incumbent are
    pruned.
    """
    ref_positions = _token_positions(ref)
    # occurrences of hyp[i] at or after i, for the may-we-skip test
    occ_after = [0] * len(hyp)
    tally: Counter = Counter()
    for i in range(len(hyp) - 1, -1, -1):
        tally[hyp[i]] += 1
        occ_after[i] = tally[hyp[i]]
    max_run = max(1, _longest_common_run(hyp, ref))
    total_needed = sum(need.values())
    matched_of: Counter = Counter()
    best = upper
    seen: dict[tuple[int, int, int], int] = {}
    nodes = 0

    def dfs(i: int, mask: int, ext_j: int, chunks: int, matched: int) -> None:
        nonlocal best, nodes
        if nodes >= METEOR_SEARCH_BUDGET:
            return
        nodes += 1
        remaining = total_needed - matched
        floor = -(-remaining // max_run)  # ceil
        if ext_j >= 0 and floor > 0:
            floor -= 1  # the open chunk can absorb one run
        if chunks + floor >= best:
            return
        key = (i, mask, ext_j)
        prior = seen.get(key)
        if prior is not None and prior <= chunks:
            return
        seen[key] = chunks
        if i == len(hyp):
            best = chunks
            return
        w = hyp[i]
        needed = need[w] - matched_of[w]
        if needed > 0:
            candidates = []
            for j in ref_positions[w]:
                if mask >> j & 1:
                    continue
                if j == ext_j:
                    candidates.append((-(len(ref) + 1), j))  # extension first
                    continue
                run = 0
                while (
                    i + run < len(hyp)
                    and j + run < len(ref)
                    and hyp[i + run] == ref[j + run]
                    and not mask >> (j + run) & 1
                ):
                    run += 1
                candidates.append((-run, j))
            candidates.sort()
            matched_of[w] += 1
            for _, j in candidates:
                dfs(
                    i + 1,
                    mask | (1 << j),
                    j + 1,
                    chunks + (0 if j == ext_j else 1),
                    matched + 1,
                )
            matched_of[w] -= 1
        if needed <= 0 or occ_after[i] - 1 >= needed:
            dfs(i + 1, mask, -1, chunks, matched)

    dfs(0, 0, -1, 0, 0)
    return best


def meteor_lite(hyp: Sequence[str], ref: Sequence[str]) -> MeteorResult:
    """Exact-match METEOR with the original parameter set.

    Unigram matches are the per-type count minima; among all maximum
    alignments the one with the fewest chunks is chosen (exactly up to
    METEOR_EXACT_LIMIT tokens and METEOR_SEARCH_BUDGET nodes, greedily
    above either limit).
    """
    if not ref:
        raise ValueError("empty reference")
    need = Counter(hyp) & Counter(ref)
    matches = sum(need.values())
    if matches == 0:
        return MeteorResult(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    chunks = _greedy_chunks(hyp, ref, need)
    if chunks > 1 and len(hyp) <= METEOR_EXACT_LIMIT and len(ref) <= METEOR_EXACT_LIMIT:
        chunks = _exact_min_chunks(hyp, ref, need, chunks)
    precision = matches / len(hyp)
    recall = matches / len(ref)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return MeteorResult(
        matches=matches,
        chunks=chunks,
        precision=precision,
        recall=recall,
        fmean=fmean,
        penalty=penalty,
        score=fmean * (1 - penalty),
    )
