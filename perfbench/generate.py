"""Seeded synthetic inputs for the benchmark: corpora and score files.

Everything here is a pure function of its spec and seed: the same seed gives
the same bytes. Only the standard library is used, so the generator does not
depend on the code it feeds.

Corpora are built the way post-editing data looks: a reference sentence over
a Zipfian vocabulary (so function words repeat, which is what gives greedy
TER its many shift candidates), an MT output edited from it by substitutions,
insertions, deletions and block moves, and one post-edit per annotator
edited from the reference more lightly. Sentence lengths are the quantiles
of a log-normal taken at evenly spaced probabilities and then shuffled, so
every seed has the same length profile and run-to-run differences in cost
come from content, not from whether a seed happened to draw a long tail.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from statistics import NormalDist

PUNCT = (",", ".")
_SYLLABLES = ("ka", "lo", "mi", "ne", "su", "ta", "ri", "po", "de", "ga", "vu", "he")

SCORES_HEADER = (
    "segment_id", "annotator_id", "mt_tokens", "pe_time_sec", "petpw",
    "keys_per_char", "hter", "hbleu", "hmeteor", "ter", "bleu", "meteor", "da",
)
# Columns the ALL row holds as the mean of the annotator rows, in file order.
AVERAGED = ("pe_time_sec", "petpw", "keys_per_char", "hter", "hbleu",
            "hmeteor", "ter", "bleu", "meteor")


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a synthetic corpus.

    Reference lengths follow a log-normal with the given median and sigma,
    clipped to [len_min, len_max]. Edit rates are per token; `move_prob` is
    the share of MT outputs that also have one block moved.
    """

    segments: int
    annotators: int
    len_median: float
    len_sigma: float
    len_min: int
    len_max: int
    vocab: int
    zipf_s: float
    sub_rate: float
    ins_rate: float
    del_rate: float
    move_prob: float
    pe_scale: float = 0.4  # post-edit rates relative to the MT rates


@dataclass(frozen=True)
class ScoresSpec:
    """Shape of a synthetic scores file (segments x annotators plus ALL rows)."""

    segments: int
    annotators: int
    len_min: int
    len_max: int


def word(rank: int) -> str:
    """A distinct lowercase pseudo-word for each vocabulary rank."""
    out = []
    rank += 1
    while rank:
        rank, digit = divmod(rank - 1, len(_SYLLABLES))
        out.append(_SYLLABLES[digit])
    return "".join(reversed(out))


class _Zipf:
    def __init__(self, rng: random.Random, size: int, s: float) -> None:
        # ',' sits among the most frequent types, as in real text.
        self.words = [word(i) for i in range(size)]
        self.words.insert(min(2, size), ",")
        self.cum = list(accumulate(1.0 / (r ** s) for r in range(1, len(self.words) + 1)))
        self.rng = rng

    def __call__(self) -> str:
        x = self.rng.random() * self.cum[-1]
        return self.words[bisect.bisect_right(self.cum, x)]


def stratified_lengths(rng: random.Random, spec: CorpusSpec) -> list[int]:
    """Reference lengths at evenly spaced quantiles of the spec's log-normal, shuffled."""
    nd = NormalDist()
    n = spec.segments
    lengths = [
        min(spec.len_max, max(spec.len_min, round(
            spec.len_median * math.exp(spec.len_sigma * nd.inv_cdf((i + 0.5) / n))
        )))
        for i in range(n)
    ]
    rng.shuffle(lengths)
    return lengths


def render(tokens: list[str]) -> str:
    """Join tokens so that the package tokenizer gives them back unchanged."""
    out: list[str] = []
    for tok in tokens:
        if tok in PUNCT and out:
            out[-1] += tok
        else:
            out.append(tok)
    return " ".join(out)


def _strata(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct positions below n (k <= n), one drawn from each of k equal stretches."""
    return [rng.randrange(j * n // k, (j + 1) * n // k) for j in range(k)]


def _count(rng: random.Random, expected: float) -> int:
    """floor(expected), plus one with probability equal to its fraction."""
    whole = math.floor(expected)
    return whole + (rng.random() < expected - whole)


def edit(
    rng: random.Random, tokens: list[str], draw: _Zipf,
    sub: float, ins: float, dele: float, move: bool,
) -> tuple[list[str], int]:
    """Edited copy of `tokens` and the number of edits applied.

    Edit counts are the rates times the length, rounded up or down at random
    in proportion to the fraction, and each edit lands at a random place in
    its own equal stretch of the sentence. Seeds then differ in which words
    move and arrive more than in how many edits there are or whether they
    bunch up: where the first insertion or deletion lands decides how many
    blocks greedy TER must try, so bunching would make the cost of a corpus
    swing from seed to seed.
    """
    n = len(tokens)
    k_del, k_sub, k_ins = (_count(rng, rate * n) for rate in (dele, sub, ins))
    k_del = min(k_del, n - 1)
    k_sub = min(k_sub, n - k_del)
    picked = _strata(rng, n, k_del + k_sub)
    rng.shuffle(picked)
    out = list(tokens)
    for p in picked[k_del:]:
        out[p] = draw()
    dropped = set(picked[:k_del])
    out = [t for i, t in enumerate(out) if i not in dropped]
    for p in reversed(_strata(rng, len(out) + 1, min(k_ins, len(out) + 1))):
        out.insert(p, draw())
    edits = k_del + k_sub + k_ins
    if move and len(out) >= 4:
        k = rng.randint(1, min(6, len(out) // 2))
        b = rng.randrange(len(out) - k + 1)
        block, rest = out[b : b + k], out[:b] + out[b + k :]
        d = rng.randrange(len(rest) + 1)
        out = rest[:d] + block + rest[d:]
        edits += 1
    if all(t in PUNCT for t in out):
        out.insert(0, word(0))
    return out, edits


def _spread_picks(order: list[int], share: float) -> set[int]:
    """round(share * len(order)) members of `order`, evenly spaced along it."""
    k = round(share * len(order))
    return {order[int((j + 0.5) * len(order) / k)] for j in range(k)}


def write_corpus(spec: CorpusSpec, seed: int | str, segments_path: Path, sessions_path: Path) -> None:
    """Write segments.tsv and sessions.tsv; every segment has every annotator.

    Exactly round(move_prob * segments) MT outputs get a block move, spread
    evenly over the length order so that long sentences get their share on
    every seed; post-edits get one at pe_scale times that share.
    """
    rng = random.Random(f"corpus:{seed}")
    draw = _Zipf(rng, spec.vocab, spec.zipf_s)
    annotators = [f"a{k + 1}" for k in range(spec.annotators)]
    speed = {a: 2.0 + 3.0 * rng.random() for a in annotators}
    lengths = stratified_lengths(rng, spec)
    by_length = sorted(range(spec.segments), key=lambda i: (lengths[i], i))
    mt_moves = _spread_picks(by_length, spec.move_prob)
    pe_moves = _spread_picks(
        [i * spec.annotators + k for i in by_length for k in range(spec.annotators)],
        spec.move_prob * spec.pe_scale,
    )
    pe_rates = (spec.sub_rate * spec.pe_scale, spec.ins_rate * spec.pe_scale,
                spec.del_rate * spec.pe_scale)
    seg_lines = ["id\tsystem_id\tsource\tmt\treference\tda"]
    sess_lines = ["segment_id\tannotator_id\tpe_text\tpe_time_sec\tkeystrokes"]
    for i, length in enumerate(lengths):
        sid = f"s{i:05d}"
        ref = [draw() for _ in range(length - 1)]
        if ref[0] == ",":
            ref[0] = word(0)
        ref.append(".")
        mt, mt_edits = edit(rng, ref, draw, spec.sub_rate, spec.ins_rate,
                            spec.del_rate, i in mt_moves)
        effort = mt_edits / len(ref)
        da = round(rng.gauss(1.0 - 2.5 * effort, 0.5), 3)
        source = render([draw() for _ in range(length)])
        seg_lines.append(f"{sid}\tsys{i % 3}\t{source}\t{render(mt)}\t{render(ref)}\t{da!r}")
        mt_chars = len(render(mt))
        for k, a in enumerate(annotators):
            pe, pe_edits = edit(rng, ref, draw, *pe_rates,
                                i * spec.annotators + k in pe_moves)
            seconds = len(mt) * speed[a] * (0.5 + 2.0 * effort) * rng.lognormvariate(0.0, 0.35)
            seconds = max(0.5, round(seconds, 2))
            keys = round((mt_edits + pe_edits) * 5.5 * rng.uniform(0.6, 1.4))
            keys = min(keys, 3 * mt_chars)
            sess_lines.append(f"{sid}\t{a}\t{render(pe)}\t{seconds!r}\t{keys}")
    segments_path.write_text("\n".join(seg_lines) + "\n", encoding="utf-8")
    sessions_path.write_text("\n".join(sess_lines) + "\n", encoding="utf-8")


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_scores(spec: ScoresSpec, seed: int | str, path: Path) -> None:
    """Write a scores file as `pe-rank score` would lay it out.

    Per-annotator metrics correlate with effort through a shared per-segment
    difficulty. TER-like values are edit counts over lengths, so they tie
    the way real ones do. Every ALL row is the `math.fsum` mean of its
    annotator rows and `mt_tokens` and `da` agree within a segment.
    """
    rng = random.Random(f"scores:{seed}")
    annotators = [f"a{k + 1}" for k in range(spec.annotators)]
    speed = {a: 2.0 + 3.0 * rng.random() for a in annotators}
    lines = ["\t".join(SCORES_HEADER)]
    for i in range(spec.segments):
        sid = f"s{i:05d}"
        n = rng.randint(spec.len_min, spec.len_max)
        hard = rng.random()
        ref_edits = min(n, round(n * hard * rng.uniform(0.3, 0.9)))
        ref_based = {
            "ter": ref_edits / n,
            "bleu": max(0.0, 1.0 - hard * rng.uniform(0.5, 1.0)),
            "meteor": max(0.0, 1.0 - hard * rng.uniform(0.3, 0.8)),
        }
        da = round(rng.gauss(1.0 - 2.0 * hard, 0.5), 3)
        rows = []
        for a in annotators:
            pe_edits = min(n, round(n * hard * rng.uniform(0.1, 0.6)))
            seconds = max(0.5, round(n * speed[a] * (0.5 + 2.0 * hard)
                                     * rng.lognormvariate(0.0, 0.35), 2))
            chars = 5 * n + rng.randint(0, n)
            row = {
                "pe_time_sec": seconds,
                "petpw": seconds / n,
                "keys_per_char": rng.randint(0, 6 * pe_edits + 1) / chars,
                "hter": pe_edits / n,
                "hbleu": max(0.0, 1.0 - hard * rng.uniform(0.2, 0.7)),
                "hmeteor": max(0.0, 1.0 - hard * rng.uniform(0.1, 0.5)),
                **ref_based,
            }
            rows.append((a, row))
        all_row = {f: math.fsum(r[f] for _, r in rows) / len(rows) for f in AVERAGED}
        for a, row in rows + [("ALL", all_row)]:
            lines.append("\t".join(
                [sid, a, str(n)] + [_fmt(row[f]) for f in AVERAGED] + [_fmt(da)]
            ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
