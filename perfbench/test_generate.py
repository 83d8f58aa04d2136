"""Tests of the benchmark's input generator and tracer.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import generate as gen
import tracer
import workloads as wl
from pe_rank import cli, taskmetrics, textmetrics
from pe_rank.corpus import load_corpus, tokenize, validate_corpus

CORPUS_SPECS = {"report-paper": wl.PAPER, "score-short": wl.SHORT}


def _corpus(spec: gen.CorpusSpec, seed, tmp: Path) -> tuple[bytes, bytes]:
    gen.write_corpus(spec, seed, tmp / "segments.tsv", tmp / "sessions.tsv")
    return (tmp / "segments.tsv").read_bytes(), (tmp / "sessions.tsv").read_bytes()


@pytest.mark.parametrize("name", sorted(CORPUS_SPECS))
def test_same_seed_same_bytes(name, tmp_path):
    spec = CORPUS_SPECS[name]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _corpus(spec, "7/0", tmp_path / "a")
    assert _corpus(spec, "7/0", tmp_path / "b") == first
    assert _corpus(spec, "8/0", tmp_path / "c") != first


@pytest.mark.parametrize("name", sorted(CORPUS_SPECS))
def test_corpus_loads_without_gaps(name, tmp_path):
    spec = CORPUS_SPECS[name]
    _corpus(spec, "3/1", tmp_path)
    corpus = load_corpus(tmp_path / "segments.tsv", tmp_path / "sessions.tsv")
    assert len(corpus.segments) == spec.segments
    assert len(corpus.sessions) == spec.segments * spec.annotators
    kinds = {w.kind for w in validate_corpus(corpus)}
    assert not kinds & {"missing-session", "zero-time"}


@pytest.mark.parametrize("name", sorted(CORPUS_SPECS))
def test_reference_lengths_follow_the_spec_on_every_seed(name, tmp_path):
    spec = CORPUS_SPECS[name]
    profiles = []
    for seed in ("1/0", "2/0"):
        _corpus(spec, seed, tmp_path)
        corpus = load_corpus(tmp_path / "segments.tsv", tmp_path / "sessions.tsv")
        profiles.append(sorted(len(tokenize(s.reference)) for s in corpus.segments))
    assert profiles[0] == profiles[1]
    lengths = profiles[0]
    assert spec.len_min <= lengths[0] and lengths[-1] <= spec.len_max
    assert abs(statistics.median(lengths) - spec.len_median) <= 1


def test_render_round_trips_through_the_tokenizer():
    tokens = [",", "ka", "lo", ",", "mi", ".", "."]
    assert tokenize(gen.render(tokens)) == tokens


def test_edit_applies_the_expected_number_of_edits():
    rng = random.Random(5)
    draw = gen._Zipf(rng, 50, 1.0)
    ref = [gen.word(i) for i in range(40)]
    out, edits = gen.edit(rng, ref, draw, sub=0.1, ins=0.05, dele=0.05, move=True)
    assert edits == 4 + 2 + 2 + 1  # substitutions, insertions, deletions, one move
    assert len(out) == len(ref)


def test_scores_file_is_deterministic_and_consistent(tmp_path):
    spec = gen.ScoresSpec(segments=50, annotators=4, len_min=5, len_max=30)
    gen.write_scores(spec, "1/0", tmp_path / "a.tsv")
    gen.write_scores(spec, "1/0", tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    wl.check_scores(tmp_path / "a.tsv", spec.segments, spec.annotators)
    rows = cli.read_scores(tmp_path / "a.tsv")
    assert len(rows) == spec.segments * (spec.annotators + 1)
    assert all(math.isfinite(r.petpw) for r in rows)


def test_check_scores_rejects_a_wrong_all_row(tmp_path):
    spec = gen.ScoresSpec(segments=5, annotators=2, len_min=5, len_max=10)
    path = tmp_path / "scores.tsv"
    gen.write_scores(spec, "1/0", path)
    lines = path.read_text().split("\n")
    fields = lines[3].split("\t")  # first segment's ALL row
    assert fields[1] == "ALL"
    fields[4] = repr(float(fields[4]) + 1.0)
    lines[3] = "\t".join(fields)
    path.write_text("\n".join(lines))
    with pytest.raises(wl.CheckError, match="not the mean"):
        wl.check_scores(path, spec.segments, spec.annotators)


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    originals = (textmetrics.ter, taskmetrics.ter, cli.ter)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert textmetrics.ter is taskmetrics.ter is cli.ter
        assert textmetrics.ter is not originals[0]
        _corpus(wl.SHORT, "1/0", tmp_path)
        corpus = load_corpus(tmp_path / "segments.tsv", tmp_path / "sessions.tsv")
        seg = corpus.segments[0]
        taskmetrics.score_segment(seg, corpus.sessions_by_segment()[seg.id][0])
    finally:
        tr.uninstall()
    assert (textmetrics.ter, taskmetrics.ter, cli.ter) == originals
    spans = tr.take()
    metrics = tracer.layer_metrics(spans, tr.installed)
    assert metrics["taskmetrics.score_segment.calls"] == 1
    assert metrics["textmetrics.ter.calls"] == 2
    assert metrics["corpus.tokenize.calls"] == len(corpus.segments) + 3  # load_corpus, score_segment
    ter_spans = [s for s in spans if s[tracer.NAME] == "textmetrics.ter"]
    assert all(s[tracer.PARENT][tracer.NAME] == "taskmetrics.score_segment" for s in ter_spans)
    assert 0 <= metrics["taskmetrics.score_segment.self_s"] < metrics["taskmetrics.score_segment.s"]
