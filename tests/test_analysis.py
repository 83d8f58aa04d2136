"""Score columns: `ScoreViews` against the rows it reads, and the tables built
from it holding plain Python values."""

from __future__ import annotations

import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pe_rank import analysis
from pe_rank.analysis import (
    FLOAT_FIELDS, ScoreViews, build_loo_table, build_rank_table, build_report,
)
from pe_rank.corpus import ALL_ANNOTATORS, load_corpus
from pe_rank.taskmetrics import SegmentScores, score_corpus

from oracles import loo_mean

# Few distinct values, so ties are common; signed zeros, subnormals and
# magnitudes whose sums round differently in different orders.
_value = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 0.1, 0.2, 0.3, 1.0, 3.0, 1e16])


@st.composite
def _scores_rows(draw) -> list[SegmentScores]:
    annotators = [f"a{i}" for i in range(draw(st.integers(1, 4)))] + [ALL_ANNOTATORS]
    # ids that str.splitlines would split, so rows must reach the reader whole
    breaks = st.sampled_from(["", "\x85", "\u2028"])
    segments = [f"s{i:02d}" + draw(breaks) for i in range(draw(st.integers(3, 15)))]
    with_da = draw(st.booleans())
    rows = []
    for sid in segments:
        mt_tokens = draw(st.integers(1, 4))
        da = draw(_value) if with_da else None
        for annotator in annotators:
            cells = {f: draw(_value) for f in FLOAT_FIELDS if f != "da"}
            rows.append(SegmentScores(sid, annotator, mt_tokens, da=da, **cells))
    return draw(st.permutations(rows))


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@given(_scores_rows())
def test_columns_equal_the_rows_bit_for_bit(rows):
    views = ScoreViews(rows)
    for annotator in views.annotators + [ALL_ANNOTATORS]:
        view = sorted((r for r in rows if r.annotator_id == annotator), key=lambda r: r.segment_id)
        assert [r.segment_id for r in view] == views.segment_ids
        tokens = views.column(annotator, "mt_tokens")
        assert tokens.tobytes() == np.array([r.mt_tokens for r in view], dtype=np.int64).tobytes()
        for field in FLOAT_FIELDS:
            column = views.column(annotator, field, optional=True)
            assert column.tobytes() == _bits([getattr(r, field) for r in view]), (annotator, field)
    if len(views.annotators) < 2:
        return
    for annotator in views.annotators:
        others = [a for a in views.annotators if a != annotator]
        for field in ("petpw", "pe_time_sec"):
            columns = [views.column(a, field) for a in others]
            got = analysis._mean(columns)
            assert got.dtype == np.float64, (annotator, field)
            assert _bits(got) == _bits(loo_mean([c.tolist() for c in columns])), (annotator, field)


def _plain(value) -> bool:
    """True if the value is built only of dicts, lists, tuples and Python scalars."""
    if isinstance(value, dict):
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(map(_plain, value))
    return type(value) in (str, int, float, bool, type(None))


def test_report_tables_hold_only_python_scalars(fixture_paths):
    rows = score_corpus(load_corpus(*fixture_paths))
    report = build_report(ScoreViews(rows), 0.01, 0.05)
    for key, table in report.items():
        assert _plain(table), key


def _all_row(sid: str, hter: float) -> SegmentScores:
    return SegmentScores(sid, ALL_ANNOTATORS, 3, 1.0, 0.5, 0.1, hter, 0.3, 0.4, 0.5, 0.6, 0.7, None)


@pytest.mark.parametrize(
    "bad, message",
    [
        (_all_row("s3", math.nan), "^scores: line 5: non-finite hter 'nan'$"),
        (_all_row("s0", 0.2), "^scores: line 5: duplicate row for segment 's0', annotator 'ALL'$"),
        (replace(_all_row("s1", 0.2), annotator_id="a", mt_tokens=4),
         "^scores: line 5: mt_tokens 4 for segment 's1' differs from 3 on an earlier row$"),
    ],
    ids=["nan", "duplicate", "mt_tokens"],
)
def test_bad_row_is_rejected(bad, message):
    rows = [_all_row(f"s{i}", 0.2) for i in range(3)]
    ScoreViews(rows)  # a None cell (here DA) is a missing value, not an error
    with pytest.raises(ValueError, match=message):
        ScoreViews(rows + [bad])


def test_views_read_rows_once_from_a_generator():
    rows = [
        SegmentScores(f"s{i}", annotator, 2, 1.0 + i, 0.5, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.0)
        for i in range(3)
        for annotator in ("a", "b", ALL_ANNOTATORS)
    ]
    random.Random(0).shuffle(rows)
    views = ScoreViews(iter(rows))
    assert views.annotators == ["a", "b"] and views.segment_ids == ["s0", "s1", "s2"]
    assert views.column("b", "pe_time_sec").tolist() == [1.0, 2.0, 3.0]


SEEDED_SCORES = Path(__file__).parent / "golden" / "seeded" / "expected" / "scores.tsv"


@pytest.fixture
def seeded(monkeypatch) -> tuple[ScoreViews, dict[str, int]]:
    """The views of the seeded golden scores, read first (`ScoreViews` groups
    rows with its own argsort and `np.unique`, which is not a ranking), then
    counts of the tables' `ranking` calls and of numpy's argsorts; `np.unique`,
    which ranked before, fails."""
    views = ScoreViews.read(SEEDED_SCORES)
    counts = {"ranking": 0, "argsort": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    def unique(*args, **kwargs):
        raise AssertionError("a table reached np.unique")

    monkeypatch.setattr(analysis, "ranking", counted("ranking", analysis.ranking))
    monkeypatch.setattr(np, "argsort", counted("argsort", np.argsort))
    monkeypatch.setattr(np, "unique", unique)
    return views, counts


def test_a_rank_table_ranks_each_column_of_its_view_once(seeded):
    views, sorts = seeded
    for annotator in views.annotators + [ALL_ANNOTATORS]:
        before = sorts["ranking"]
        table = build_rank_table(views, annotator)
        assert sorts["ranking"] - before == len(table["rows"]) == 9, annotator
    assert sorts["argsort"] == sorts["ranking"] == 4 * 9


def test_a_loo_table_ranks_each_annotators_columns_and_gold_once(seeded):
    views, sorts = seeded
    table = build_loo_table(views)
    k = len(views.annotators)
    assert len(table["rows"]) == k * 6  # DA, HTER, HBLEU, HMETEOR, KEYS_PER_CHAR, PETPW
    assert sorts["argsort"] == sorts["ranking"] == k * 7  # and the others' mean PETPW


def test_a_report_sorts_each_table_column_once(seeded):
    # 4 rank tables x 9 columns, 3 held-out annotators x 7, 2 tails x 9;
    # ranking with np.unique as well sorted 430 times here
    views, sorts = seeded
    build_report(views, 0.01, 0.05)
    assert sorts["argsort"] == sorts["ranking"] == 75
