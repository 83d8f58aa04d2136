"""The package's public names and its one metric registry."""

from __future__ import annotations

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pe_rank
from pe_rank.cli import SCORES_HEADER
from pe_rank.rankeval import GOLD_METRIC, METRIC_POLARITY, METRICS, Polarity, spearman
from pe_rank.taskmetrics import SegmentScores

MORE = Polarity.HIGHER_IS_MORE_EFFORT
LESS = Polarity.LOWER_IS_MORE_EFFORT


def test_every_exported_name_resolves():
    for name in pe_rank.__all__:
        assert getattr(pe_rank, name) is not None, name


def test_metric_polarity_keeps_its_names_order_and_orientation():
    assert list(METRIC_POLARITY.items()) == [
        ("TER", MORE),
        ("BLEU", LESS),
        ("METEOR", LESS),
        ("DA", LESS),
        ("HTER", MORE),
        ("HBLEU", LESS),
        ("HMETEOR", LESS),
        ("KEYS_PER_CHAR", MORE),
        ("PETPW", MORE),
    ]
    assert pe_rank.METRIC_POLARITY is METRIC_POLARITY


def test_tables_derived_from_the_registry():
    assert GOLD_METRIC.name == "PETPW"
    assert [m.name for m in METRICS if m.loo] == [
        "DA", "HTER", "HBLEU", "HMETEOR", "KEYS_PER_CHAR", "PETPW",
    ]
    assert SCORES_HEADER == tuple(f.name for f in fields(SegmentScores)) == (
        "segment_id", "annotator_id", "mt_tokens", "pe_time_sec", "petpw", "keys_per_char",
        "hter", "hbleu", "hmeteor", "ter", "bleu", "meteor", "da",
    )
    assert {m.field for m in METRICS} <= set(SCORES_HEADER)


@given(st.lists(st.tuples(st.integers(-5, 5), st.floats(-10, 10)), min_size=3, max_size=40))
def test_spearman_is_symmetric_to_the_bit(pairs):
    x = [float(a) for a, _ in pairs]
    y = [b for _, b in pairs]
    try:
        forward = spearman(x, y)
    except ValueError:
        return
    assert spearman(y, x) == forward


def _traced_targets() -> tuple[tuple[str, str], ...]:
    """The (module, function) pairs the benchmark's tracer wraps, read from its source."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, name", _traced_targets())
def test_every_traced_name_is_bound(module, name):
    # the tracer skips a name it cannot find, and the benchmark then drops that
    # name's metrics without failing; this makes the loss fail here instead
    assert hasattr(importlib.import_module(f"pe_rank.{module}"), name), f"pe_rank.{module}.{name}"
