"""The package's public names and its one metric registry."""

from __future__ import annotations

import importlib
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pe_rank
from pe_rank.cli import SCORES_HEADER
from pe_rank.rankeval import GOLD_METRIC, METRICS, Polarity, spearman
from pe_rank.taskmetrics import SegmentScores

MORE = Polarity.HIGHER_IS_MORE_EFFORT
LESS = Polarity.LOWER_IS_MORE_EFFORT


def test_every_exported_name_resolves():
    for name in pe_rank.__all__:
        assert getattr(pe_rank, name) is not None, name


def test_exports_are_exactly_the_public_names():
    # adding or removing an export must change this list too
    assert pe_rank.__all__ == [
        "Corpus", "CorpusError", "KsResult", "MeteorResult", "PESession", "Polarity",
        "Segment", "SegmentScores", "TerResult", "TokenList", "ValidationWarning",
        "WilliamsResult", "all_view", "bleu", "cluster_annotators", "effort_oriented",
        "keys_per_char", "ks_two_sample", "load_corpus", "meteor_lite", "mt_char_count",
        "petpw", "rank_by", "regularized_incomplete_beta", "satra", "score_segment",
        "spearman", "student_t_sf", "tail_overlap", "ter", "tokenize", "validate_corpus",
        "weighted_mean_std", "williams_test", "word_edit_distance",
    ]


def test_readme_library_example_runs_as_written(tmp_path):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.M | re.S)[1]
    seeded = root / "tests" / "golden" / "seeded"
    for name in ("segments.tsv", "sessions.tsv"):
        shutil.copy(seeded / name, tmp_path / name)
    env = {**os.environ, "PYTHONPATH": str(Path(pe_rank.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr


def test_metric_polarity_keeps_its_names_order_and_orientation():
    assert [(m.name, m.polarity) for m in METRICS] == [
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
