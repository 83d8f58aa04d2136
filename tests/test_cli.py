from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pe_rank.analysis import ScoreViews, build_stats_table, loo_gold
from pe_rank.cli import (
    build_loo_table,
    build_rank_table,
    build_tails,
    main,
    read_scores,
    score_corpus,
    write_scores,
)
from pe_rank.corpus import load_corpus
from pe_rank.rankeval import spearman
from pe_rank.taskmetrics import SegmentScores

from mutations import cell_pool, mutated_lines

SEG_HEADER = "id\tsystem_id\tsource\tmt\treference\tda"
SESS_HEADER = "segment_id\tannotator_id\tpe_text\tpe_time_sec\tkeystrokes"


def _write_corpus(tmp_path: Path, seg_rows: list[str], sess_rows: list[str]):
    segments = tmp_path / "segments.tsv"
    sessions = tmp_path / "sessions.tsv"
    segments.write_text("\n".join([SEG_HEADER] + seg_rows) + "\n", encoding="utf-8")
    sessions.write_text("\n".join([SESS_HEADER] + sess_rows) + "\n", encoding="utf-8")
    return segments, sessions


def _row(sid, annotator, pw, L=10, **overrides) -> SegmentScores:
    rng = random.Random(f"{sid}/{annotator}")  # str seeds do not depend on PYTHONHASHSEED
    base = dict(
        segment_id=sid,
        annotator_id=annotator,
        mt_tokens=L,
        pe_time_sec=pw * L,
        petpw=pw,
        keys_per_char=rng.uniform(0.1, 1.0),
        hter=rng.uniform(0.05, 0.9),
        hbleu=rng.uniform(0.1, 0.95),
        hmeteor=rng.uniform(0.1, 0.95),
        ter=rng.uniform(0.1, 0.9),
        bleu=rng.uniform(0.05, 0.9),
        meteor=rng.uniform(0.1, 0.9),
        da=rng.uniform(-2, 2),
    )
    base.update(overrides)
    return SegmentScores(**base)


# ---------------------------------------------------------------------------
# score


def test_score_emits_session_rows_plus_all(tmp_path, fixture_paths):
    out = tmp_path / "scores.tsv"
    assert main(["score", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1]), "--out", str(out)]) == 0
    rows = read_scores(out)
    assert len(rows) == 9  # 3 segments x (2 annotators + ALL)
    by_key = {(r.segment_id, r.annotator_id): r for r in rows}
    assert by_key[("s1", "ANN1")].hter == 0.0  # identity post-edit
    assert by_key[("s1", "ALL")].petpw == pytest.approx((6.0 / 5 + 3.5 / 5) / 2)
    # ALL row is last within each segment
    assert [r.annotator_id for r in rows[:3]] == ["ANN0", "ANN1", "ALL"]


def test_score_without_sessions_keeps_reference_metrics(tmp_path):
    segments, sessions = _write_corpus(
        tmp_path,
        ["s1\tsys\tsrc\tthe cat sat\tthe cat sat on the mat\t0.5"],
        [],
    )
    out = tmp_path / "scores.tsv"
    assert main(["score", "--segments", str(segments), "--sessions", str(sessions), "--out", str(out)]) == 0
    rows = read_scores(out)
    assert len(rows) == 1
    row = rows[0]
    assert row.annotator_id == "ALL"
    assert row.hter is None and row.petpw is None and row.keys_per_char is None
    assert row.ter > 0 and row.da == 0.5
    raw = out.read_text(encoding="utf-8").splitlines()[1]
    assert "\t\t" in raw  # empty H-cells on disk


def test_score_identity_post_edits_zero_hter(tmp_path):
    segments, sessions = _write_corpus(
        tmp_path,
        [
            "s1\tsys\tsrc\tthe cat sat\tthe cat sat\t",
            "s2\tsys\tsrc\ta dog ran\ta dog ran\t",
        ],
        [
            "s1\tA\tthe cat sat\t2.0\t0",
            "s2\tA\ta dog ran\t3.0\t0",
        ],
    )
    out = tmp_path / "scores.tsv"
    assert main(["score", "--segments", str(segments), "--sessions", str(sessions), "--out", str(out)]) == 0
    for row in read_scores(out):
        assert row.hter == 0.0


def test_score_round_trips_through_reader(fixture_paths, tmp_path):
    corpus = load_corpus(*fixture_paths)
    rows = score_corpus(corpus)
    path = tmp_path / "scores.tsv"
    write_scores(rows, path)
    assert read_scores(path) == rows


# ---------------------------------------------------------------------------
# rank-eval


def test_rank_table_gold_against_itself():
    view = [_row(f"s{i:02d}", "ALL", pw) for i, pw in enumerate([1.0, 3.0, 2.0, 5.0, 4.0])]
    table = build_rank_table(ScoreViews(view), "ALL")
    rows = {r["metric"]: r for r in table["rows"]}
    assert rows["PETPW"]["rho"] == pytest.approx(1.0)
    oracle_satra = rows["PETPW"]["satra"]
    for metric, r in rows.items():
        assert r["satra"] >= oracle_satra - 1e-12, metric


def test_rank_table_monotone_transform_of_gold():
    view = [
        _row(f"s{i:02d}", "ALL", pw, hter=pw * pw / 100.0)
        for i, pw in enumerate([1.0, 3.0, 2.0, 5.0, 4.0, 0.5])
    ]
    table = build_rank_table(ScoreViews(view), "ALL")
    rows = {r["metric"]: r for r in table["rows"]}
    assert rows["HTER"]["rho"] == pytest.approx(1.0)
    assert rows["HTER"]["best"] is True
    # perfect correlation makes Williams undefined; pairs degrade to NA
    pair = next(
        p for p in table["williams_pairs"] if "HTER" in (p["metric_a"], p["metric_b"])
    )
    assert pair["p"] is None and pair["significant"] is None


def test_rank_table_tracking_metric_beats_random_metric():
    wins = 0
    for seed in range(100):
        rng = random.Random(seed)
        view = []
        for i in range(40):
            pw = rng.uniform(0.3, 8.0)
            view.append(
                _row(
                    f"s{i:03d}",
                    "ALL",
                    pw,
                    L=rng.randint(4, 30),
                    hter=pw / 10.0,
                    bleu=rng.random(),
                )
            )
        rows = {r["metric"]: r for r in build_rank_table(ScoreViews(view), "ALL")["rows"]}
        if rows["HTER"]["satra"] < rows["BLEU"]["satra"]:
            wins += 1
    assert wins >= 95


def test_rank_eval_command_writes_tables(fixture_paths, tmp_path):
    scores = tmp_path / "scores.tsv"
    assert main(["score", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1]), "--out", str(scores)]) == 0
    out = tmp_path / "rank.tsv"
    assert main(["rank-eval", "--scores", str(scores), "--annotator", "ALL", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t") == ["metric", "rho", "satra", "best", "p_vs_best", "sig_vs_best"]
    metrics = [line.split("\t")[0] for line in lines[1:]]
    assert metrics == ["TER", "BLEU", "METEOR", "DA", "HTER", "HBLEU", "HMETEOR", "KEYS_PER_CHAR", "PETPW"]
    assert (tmp_path / "rank.tsv.williams.tsv").exists()


def test_rank_eval_missing_annotator_fails(fixture_paths, tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    main(["score", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1]), "--out", str(scores)])
    code = main(["rank-eval", "--scores", str(scores), "--annotator", "ANN9", "--out", str(tmp_path / "r.tsv")])
    assert code == 1
    assert "ANN9" in capsys.readouterr().err


def test_rank_eval_rejects_reference_only_scores(tmp_path, capsys):
    segments, sessions = _write_corpus(
        tmp_path, ["s1\tsys\tsrc\tmt words here\tref words here\t0.1"], []
    )
    scores = tmp_path / "scores.tsv"
    main(["score", "--segments", str(segments), "--sessions", str(sessions), "--out", str(scores)])
    code = main(["rank-eval", "--scores", str(scores), "--annotator", "ALL", "--out", str(tmp_path / "r.tsv")])
    assert code == 1


# ---------------------------------------------------------------------------
# loo


def test_loo_gold_two_annotators_is_other_vector(fixture_paths):
    corpus = load_corpus(*fixture_paths)
    rows = score_corpus(corpus)
    gold = loo_gold(ScoreViews(rows), "ANN0")
    ann1 = {r.segment_id: r for r in rows if r.annotator_id == "ANN1"}
    assert gold.annotator_id == "ANN0"
    assert list(gold.gold_petpw) == [ann1[sid].petpw for sid in gold.segment_ids]
    assert list(gold.gold_times) == [ann1[sid].pe_time_sec for sid in gold.segment_ids]


def test_loo_gold_three_annotators_hand_means():
    rows = []
    times = {"A": [4.0, 8.0, 12.0], "B": [8.0, 7.0, 9.0], "C": [12.0, 4.0, 8.0]}
    for annotator, ts in times.items():
        for i, t in enumerate(ts):
            rows.append(_row(f"s{i}", annotator, t / 4.0, L=4))
    gold = loo_gold(ScoreViews(rows), "A")
    assert gold.segment_ids == ("s0", "s1", "s2")
    assert gold.gold_times == pytest.approx([10.0, 5.5, 8.5])
    assert gold.gold_petpw == pytest.approx([2.5, 1.375, 2.125])


def test_loo_identical_annotators_track_each_other_perfectly():
    rows = []
    for annotator in ("A", "B", "C"):
        for i, pw in enumerate([1.0, 4.0, 2.0, 3.0]):
            rows.append(_row(f"s{i}", annotator, pw))
    table = build_loo_table(ScoreViews(rows))["rows"]
    petpw_rows = [r for r in table if r["metric"] == "PETPW"]
    assert len(petpw_rows) == 3
    for row in petpw_rows:
        assert row["rho"] == pytest.approx(1.0)


def test_loo_table_petpw_row_matches_direct_spearman(fixture_paths):
    corpus = load_corpus(*fixture_paths)
    rows = score_corpus(corpus)
    table = build_loo_table(ScoreViews(rows))["rows"]
    ann0 = [r.petpw for r in rows if r.annotator_id == "ANN0"]
    ann1 = [r.petpw for r in rows if r.annotator_id == "ANN1"]
    petpw_row = next(r for r in table if r["annotator"] == "ANN0" and r["metric"] == "PETPW")
    assert petpw_row["rho"] == pytest.approx(spearman(ann0, ann1))


def test_loo_requires_two_annotators(tmp_path, capsys):
    segments, sessions = _write_corpus(
        tmp_path,
        ["s1\tsys\tsrc\tmt one two\tref one two\t0.1",
         "s2\tsys\tsrc\tmt other words\tref other words\t0.3",
         "s3\tsys\tsrc\tmt third row\tref third row\t0.5"],
        ["s1\tA\tpe one two\t2.0\t4",
         "s2\tA\tpe other words\t3.0\t5",
         "s3\tA\tpe third row\t4.0\t6"],
    )
    scores = tmp_path / "scores.tsv"
    main(["score", "--segments", str(segments), "--sessions", str(sessions), "--out", str(scores)])
    assert main(["loo", "--scores", str(scores), "--out", str(tmp_path / "loo.tsv")]) == 1
    assert "2 annotators" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tails


def test_tails_gold_metric_overlaps_equal_cut():
    view = [_row(f"s{i:03d}", "ALL", float(i + 1)) for i in range(20)]
    table = build_tails(ScoreViews(view), "best", 20, 5)
    petpw_rows = [r for r in table["rows"] if r["metric"] == "PETPW"]
    assert [(r["cut"], r["overlap"]) for r in petpw_rows] == [(5, 5), (10, 10), (15, 15), (20, 20)]


def test_tails_full_cut_equal_best_and_worst():
    view = [_row(f"s{i:03d}", "ALL", float((i * 7) % 20 + 1)) for i in range(20)]
    best = build_tails(ScoreViews(view), "best", 20, 20)["rows"]
    worst = build_tails(ScoreViews(view), "worst", 20, 20)["rows"]
    best_at_full = {r["metric"]: r["overlap"] for r in best if r["cut"] == 20}
    worst_at_full = {r["metric"]: r["overlap"] for r in worst if r["cut"] == 20}
    assert best_at_full == worst_at_full  # the full set is shared either way


def test_tails_random_metric_hypergeometric():
    rng = random.Random(777)
    view = [
        _row(f"s{i:04d}", "ALL", rng.uniform(0.2, 9.0), bleu=rng.random())
        for i in range(1000)
    ]
    table = build_tails(ScoreViews(view), "best", 500, 500)
    bleu_row = next(r for r in table["rows"] if r["metric"] == "BLEU")
    assert abs(bleu_row["overlap"] - 250) <= 40


def test_tails_cut_beyond_n_fails(fixture_paths, tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    main(["score", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1]), "--out", str(scores)])
    code = main(["tails", "--scores", str(scores), "--side", "best", "--max", "50", "--step", "10", "--out", str(tmp_path / "t.tsv")])
    assert code == 1
    assert "exceeds" in capsys.readouterr().err


def test_tails_command_writes_rows(fixture_paths, tmp_path):
    scores = tmp_path / "scores.tsv"
    main(["score", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1]), "--out", str(scores)])
    out = tmp_path / "tails.tsv"
    assert main(["tails", "--scores", str(scores), "--side", "best", "--max", "3", "--step", "1", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cut\tmetric\toverlap"
    assert len(lines) == 1 + 3 * 9  # 3 cuts x 9 metrics


def test_tails_step_beyond_max_fails_and_writes_nothing(fixture_paths, tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    main(["score", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1]), "--out", str(scores)])
    out = tmp_path / "t.tsv"
    code = main(["tails", "--scores", str(scores), "--side", "best", "--max", "2", "--step", "5", "--out", str(out)])
    assert code == 1
    assert "step 5 exceeds max cut 2" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# stats table


def test_stats_table_weighted_by_mt_tokens():
    view = [
        _row("s1", "ALL", 2.0, L=1, hter=0.1),
        _row("s2", "ALL", 4.0, L=3, hter=0.5),
    ]
    table = build_stats_table(ScoreViews(view))["rows"]
    hter_all = next(r for r in table if r["metric"] == "HTER")
    assert hter_all["mean"] == pytest.approx((0.1 * 1 + 0.5 * 3) / 4)


# ---------------------------------------------------------------------------
# report


def test_report_contains_all_sections(fixture_paths, tmp_path):
    out_dir = tmp_path / "report"
    assert main(
        ["report", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1]), "--out-dir", str(out_dir)]
    ) == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    for key in ("stats_tables", "ranking_table", "loo_table", "tails", "clusters", "scatter_csv"):
        assert key in report, key
    assert set(report["ranking_table"]) == {"ANN0", "ANN1", "ALL"}
    for name in (
        "scores.tsv",
        "stats.tsv",
        "ranking.tsv",
        "williams.tsv",
        "loo.tsv",
        "tails_best.tsv",
        "tails_worst.tsv",
        "clusters.tsv",
        "scatter.csv",
    ):
        assert (out_dir / name).exists(), name


def _tsv(path: Path) -> list[dict[str, str]]:
    """A TSV file's rows as dicts of their raw cells."""
    header, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
    return [dict(zip(header.split("\t"), row.split("\t"))) for row in rows]


def _of(rows: list[dict[str, str]], annotator: str) -> list[dict[str, str]]:
    """One annotator's rows of a report table, without the annotator cell."""
    return [{k: v for k, v in r.items() if k != "annotator"} for r in rows if r["annotator"] == annotator]


def test_report_tables_equal_the_commands_on_its_scores(tmp_path):
    seeded = Path(__file__).parent / "golden" / "seeded"
    report = tmp_path / "report"
    corpus = ["--segments", str(seeded / "segments.tsv"), "--sessions", str(seeded / "sessions.tsv")]
    assert main(["report", *corpus, "--out-dir", str(report)]) == 0
    scores = ["--scores", str(report / "scores.tsv")]
    ranking, williams = _tsv(report / "ranking.tsv"), _tsv(report / "williams.tsv")
    annotators = list(dict.fromkeys(r["annotator"] for r in ranking))
    assert annotators == ["a1", "a2", "a3", "ALL"]
    for annotator in annotators:
        out = tmp_path / f"rank_{annotator}.tsv"
        assert main(["rank-eval", *scores, "--annotator", annotator, "--out", str(out)]) == 0
        assert _tsv(out) == _of(ranking, annotator)
        assert _tsv(out.with_name(out.name + ".williams.tsv")) == _of(williams, annotator)
    assert main(["loo", *scores, "--out", str(tmp_path / "loo.tsv")]) == 0
    assert _tsv(tmp_path / "loo.tsv") == _tsv(report / "loo.tsv")
    max_cut = min(500, len({r["segment_id"] for r in _tsv(report / "scores.tsv")}))
    cuts = ["--max", str(max_cut), "--step", str(min(50, max_cut))]
    for side in ("best", "worst"):
        out = tmp_path / f"tails_{side}.tsv"
        assert main(["tails", *scores, "--side", side, *cuts, "--out", str(out)]) == 0
        assert _tsv(out) == _tsv(report / f"tails_{side}.tsv")


def test_report_without_da_notes_omission(tmp_path):
    # every metric column must vary across segments or Spearman is undefined
    segments = tmp_path / "segments.tsv"
    segments.write_text(
        "id\tsystem_id\tsource\tmt\treference\n"
        "s1\tsys\tsrc\tone two three four\tone two three four\n"
        "s2\tsys\tsrc\tfive six seven eight\tfive six seven nine\n"
        "s3\tsys\tsrc\talpha beta gamma delta\talpha beta other words\n",
        encoding="utf-8",
    )
    sessions = tmp_path / "sessions.tsv"
    sessions.write_text(
        SESS_HEADER + "\n"
        "s1\tA\tone two three four\t2.0\t0\n"
        "s2\tA\tfive six seven nine maybe\t5.0\t9\n"
        "s3\tA\talpha beta gamma delta epsilon zeta\t9.0\t30\n"
        "s1\tB\tone two three four five\t3.0\t6\n"
        "s2\tB\tfive six seven eight\t4.0\t1\n"
        "s3\tB\talpha beta gamma words\t7.0\t12\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "report"
    assert main(["report", "--segments", str(segments), "--sessions", str(sessions), "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert any("DA" in note for note in report["notes"])
    ranked = {r["metric"] for r in report["ranking_table"]["ALL"]["rows"]}
    assert "DA" not in ranked


def test_report_rerun_is_byte_identical(fixture_paths, tmp_path):
    dirs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        assert main(
            ["report", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1]), "--out-dir", str(out_dir)]
        ) == 0
        dirs.append(out_dir)
    first_files = sorted(p.name for p in dirs[0].iterdir())
    second_files = sorted(p.name for p in dirs[1].iterdir())
    assert first_files == second_files
    for name in first_files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_undecodable_byte_in_segments_exits_1_naming_its_line(tmp_path, fixture_paths, capsys):
    lines = fixture_paths[0].read_bytes().split(b"\n")
    lines[2] = lines[2][:5] + b"\xff" + lines[2][5:]
    segments = tmp_path / "segments.tsv"
    segments.write_bytes(b"\n".join(lines))
    out = tmp_path / "scores.tsv"
    code = main(["score", "--segments", str(segments), "--sessions", str(fixture_paths[1]), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: segments: line 3: 'utf-8' codec can't decode byte 0xff in position 5")
    assert not out.exists()


def test_missing_input_file_is_input_error(tmp_path, capsys):
    code = main(
        ["score", "--segments", str(tmp_path / "nope.tsv"), "--sessions", str(tmp_path / "nope2.tsv"), "--out", str(tmp_path / "o.tsv")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unexpected_failures_exit_2(fixture_paths, tmp_path, monkeypatch, capsys):
    import pe_rank.cli as cli

    def boom(corpus):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "score_corpus", boom)
    code = cli.main(
        ["score", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1]), "--out", str(tmp_path / "s.tsv")]
    )
    assert code == 2
    assert "internal error" in capsys.readouterr().err


def test_report_stage_errors_name_the_stage(tmp_path, capsys):
    segments, sessions = _write_corpus(
        tmp_path, ["s1\tsys\tsrc\tmt here\tref here\t0.1"], []
    )
    # single segment: spearman during rank-eval needs >= 3 observations
    code = main(["report", "--segments", str(segments), "--sessions", str(sessions), "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert "rank-eval:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["no-sessions", "missing-segments"])
def test_failed_report_writes_nothing(tmp_path, capsys, case):
    segments, sessions = _write_corpus(
        tmp_path, ["s1\tsys\tsrc\tmt here\tref here\t0.1"], []
    )
    if case == "missing-segments":
        segments = tmp_path / "nope.tsv"
    out_dir = tmp_path / "report"
    code = main(["report", "--segments", str(segments), "--sessions", str(sessions), "--out-dir", str(out_dir)])
    assert code == 1
    stage = "rank-eval:" if case == "no-sessions" else "load:"
    assert stage in capsys.readouterr().err
    assert not out_dir.exists()


def test_report_with_one_annotator_stops_at_loo(tmp_path, capsys):
    seeded = Path(__file__).parent / "golden" / "seeded"
    sessions = tmp_path / "sessions.tsv"
    lines = (seeded / "sessions.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    sessions.write_text("".join(lines[:1] + [x for x in lines[1:] if x.split("\t")[1] == "a1"]),
                        encoding="utf-8")
    out_dir = tmp_path / "report"
    code = main(["report", "--segments", str(seeded / "segments.tsv"), "--sessions", str(sessions),
                 "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == "error: loo: leave-one-out requires at least 2 annotators\n"
    assert not out_dir.exists()


def _stops_on_missing_sessions_before_scoring(tmp_path, monkeypatch, capsys, argv):
    import pe_rank.cli as cli

    def no_scoring(corpus):
        raise AssertionError("scored a corpus with missing sessions")

    monkeypatch.setattr(cli, "score_corpus", no_scoring)
    segments, sessions = _write_corpus(
        tmp_path,
        [f"s{i}\tsys\tsrc\tmt here\tref here\t0.1" for i in range(1, 6)],
        ["s1\tA\tmt here\t10\t5", "s2\tB\tmt here\t10\t5"],
    )
    code = main([argv[0], "--segments", str(segments), "--sessions", str(sessions), *argv[1:]])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        "error: validate: annotator 'B' has no session for segment 's1'; "
        "annotator 'A' has no session for segment 's2'; "
        "annotator 'A' has no session for segment 's3' (and 5 more)\n"
    )


def test_report_stops_on_missing_sessions_before_scoring(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "report"
    argv = ["report", "--out-dir", str(out_dir)]
    _stops_on_missing_sessions_before_scoring(tmp_path, monkeypatch, capsys, argv)
    assert not out_dir.exists()


def test_score_stops_on_missing_sessions_before_scoring(tmp_path, monkeypatch, capsys):
    out = tmp_path / "scores.tsv"
    argv = ["score", "--out", str(out)]
    _stops_on_missing_sessions_before_scoring(tmp_path, monkeypatch, capsys, argv)
    assert not out.exists()


# Post-edits of one MT output with more and more edits, so every metric ranks
# s0 as least effort, s2 in the middle and s4 as most effort.
_MT = "the cat sat on the mat today"
_EDITED = (
    _MT,
    "the cat sat on a mat today",
    "a cat sat on a mat now",
    "one dog sat on a rug now",
    "one dog lay by a rug last night",
)


@pytest.mark.parametrize("command", ["score", "report"])
@pytest.mark.parametrize("zero", [0, 2, 4], ids=["first", "middle", "last"])
def test_zero_time_session_stops_wherever_the_ranking_puts_it(tmp_path, capsys, command, zero):
    # SATRA fails only on a zero-time suffix of a ranking, so before this check
    # `report` passed with the session first or in the middle and failed with it last
    segments, sessions = _write_corpus(
        tmp_path,
        [f"s{i}\tsys\tsrc\t{_MT}\t{pe}\t{(5 - i) / 10}" for i, pe in enumerate(_EDITED)],
        [
            f"s{i}\t{a}\t{pe}\t{0 if (i, a) == (zero, 'A') else 10 + 7 * i}\t{3 * i}"
            for i, pe in enumerate(_EDITED)
            for a in "AB"
        ],
    )
    out = tmp_path / "out"
    flag = "--out" if command == "score" else "--out-dir"
    code = main([command, "--segments", str(segments), "--sessions", str(sessions), flag, str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: validate: zero post-editing time for segment 's{zero}', annotator 'A'\n"
    )
    assert not out.exists()


def test_gaps_named_are_missing_then_zero_time_sessions(tmp_path, monkeypatch, capsys):
    import pe_rank.cli as cli

    monkeypatch.setattr(cli, "score_corpus", None)  # never reached
    segments, sessions = _write_corpus(
        tmp_path,
        [f"s{i}\tsys\tsrc\tmt here\tref here\t0.1" for i in range(1, 4)],
        ["s1\tA\tmt here\t0\t5", "s1\tB\tmt here\t0\t5", "s2\tA\tmt here\t10\t5",
         "s3\tA\tmt here\t0\t5", "s3\tB\tmt here\t10\t5"],
    )
    code = main(["score", "--segments", str(segments), "--sessions", str(sessions), "--out", str(tmp_path / "s.tsv")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: validate: annotator 'B' has no session for segment 's2'; "
        "zero post-editing time for segment 's1', annotator 'A'; "
        "zero post-editing time for segment 's1', annotator 'B' (and 1 more)\n"
    )


_REPORT = ["report", "--segments", "SEG", "--sessions", "SESS", "--out-dir", "OUT"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (_REPORT + ["--williams-alpha", "7"], 1, "--williams-alpha: '7' is not a number strictly between 0 and 1"),
        (_REPORT + ["--williams-alpha", "0"], 1, "--williams-alpha: '0' is not"),
        (_REPORT + ["--ks-alpha", "nan"], 1, "--ks-alpha: 'nan' is not"),
        (_REPORT + ["--ks-alpha", "1"], 1, "--ks-alpha: '1' is not"),
        (_REPORT + ["--ks-alpha", "x"], 1, "--ks-alpha: invalid alpha value: 'x'"),
        (_REPORT + ["--max-cut", "3"], 1, "unrecognized arguments: --max-cut 3"),
        (["tails", "--scores", "SEG", "--side", "best", "--max", "x", "--step", "1", "--out", "OUT"], 1,
         "--max: invalid int value: 'x'"),
        (_REPORT + ["--help"], 0, ""),
        (_REPORT + ["--williams-alpha", "0.05", "--ks-alpha", "0.5"], 0, ""),
    ],
)
def test_argument_errors_exit_1(fixture_paths, tmp_path, capsys, argv, code, message):
    out = tmp_path / "out"
    paths = {"SEG": str(fixture_paths[0]), "SESS": str(fixture_paths[1]), "OUT": str(out)}
    assert main([paths.get(a, a) for a in argv]) == code
    assert message in capsys.readouterr().err
    assert out.exists() == (code == 0 and "--help" not in argv)


@pytest.mark.parametrize(
    "command, message",
    [
        (["rank-eval", "--annotator", "ALL"], "error: metric HTER: undefined correlation (constant vector)"),
        (["loo"], "error: annotator 'A', metric HTER: undefined correlation (constant vector)"),
    ],
)
def test_undefined_correlation_names_the_metric(tmp_path, capsys, command, message):
    rows = [
        _row(f"s{i}", annotator, 1.0 + (i * 3 + k) % 5, hter=0.25)
        for i in range(6)
        for k, annotator in enumerate(["A", "B", "ALL"])
    ]
    scores = tmp_path / "scores.tsv"
    write_scores(rows, scores)
    out = tmp_path / "out.tsv"
    assert main(command + ["--scores", str(scores), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("time", [1e308, 5e-324], ids=["overflow", "underflow"])
def test_rank_eval_times_that_over_or_underflow_exit_1(tmp_path, capsys, time):
    golden = Path(__file__).parent / "golden" / "fixtures" / "expected" / "scores.tsv"
    rows = [
        replace(r, pe_time_sec=time) if r.annotator_id == "ANN0" else r
        for r in read_scores(golden)
    ]
    scores = tmp_path / "scores.tsv"
    write_scores(rows, scores)
    out = tmp_path / "out.tsv"
    argv = ["rank-eval", "--scores", str(scores), "--annotator", "ANN0", "--out", str(out)]
    assert main(argv) == 1
    assert "error: metric TER: degenerate times" in capsys.readouterr().err
    assert not out.exists()


def test_rank_eval_mt_tokens_summing_past_int64_keep_satra_right(tmp_path):
    golden = Path(__file__).parent / "golden" / "seeded" / "expected" / "scores.tsv"
    scores = tmp_path / "scores.tsv"
    write_scores([replace(r, mt_tokens=4 * 10**18) for r in read_scores(golden)], scores)
    out = tmp_path / "out.tsv"
    assert main(["rank-eval", "--scores", str(scores), "--annotator", "ALL", "--out", str(out)]) == 0
    header, *rows = (line.split("\t") for line in out.read_text(encoding="utf-8").splitlines())
    petpw = next(dict(zip(header, row)) for row in rows if row[0] == "PETPW")
    assert float(petpw["satra"]) < 1  # gold ranked by itself: least effort first


_FIXTURES = Path(__file__).parent / "fixtures"
# Each input file: its path, and how many id columns lead its lines.
_INPUTS = {
    "scores": (Path(__file__).parent / "golden" / "fixtures" / "expected" / "scores.tsv", 2),
    "segments": (_FIXTURES / "segments.tsv", 1),
    "sessions": (_FIXTURES / "sessions.tsv", 2),
}
_LINES = {name: path.read_text(encoding="utf-8").splitlines() for name, (path, _) in _INPUTS.items()}
_RUNS = [  # (command, the input file that is damaged)
    (("rank-eval", "--annotator", "ALL"), "scores"),
    (("rank-eval", "--annotator", "ANN0"), "scores"),
    (("loo",), "scores"),
    (("tails", "--side", "worst", "--max", "2", "--step", "1"), "scores"),
    (("score",), "segments"),
    (("score",), "sessions"),
    (("report",), "segments"),
    (("report",), "sessions"),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150)
@given(st.sampled_from(_RUNS), st.data())
def test_damaged_inputs_exit_0_or_1(fuzz_dir, run, data):
    command, damaged = run
    paths = {name: fuzz_dir / f"{name}.tsv" for name in _INPUTS}
    for name, lines in _LINES.items():
        if name == damaged:
            lines = data.draw(mutated_lines(lines, cell_pool(lines, _INPUTS[name][1])))
        paths[name].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    if command[0] in ("score", "report"):
        inputs = ["--segments", str(paths["segments"]), "--sessions", str(paths["sessions"])]
    else:
        inputs = ["--scores", str(paths["scores"])]
    out = fuzz_dir / "out"  # out.tsv (with out.tsv.williams.tsv), or the report directory
    out.mkdir(exist_ok=True)
    before = _tree(out)
    outputs = ["--out-dir", str(out / "report")] if command == ("report",) else ["--out", str(out / "out.tsv")]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*command, *inputs, *outputs])
    assert code in (0, 1), stderr.getvalue()  # an exception main() lets out fails the test too
    if code == 1:
        assert _tree(out) == before, stderr.getvalue()


# ---------------------------------------------------------------------------
# outputs are written all or none


_REPORT_FILES = (
    "scores.tsv",
    "stats.tsv",
    "ranking.tsv",
    "williams.tsv",
    "loo.tsv",
    "tails_best.tsv",
    "tails_worst.tsv",
    "clusters.tsv",
    "scatter.csv",
    "report.json",
)
# (command, the name of one of its output files)
_OUTPUTS = [
    ("score", "out.tsv"),
    ("rank-eval", "out.tsv"),
    ("rank-eval", "out.tsv.williams.tsv"),
    ("loo", "out.tsv"),
    ("tails", "out.tsv"),
    *(("report", name) for name in _REPORT_FILES),
]


def _tree(path: Path):
    """What is at `path`: None, a symlink's target, a file's bytes, or a
    directory's {name: tree}, hidden names included."""
    if path.is_symlink():
        return ("symlink", os.readlink(path))
    if path.is_dir():
        return {p.name: _tree(p) for p in path.iterdir()}
    return path.read_bytes() if path.exists() else None


def _argv(command: str, out_dir: Path) -> list[str]:
    """`command` on the fixtures, writing `out_dir / "out.tsv"`, or into `out_dir` for report."""
    corpus = ["--segments", str(_FIXTURES / "segments.tsv"), "--sessions", str(_FIXTURES / "sessions.tsv")]
    scores = ["--scores", str(_INPUTS["scores"][0])]
    out = ["--out", str(out_dir / "out.tsv")]
    return {
        "score": ["score", *corpus, *out],
        "rank-eval": ["rank-eval", *scores, "--annotator", "ALL", *out],
        "loo": ["loo", *scores, *out],
        "tails": ["tails", *scores, "--side", "best", "--max", "2", "--step", "1", *out],
        "report": ["report", *corpus, "--out-dir", str(out_dir)],
    }[command]


def _earlier_run(out_dir: Path, command: str) -> None:
    """Make `out_dir` hold a user's own file and an earlier run's outputs of `command`."""
    out_dir.mkdir(parents=True)
    (out_dir / "notes.txt").write_text("the user's own file\n", encoding="utf-8")
    names = _REPORT_FILES if command == "report" else ("out.tsv", "out.tsv.williams.tsv")
    for name in names:
        (out_dir / name).write_text(f"{name} of an earlier run\n", encoding="utf-8")


def _fill_disk_at(monkeypatch, name: str) -> None:
    """Make every `Path.write_text` of a file called `name` write half its text
    and raise ENOSPC, as a full disk would."""
    write_text = Path.write_text

    def full_write_text(self, data, *args, **kwargs):
        if self.name != name:
            return write_text(self, data, *args, **kwargs)
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

    monkeypatch.setattr(Path, "write_text", full_write_text)


@pytest.mark.parametrize("command, name", _OUTPUTS)
def test_failed_write_leaves_the_output_directory_as_it_was(tmp_path, monkeypatch, capsys, command, name):
    out_dir = tmp_path / "out"
    _earlier_run(out_dir, command)
    before = _tree(out_dir)
    _fill_disk_at(monkeypatch, name)
    assert main(_argv(command, out_dir)) == 1
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert _tree(out_dir) == before


@pytest.mark.parametrize("name", _REPORT_FILES)
def test_failed_report_write_removes_the_directories_it_made(tmp_path, monkeypatch, capsys, name):
    _fill_disk_at(monkeypatch, name)
    assert main(_argv("report", tmp_path / "made" / "report")) == 1
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert _tree(tmp_path) == {}


@pytest.mark.parametrize(
    "command, name, kind",
    [
        ("report", "loo.tsv", "directory"),
        ("rank-eval", "out.tsv.williams.tsv", "directory"),
        ("score", "out.tsv", "device"),
    ],
)
def test_output_that_is_not_a_regular_file_stops_every_write(tmp_path, capsys, command, name, kind):
    out_dir = tmp_path / "out"
    _earlier_run(out_dir, command)
    (out_dir / name).unlink()
    if kind == "directory":
        (out_dir / name).mkdir()
    else:
        (out_dir / name).symlink_to(os.devnull)
    before = _tree(out_dir)
    assert main(_argv(command, out_dir)) == 1
    assert capsys.readouterr().err == f"error: {out_dir / name}: not a regular file\n"
    assert _tree(out_dir) == before


@pytest.mark.parametrize("command", ["score", "rank-eval", "loo", "tails", "report"])
def test_outputs_have_the_mode_a_plain_write_gives(tmp_path, command):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    umask = os.umask(0o022)
    try:
        assert main(_argv(command, out_dir)) == 0
    finally:
        os.umask(umask)
    modes = {p.name: p.stat().st_mode & 0o777 for p in out_dir.iterdir()}
    assert modes and set(modes.values()) == {0o644}, modes


def test_single_command_does_not_make_its_directory(tmp_path, capsys):
    assert main(_argv("score", tmp_path / "missing")) == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert _tree(tmp_path) == {}


def test_report_rerun_in_place_is_byte_identical_and_keeps_other_files(tmp_path):
    out_dir = tmp_path / "report"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("the user's own file\n", encoding="utf-8")
    assert main(_argv("report", out_dir)) == 0
    first = _tree(out_dir)
    assert set(first) == {*_REPORT_FILES, "notes.txt"}
    assert main(_argv("report", out_dir)) == 0
    assert _tree(out_dir) == first
