"""Scoring and reading in forked parts, through `forked.run_parts`: the same
rows, errors, exit codes and files as in one process, whatever the number of
parts, and no process left behind.

`taskmetrics._part_count` and `corpus._part_count` are patched to force a
number of parts, so the fork path runs here even on a machine with one CPU;
`taskmetrics._split` tells which part, and so which process, scores a segment.
The tests of a child that dies, of an interrupt and of a child's buffers run
for each user of the helper: scoring and reading.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pe_rank
from pe_rank import corpus, taskmetrics
from pe_rank.cli import main
from pe_rank.corpus import PESession, Segment, load_corpus
from pe_rank.taskmetrics import score_corpus

SEEDED = Path(__file__).parent / "golden" / "seeded"
SEEDED_INPUTS = ["--segments", str(SEEDED / "segments.tsv"), "--sessions", str(SEEDED / "sessions.tsv")]


@contextlib.contextmanager
def _parts(parts: int):
    """Score, and read every file, in `parts` parts."""
    with mock.patch.object(taskmetrics, "_part_count", lambda segments: parts), \
            mock.patch.object(corpus, "_part_count", lambda size: parts):
        yield


# Each user of `forked.run_parts`, by the word its error uses, and the function
# that does the work of one part in it.
_USERS = {"scoring": (taskmetrics, "_segment_rows"), "reading": (corpus, "_read_part")}


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _run(argv: list[str]) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _check_part_count(monkeypatch, part_count, minimum: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    for units in [*range(0, 100), *(minimum * k + d for k in range(1, 11) for d in (-1, 0, 1))]:
        parts = part_count(units)
        assert 1 <= parts <= 8
        assert parts == 1 or units // parts >= minimum
        assert parts == 8 or units // (parts + 1) < minimum
    monkeypatch.delattr(os, "fork")
    assert part_count(1000 * minimum) == 1


def test_part_count_is_one_per_usable_cpu_while_parts_hold_a_minimum(monkeypatch):
    _check_part_count(monkeypatch, taskmetrics._part_count, taskmetrics._MIN_PART)


def test_read_part_count_is_one_per_usable_cpu_while_parts_hold_a_minimum(monkeypatch):
    _check_part_count(monkeypatch, corpus._part_count, corpus._MIN_PART_BYTES)
    assert corpus._MIN_PART_BYTES > 64 << 10  # report's scores text, say, is read in one part


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60), st.lists(st.integers(1, 60), max_size=3)),
                max_size=30),
       st.integers(1, 5))
def test_split_holds_each_segment_once_and_balances_the_estimated_work(shapes, parts):
    jobs = [
        (Segment(f"s{i}", "sys", "src", "a" * mt, "a" * ref, None),
         [PESession(f"s{i}", f"a{j}", "a" * pe, 1.0, 0) for j, pe in enumerate(pes)])
        for i, (mt, ref, pes) in enumerate(shapes)
    ]
    split = taskmetrics._split(jobs, parts)
    assert len(split) == parts
    assert sorted(i for part in split for i in part) == list(range(len(jobs)))
    assert all(part == sorted(part) for part in split)
    work = [mt * (ref + sum(pes)) for mt, ref, pes in shapes]
    loads = [sum(work[i] for i in part) for part in split]
    assert max(loads) - min(loads) <= max(work, default=0)  # as list scheduling guarantees


def test_report_at_three_parts_matches_golden(tmp_path):
    with _parts(3):
        assert main(["report", *SEEDED_INPUTS, "--out-dir", str(tmp_path)]) == 0
    assert _files(tmp_path) == _files(SEEDED / "expected" / "report")
    _no_child_left()


def _seeded_jobs() -> list:
    corpus = load_corpus(SEEDED / "segments.tsv", SEEDED / "sessions.tsv")
    index = corpus.sessions_by_segment()
    return [(seg, index[seg.id]) for seg in sorted(corpus.segments, key=lambda s: s.id)]


def _first(part: list[int], after: int = -1) -> int:
    return next(i for i in part if i > after)


# Planted failures, from the split into parts (part 0 is the parent's) to
# {segment index: (exception class, message)}.
_FAULTS = {
    "parent": lambda sp: {_first(sp[0]): (ValueError, "planted in the parent")},
    "child": lambda sp: {_first(sp[1]): (RuntimeError, "planted in a child")},
    "parent first": lambda sp: {
        (a := _first(sp[0])): (RuntimeError, "parent, earliest"),
        _first(sp[1], a): (ValueError, "child, later"),
    },
    "child first": lambda sp: {
        (b := _first(sp[1])): (RuntimeError, "child, earliest"),
        _first(sp[0], b): (ValueError, "parent, later"),
    },
    "last child first": lambda sp: {
        (c := _first(sp[-1])): (RuntimeError, "last child, earliest"),
        _first(sp[-2], c): (ValueError, "the part before it, later"),
    },
}


def _plant(monkeypatch, faults: dict) -> None:
    """Make `_segment_rows` fail on the planted segments; a forked child inherits it."""
    real = taskmetrics._segment_rows
    by_id = {_seeded_jobs()[i][0].id: fault for i, fault in faults.items()}

    def planted(seg, sessions):
        if seg.id in by_id:
            cls, message = by_id[seg.id]
            raise cls(message)
        return real(seg, sessions)

    monkeypatch.setattr(taskmetrics, "_segment_rows", planted)


@pytest.mark.parametrize("command", ["score", "report"])
@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("case", sorted(_FAULTS))
def test_planted_failure_reads_as_at_one_part(monkeypatch, tmp_path, case, parts, command):
    faults = _FAULTS[case](taskmetrics._split(_seeded_jobs(), parts))
    _plant(monkeypatch, faults)
    earliest = faults[min(faults)]
    out = ["--out", str(tmp_path / "scores.tsv")] if command == "score" else ["--out-dir", str(tmp_path / "r")]
    with _parts(1):
        serial = _run([command, *SEEDED_INPUTS, *out])
    with _parts(parts):
        forked = _run([command, *SEEDED_INPUTS, *out])
    assert forked == serial
    assert serial[0] == (1 if earliest[0] is ValueError else 2)
    assert earliest[1] in serial[1]
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


def _plant_in(monkeypatch, user: str, child, parent=None) -> None:
    """Make the function that does one part's work for `user` call `child` in a
    forked child, and `parent`, if given, in the test process."""
    module, name = _USERS[user]
    real, test_process = getattr(module, name), os.getpid()

    def planted(*args):
        if os.getpid() != test_process:
            child()
        elif parent:
            parent()
        return real(*args)

    monkeypatch.setattr(module, name, planted)


@pytest.mark.parametrize("user", sorted(_USERS))
def test_a_child_that_dies_without_its_rows_exits_2(monkeypatch, tmp_path, user):
    _plant_in(monkeypatch, user, child=lambda: os._exit(3))
    with _parts(3):
        code, stderr = _run(["report", *SEEDED_INPUTS, "--out-dir", str(tmp_path / "r")])
    assert code == 2
    assert f"a {user} process ended with status 3" in stderr
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


def test_a_child_never_flushes_or_returns_into_the_parent(tmp_path):
    log = tmp_path / "log.txt"
    with _parts(3), open(log, "w", encoding="utf-8") as stream:
        stream.write("before\n")  # still in the buffer when the children fork
        try:
            score_corpus(load_corpus(SEEDED / "segments.tsv", SEEDED / "sessions.tsv"))
        finally:
            stream.write("finally\n")
    assert log.read_text(encoding="utf-8") == "before\nfinally\n"
    _no_child_left()


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("user", sorted(_USERS))
def test_an_interrupt_kills_and_reaps_the_children(monkeypatch, user):
    # a child outlives the interrupt unless it is killed
    _plant_in(monkeypatch, user, child=lambda: time.sleep(60), parent=_interrupt)
    start = time.monotonic()
    with _parts(3), pytest.raises(KeyboardInterrupt):
        score_corpus(load_corpus(SEEDED / "segments.tsv", SEEDED / "sessions.tsv"))
    assert time.monotonic() - start < 30
    _no_child_left()


def test_forked_reads_and_scores_raise_no_fork_warning():
    """On Python 3.12+, fork() in a process with threads (numpy's OpenBLAS
    starts some) warns; `forked._fork` silences that one warning, so that
    under -W error a forked read and a forked score still run."""
    code = textwrap.dedent(f"""
        import os, threading
        from unittest import mock
        from pe_rank import corpus, taskmetrics
        seeded = {str(SEEDED)!r}
        threading.Thread(target=threading.Event().wait, args=(30,), daemon=True).start()
        def run(parts):
            with mock.patch.object(taskmetrics, "_part_count", lambda segments: parts), \\
                    mock.patch.object(corpus, "_part_count", lambda size: parts):
                c = corpus.load_corpus(seeded + "/segments.tsv", seeded + "/sessions.tsv")
                return c, taskmetrics.score_corpus(c)
        assert run(3) == run(1)
        print("ok")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(pe_rank.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


# ---------------------------------------------------------------------------
# inputs drawn from scratch, scored in two parts

_TEXT = st.builds(str.__add__, st.sampled_from("abté"), st.text(st.sampled_from("ab .,'-\\nté "), max_size=9))
_JUNK = ["", "x", "-1", "0", " 2", "nan", "inf", "1e400", "9223372036854775808", "s1", "a1", "ALL"]


@st.composite
def _corpus_files(draw) -> tuple[str, str]:
    """A segments and a sessions file: valid, or short of one session, or with up
    to two cells replaced by junk."""
    ids = [f"s{i}" for i in range(draw(st.integers(0, 6)))]
    annotators = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    has_da = draw(st.booleans())
    segments = [["id", "system_id", "source", "mt", "reference"] + (["da"] if has_da else [])]
    sessions = [["segment_id", "annotator_id", "pe_text", "pe_time_sec", "keystrokes"]]
    for sid in ids:
        da = [draw(st.just("") | st.floats(-3, 3).map(repr))] if has_da else []
        segments.append([sid, "sys", draw(_TEXT), draw(_TEXT), draw(_TEXT), *da])
        for annotator in annotators:
            time = draw(st.floats(0.5, 100).map(repr))
            sessions.append([sid, annotator, draw(_TEXT), time, str(draw(st.integers(0, 50)))])
    if len(sessions) > 1 and draw(st.integers(0, 3)) == 0:
        del sessions[draw(st.integers(1, len(sessions) - 1))]  # a missing session
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        rows = draw(st.sampled_from([segments, sessions]))
        row = rows[-1 - draw(st.integers(0, len(rows) - 1))]  # the header last
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_JUNK))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return tuple("".join("\t".join(row) + end for row in rows) for rows in (segments, sessions))


@pytest.mark.parametrize("command", ["score", "report"])
@settings(max_examples=50, deadline=None)
@given(files=_corpus_files())
def test_inputs_from_scratch_exit_0_or_1_in_two_parts(command, files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "segments.tsv").write_text(files[0], encoding="utf-8", newline="")
        (root / "sessions.tsv").write_text(files[1], encoding="utf-8", newline="")
        inputs = ["--segments", str(root / "segments.tsv"), "--sessions", str(root / "sessions.tsv")]
        out = ["--out", str(root / "scores.tsv")] if command == "score" else ["--out-dir", str(root / "r")]
        with _parts(2):
            code, stderr = _run([command, *inputs, *out])
        assert code in (0, 1), stderr
        assert "Traceback" not in stderr
        if code == 1:
            assert sorted(p.name for p in root.iterdir()) == ["segments.tsv", "sessions.tsv"], stderr
        _no_child_left()
