"""Module boundaries: the library layers do not depend on the command line,
and numpy is the only package the commands load outside the standard library."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pe_rank


def _run(code: str, cwd: Path | None = None) -> str:
    """stdout of `code` in a fresh interpreter that imports pe_rank from this tree."""
    src = str(Path(pe_rank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_analysis_and_scoring_load_neither_cli_nor_argparse():
    code = (
        "import sys, pe_rank.analysis, pe_rank.taskmetrics\n"
        "print(' '.join(m for m in ('pe_rank.cli', 'argparse') if m in sys.modules))"
    )
    assert _run(code).strip() == ""


def test_a_report_loads_only_the_standard_library_and_numpy(tmp_path):
    # compared with a bare interpreter: site may import packages of its own through .pth files
    listing = "import sys\nprint(' '.join(sys.modules))"
    bare = set(_run(listing).split())
    seeded = Path(__file__).parent / "golden" / "seeded"
    argv = ["report", "--segments", str(seeded / "segments.tsv"),
            "--sessions", str(seeded / "sessions.tsv"), "--out-dir", "report"]
    code = f"import pe_rank.cli\nassert pe_rank.cli.main({argv!r}) == 0\n{listing}"
    loaded = set(_run(code, cwd=tmp_path).split()) - bare
    allowed = sys.stdlib_module_names | {"pe_rank", "numpy"}
    assert "numpy" in loaded
    assert sorted(m for m in loaded if m.partition(".")[0] not in allowed) == []
