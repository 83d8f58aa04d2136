"""Module boundaries: the library layers do not depend on the command line."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pe_rank


def test_analysis_and_scoring_load_neither_cli_nor_argparse():
    code = (
        "import sys, pe_rank.analysis, pe_rank.taskmetrics\n"
        "print(' '.join(m for m in ('pe_rank.cli', 'argparse') if m in sys.modules))"
    )
    src = str(Path(pe_rank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
