"""Runs one workload's passes in a fresh interpreter and writes what it saw.

Usage: python3 perfbench/worker.py PLAN.json

`run.py` writes the plan (workload, work directory, seconds, trace flag,
stored digests) and reads the result file the worker writes. A pass runs
every operation of the workload once through `pe_rank.cli.main`; its wall
time is what `wall_s` reports. Outputs are checked after every pass, outside
the timed region.

An untraced run also times fresh interpreter starts for `setup_s`, one
after each pass, so that they sample the same stretch of time as the
passes do.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pe_rank.cli as cli
import tracer
import workloads as wl


SETUP_CODE = "import pe_rank.cli as cli; cli.main"
SETUP_MIN = 9  # fresh starts per untraced run, at least
SETUP_MAX = 25  # and at most


def time_setup() -> float:
    """Seconds from starting a fresh interpreter until `pe_rank.cli.main` is importable.

    No timeout is passed: with one, `subprocess` polls for the exit in steps
    of up to 50 ms, which would show in the figure.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], check=True)
    return time.perf_counter() - start


def run_pass(ops: tuple[wl.Op, ...]) -> tuple[float, list[int]]:
    # Each command normally runs in a fresh process. Collecting the previous
    # pass's garbage first, untimed, gives every pass the same collector
    # state, instead of some passes paying for a full collection of the last
    # one's objects.
    gc.collect()
    codes = []
    start = time.perf_counter()
    for op in ops:
        try:
            codes.append(cli.main(list(op.argv)))
        except SystemExit as exc:  # argparse rejected the command line
            codes.append(exc.code if isinstance(exc.code, int) else 2)
    return time.perf_counter() - start, codes


def check_pass(
    ops: tuple[wl.Op, ...], codes: list[int], inputs: Path, reference: dict, strict: bool
) -> tuple[list[str], dict]:
    """Failure messages (one per failed operation) and the pass's output digests.

    Digests are keyed by path under the work directory, such as
    `in0/report/scores.tsv`. An output must match its digest in `reference`;
    one missing there fails only when `strict`.
    """
    failures: list[str] = []
    seen: dict[str, str] = {}
    for op, code in zip(ops, codes):
        digests = {f"{inputs.name}/{rel}": d for rel, d in wl.digests(inputs, op.outputs).items()}
        seen.update(digests)
        if code != 0:
            failures.append(f"{inputs.name} {op.name}: exit status {code}")
            continue
        try:
            op.check(inputs)
        except wl.CheckError as exc:
            failures.append(f"{inputs.name} {op.name}: {exc}")
            continue
        wrong = [rel for rel, d in digests.items()
                 if reference.get(rel, None if strict else d) != d]
        if wrong:
            failures.append(f"{inputs.name} {op.name}: output bytes differ from reference: "
                            + ", ".join(wrong))
    return failures, seen


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    workload = wl.WORKLOADS[plan["workload"]]
    work = Path(plan["work"])
    budget = plan["seconds"]
    stored = plan["expected"]  # digests stored for this seed, or None

    untraced: list[float] = []
    traced: list[float] = []
    setup: list[float] = []
    layers: list[dict] = []
    failures: list[str] = []
    attempted = 0
    digests: dict[str, str] = {}  # first-seen digest of every output
    spans: list = []
    tr = tracer.Tracer()
    modes = [False, True] if plan["trace"] else [False]
    start = time.perf_counter()
    # An untraced run covers every input set, so a seed means the same inputs
    # however fast the machine is. A traced run stays on the first set, so
    # its counts repeat exactly and its overhead compares like with like.
    sets = 1 if plan["trace"] else workload.input_sets
    if not plan["trace"]:
        time_setup()  # not counted: it may compile bytecode, which users pay once
    while True:
        inputs = work / f"in{len(untraced) % sets}"
        os.chdir(inputs)
        for traced_pass in modes:
            if traced_pass:
                tr.install()
            try:
                seconds, codes = run_pass(workload.ops)
            finally:
                tr.uninstall()
            if traced_pass:
                spans = tr.take()
                layers.append(tracer.layer_metrics(spans, tr.installed))
                traced.append(seconds)
            else:
                untraced.append(seconds)
            attempted += len(codes)
            bad, seen = check_pass(workload.ops, codes, inputs,
                                   digests if stored is None else stored, stored is not None)
            failures.extend(bad)
            for rel, d in seen.items():
                digests.setdefault(rel, d)
        if not plan["trace"] and len(setup) < SETUP_MAX:
            setup.append(time_setup())
        elapsed = time.perf_counter() - start
        if len(untraced) >= sets and elapsed + elapsed / len(untraced) > budget:
            break
    while not plan["trace"] and len(setup) < SETUP_MIN:
        setup.append(time_setup())

    if spans:
        tracer.write_spans(spans, work / "spans.tsv")
    result = {
        "pass_s": untraced,
        "setup_s": setup,
        "traced_pass_s": traced,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": {k: statistics.median(d[k] for d in layers) for k in (layers[0] if layers else {})},
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
            "score_workers": cli._workers() if hasattr(cli, "_workers") else None,
            "pe_rank_threads": os.environ.get("PE_RANK_THREADS"),
        },
    }
    if traced:
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1
        )
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
