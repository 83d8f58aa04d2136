"""pe-rank benchmark: times whole CLI runs on seeded synthetic inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload report-paper --seed 0 --seconds 55 --trace 0

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones
named in BENCHMARK.json (`setup_s`, `wall_s`, `peak_rss_mb`); with `--trace 1`
they are the per-layer ones, taken from a separate traced run. The lines
before it give the run environment, every pass time and a readable summary.

The package is imported from `src/` of the checkout this file sits in, with
`PE_RANK_THREADS` cleared so it runs with its defaults. Inputs, outputs and
spans go to `.bench_work/` in the checkout.

`--threads N` sets `PE_RANK_THREADS` instead (for comparing pool sizes), and
`--write-digests` stores this run's output digests as the reference for its
workload and seed in `perfbench/digests.json`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"


def child_env(threads: int | None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PE_RANK_THREADS", None)
    if threads is not None:
        env["PE_RANK_THREADS"] = str(threads)
    return env


def high_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile that has at least ten samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return f"p{100 * k // len(ordered)}", ordered[k - 1]


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, help="set PE_RANK_THREADS instead of clearing it")
    parser.add_argument("--write-digests", action="store_true",
                        help="store this run's output digests as the reference for its seed")
    args = parser.parse_args()

    if not (SRC / "pe_rank" / "cli.py").is_file():
        print(f"error: no pe_rank package under {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    for k in range(workload.input_sets):
        (work / f"in{k}").mkdir(parents=True)
        workload.prepare(f"{args.seed}/{k}", work / f"in{k}")

    env = child_env(args.threads)
    stored = load_digests().get(args.workload, {}).get(str(args.seed))
    plan = {
        "workload": args.workload,
        "work": str(work),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "expected": None if args.write_digests else stored,
        "result": str(work / "result.json"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=args.seconds + 90,
    )
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))

    passes = result["pass_s"]
    env_record = dict(result["env"], seed=args.seed, workload=args.workload,
                      sizes=workload.sizes, input_sets=workload.input_sets,
                      digests_checked=plan["expected"] is not None)
    print("env " + json.dumps(env_record, sort_keys=True))
    print("pass_s " + json.dumps(passes))
    if args.trace:
        print("traced_pass_s " + json.dumps(result["traced_pass_s"]))
    for failure in result["failures"]:
        print(f"failed: {failure}")

    if args.trace:
        names = declared("per_layer")
        measured = result["layers"]
    else:
        names = declared("end_to_end")
        setup = result["setup_s"]
        measured = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(passes),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        tail = high_percentile(passes)
        print(f"setup_s  {measured['setup_s']:.4f} s (median of {len(setup)}; "
              f"min {min(setup):.4f}, max {max(setup):.4f})")
        print(f"wall_s   {measured['wall_s']:.4f} s (median of {len(passes)} passes; "
              + (f"{tail[0]} {tail[1]:.4f} s)" if tail else
                 f"fewer than 11 passes, so no tail percentile; max {max(passes):.4f} s)"))
        print(f"peak_rss_mb {measured['peak_rss_mb']:.1f} MB")
    print(f"error_rate {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} operations failed)")

    if args.write_digests and result["failed"] == 0:
        table = load_digests()
        table.setdefault(args.workload, {})[str(args.seed)] = result["digests"]
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    metrics = {
        name: {"value": measured[name], "unit": unit}
        for name, unit in names.items()
        if name in measured and math.isfinite(measured[name])
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
