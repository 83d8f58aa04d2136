"""Runs the benchmark over several seeds and summarises the spread.

Usage (from the repository root):

    python3 perfbench/collect.py --workloads report-paper score-short \\
        --seeds 0-9 --seconds 55 --trace 0 --threads default,1 --out results.json

For each workload and thread setting it runs `run.py` once per seed (thread
settings alternate within a seed, so slow spells on a shared machine hit
them alike) and records every run's metrics and environment. For each
metric it prints and stores the median, the quartiles from
`statistics.quantiles(values, n=4)`, and their distance as a share of the
median, the spread BENCHMARK.json's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: float, trace: int, threads: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if threads != "default":
        cmd += ["--threads", threads]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with status {proc.returncode}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    passes = next(json.loads(line[7:]) for line in lines if line.startswith("pass_s "))
    return dict(json.loads(lines[-1]), env=env, pass_s=passes, seed=seed)


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", default="default",
                        help="comma-separated PE_RANK_THREADS settings; 'default' clears it")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    settings = args.threads.split(",")
    report: dict = {"seconds": args.seconds, "trace": args.trace, "runs": {}, "summary": {}}
    for workload in args.workloads:
        for seed in args.seeds:
            for threads in settings:
                key = f"{workload} threads={threads}"
                result = run(workload, seed, args.seconds, args.trace, threads)
                report["runs"].setdefault(key, []).append(result)
                print(key, "seed", seed, json.dumps(
                    {m: round(v["value"], 4) for m, v in result["metrics"].items()
                     if m in ("setup_s", "wall_s", "peak_rss_mb", "cli.score_corpus.s",
                              "cli.score_corpus.cpu_s", "trace.overhead_frac")}),
                      "failed", result["failed"], flush=True)
    for key, runs in report["runs"].items():
        names = runs[0]["metrics"]
        report["summary"][key] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            **{m: spread([r["metrics"][m]["value"] for r in runs]) for m in names},
        }
        for m in ("setup_s", "wall_s", "peak_rss_mb", "cli.score_corpus.s", "cli.score_corpus.cpu_s"):
            if m in report["summary"][key]:
                s = report["summary"][key][m]
                print(f"{key:34} {m:22} median {s['median']:.4f} "
                      f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['iqr_frac']:.3f}")
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
