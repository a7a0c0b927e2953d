#!/usr/bin/env python3
"""Run a parent and a change e2ebench binary in alternating pairs and
write BENCH_e2e.json.

Usage:
  e2e_pairs.py --parent BIN --change BIN --pairs N [--seconds S]
               [--seed SEED] [--workload NAME ...] [--claim WORKLOAD:METRIC ...]
               [--note TEXT] [--out FILE]

Build each binary from its own checkout, for example
``cargo build --release --offline --manifest-path e2ebench/Cargo.toml``
with a separate ``CARGO_TARGET_DIR`` per checkout. For every workload
in BENCHMARK.json (or each ``--workload``), pair ``i`` runs both
binaries with ``--seed SEED+i --seconds S --trace 0``, the parent first
in even pairs and the change first in odd ones. Every run's five
end-to-end metrics, correctness flag, attempted and failed counts are
recorded, with per-metric summaries and verdicts from
check_bench_json.py's ``summarize``; ``--claim`` names a metric whose
gain the change claims. ``check_bench_json.py e2e`` re-derives the
summaries from the runs and fails on an incorrect run, a regression
past a bound or a claim that does not hold.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench_json import summarize  # noqa: E402


def run(binary: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced e2ebench run: its last stdout line is a JSON object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} printed nothing (exit {proc.returncode}):\n{proc.stderr}")
    out = json.loads(lines[-1])
    return {
        "exit": proc.returncode,
        "correct": bool(out["correct"]) and proc.returncode == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--claim", action="append", default=[])
    ap.add_argument("--note", default="")
    ap.add_argument("--out", default="BENCH_e2e.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    claims = []
    for claim in args.claim:
        workload, metric = claim.split(":")
        claims.append({"workload": workload, "metric": metric})

    report = {
        "bench": "e2ebench",
        "note": args.note,
        "seconds": seconds,
        "cpus": os.cpu_count(),
        "claims": claims,
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(getattr(args, side), workload, seed, seconds)
            pairs.append(pair)
            brief = {s: pair[s]["metrics"] for s in ("parent", "change")}
            print(f"{workload} pair {i} seed {seed} ({order[0]} first): {json.dumps(brief)}", flush=True)
        report["workloads"][workload] = {
            "pairs": pairs,
            "summary": {m["name"]: summarize(pairs, m) for m in benchmark["end_to_end"]},
        }
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
