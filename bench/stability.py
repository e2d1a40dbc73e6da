"""Run every workload several times, each with another seed, and summarise.

    python3 bench/stability.py --runs 10 --out bench/baseline.json
    python3 bench/stability.py --runs 5 --workloads battery-gldim

Each workload gets `--runs` timed runs of BENCHMARK.json's run_seconds,
seeds 0 onwards, and one traced run with seed 0, whose per-layer metrics
are recorded alongside.  For each end-to-end metric it reports the median
of the per-run values, the first and third quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, and flags a spread above
a third of the metric's bound in BENCHMARK.json.  The exit code is 1 when
any metric is flagged; a run with a failed query stops it with an error.
Runs are sequential, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    steady = True
    for w in args.workloads:
        per_metric: dict[str, list[float]] = {}
        for seed in range(args.runs):
            env, res = one_run(w, seed, seconds, 0)
            for k, m in res["metrics"].items():
                per_metric.setdefault(k, []).append(m["value"])
        report["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed")}
        summary = {k: summarise(v) for k, v in per_metric.items()}
        report["workloads"][w] = {"metrics": summary}
        for k, s in summary.items():
            flag = ""
            if s["spread"] > bounds[k] / 3:
                flag = f"  SPREAD ABOVE {bounds[k] / 3:.3f}"
                steady = False
            print(f"{w:14s} {k:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                  f"spread {s['spread']:.3f}{flag}", flush=True)
        _, res = one_run(w, 0, seconds, 1)
        report["workloads"][w]["per_layer"] = {k: m["value"] for k, m in res["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
