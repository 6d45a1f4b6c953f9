"""Run several workloads over several seeds and summarize every metric.

    python3 perfbench/suite.py --seeds 1-10 [--workloads report,zeros] [--trace 0]

Each run is a fresh ``run.py`` process.  For every workload and metric the
summary gives the median over seeds and the interquartile spread as a share
of the median, next to the bound in BENCHMARK.json; ``correct`` and the
failure count are shown per run.  Exits non-zero if any run fails or
reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            shown = " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()
                             if n in bounds)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown} "
                  f"(run took {took:.1f} s)", flush=True)
        for name, vals in values.items():
            if args.trace and not any(vals):
                continue
            med = statistics.median(vals)
            rel = spread(vals) if med else 0.0
            bound = bounds.get(name)
            note = f"  bound {bound}  spread/bound {rel / bound:.2f}" if bound else ""
            print(f"  {workload} {name}: median {med:.6g} {units[name]}, "
                  f"IQR/median {rel:.4f} over {len(vals)} runs{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
