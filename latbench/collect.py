"""Run the benchmark over several seeds and report, for every metric, the
median and the quartile spread (Q3 - Q1, as a share of the median) against
the bound in BENCHMARK.json.  A spread above a third of its bound is
flagged.

    python3 latbench/collect.py --seeds 1-10 --trace 0 --out latbench/baseline.json
    python3 latbench/collect.py --seeds 1-5 --workloads gadget-build

Runs go one at a time, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    env = next((json.loads(ln[len("# machine "):]) for ln in lines if ln.startswith("# machine ")), None)
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(prog="latbench-collect", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    report = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            report.setdefault("machine", env)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in results]) for name in results[0]["metrics"]
        }
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
        }
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = bound is not None and name != "setup_s" and s["spread"] > bound / 3
            flagged += flag
            print(
                f"{workload:13s} {name:46s} median={s['median']:<12.6g} q1={s['q1']:<12.6g} q3={s['q3']:<12.6g}"
                f" spread={s['spread']:.4f}" + (f" bound={bound}" if bound is not None else "") + (" WIDE" if flag else "")
            )
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
