"""Alternating parent/change pairs of the benchmark, and their summary.

    python3 scripts/bench_pairs.py --parent HEAD --workload cvpp-serve --pairs 10 \
        --seed-base 7101 --claim jobs_per_s --out runs.json

The parent revision is extracted with `git archive REV | tar -x` into a
temporary directory, so no worktree metadata is written.  Pair i runs

    python3 latbench/run.py --workload W --seed S+i --seconds X --trace 0

in that copy and in this checkout, the parent first when i is even and the
change first when i is odd.  A run that exits nonzero or does not read
`correct: true` stops the script.  For every end-to-end metric of
BENCHMARK.json it prints the median and quartiles of each side, the change
of the medians in %, the pairs the change won, and the no-regression
verdict against the metric's bound: "within" when the change's median is
worse than the parent's by at most the bound (a fraction of the parent's
median), "worse" when by more, and "unresolved" when the parent's
interquartile range is wider than the bound, unless every run of the change
is better than every run of the parent.  With --claim it also
prints whether the gain rule holds for that metric: the change better in at
least 9 of 10 pairs, and the medians apart by more than the parent's
interquartile range, in the better direction.  --out gets every run as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def extract(rev: str, dest: Path) -> None:
    """The files of rev, from git archive, unpacked into dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in the checkout root."""
    argv = [sys.executable, "latbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {root} exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {root} is not correct: {lines[-1]}")
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "min": min(values), "max": max(values)}


def summarize(records: list[dict], metrics: list[dict]) -> dict:
    """Per metric ({"name", "better"} and, from BENCHMARK.json, "bound"):
    each side's quartiles over the records ({"pair", "side", "metrics"},
    with the metrics as run.py prints them: {name: {"value", "unit"}}), the
    change of the medians in %, and how many of the complete pairs the
    change won and tied."""
    pairs: dict[int, dict] = {}
    for rec in records:
        pairs.setdefault(rec["pair"], {})[rec["side"]] = rec["metrics"]
    complete = [sides for _, sides in sorted(pairs.items()) if set(sides) == set(SIDES)]
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [sides[side][name]["value"] for sides in complete] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        base = stats["parent"]["median"]
        gaps = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        out[name] = {
            **stats,
            "better": metric["better"],
            "bound": metric.get("bound"),
            "change_pct": 100 * (stats["change"]["median"] - base) / base if base else math.nan,
            "wins": sum(gap > 0 for gap in gaps),
            "ties": sum(gap == 0 for gap in gaps),
            "pairs": len(complete),
        }
    return out


def gain_holds(entry: dict) -> bool:
    """The gain rule on one summarize() entry: the change better in at least
    9 of every 10 pairs, and its median better than the parent's by more
    than the parent's interquartile range."""
    sign = 1 if entry["better"] == "higher" else -1
    lead = sign * (entry["change"]["median"] - entry["parent"]["median"])
    return entry["wins"] >= math.ceil(0.9 * entry["pairs"]) and lead > entry["parent"]["iqr"]


def regression_verdict(entry: dict) -> str:
    """The no-regression rule on one summarize() entry with a bound:
    "unresolved" when the parent's interquartile range is wider than the
    bound times the parent's median, unless every change run is better than
    every parent run; else "worse" when the change's median is worse than
    the parent's by more than that, and "within" when it is not."""
    sign = 1 if entry["better"] == "higher" else -1
    parent, change = entry["parent"], entry["change"]
    allowed = entry["bound"] * abs(parent["median"])
    all_better = change["min"] > parent["max"] if sign > 0 else change["max"] < parent["min"]
    if parent["iqr"] > allowed and not all_better:
        return "unresolved"
    return "worse" if sign * (parent["median"] - change["median"]) > allowed else "within"


def report(summary: dict, claim: str | None) -> str:
    lines = [f"{'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'change':>8} won verdict"]
    for name, e in summary.items():
        sides = [f"{e[s]['median']:.4g} [{e[s]['q1']:.4g}, {e[s]['q3']:.4g}]" for s in SIDES]
        verdict = regression_verdict(e) if e["bound"] is not None else "-"
        lines.append(
            f"{name:<18} {sides[0]:>34} {sides[1]:>34} {e['change_pct']:>+7.1f}% {e['wins']}/{e['pairs']} {verdict}"
        )
    if claim is not None:
        verdict = "holds" if gain_holds(summary[claim]) else "does not hold"
        lines.append(f"gain rule on {claim}: {verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", help="end-to-end metric whose gain rule to check")
    parser.add_argument("--out", help="JSON file for every run")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"--claim must name an end-to-end metric, got {args.claim!r}")
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        extract(args.parent, roots["parent"])
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(roots[side], args.workload, seed, args.seconds)
                records.append({"workload": args.workload, "seed": seed, "pair": pair, "side": side,
                                "first": SIDES[pair % 2], **result})
                print(f"pair {pair} seed {seed} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
                if args.out:
                    Path(args.out).write_text(json.dumps({"parent": args.parent, "runs": records}, indent=1) + "\n")
    summary = summarize(records, metrics)
    if args.out:
        Path(args.out).write_text(json.dumps({"parent": args.parent, "runs": records, "summary": summary}, indent=1) + "\n")
    print(report(summary, args.claim))
    return 0


if __name__ == "__main__":
    sys.exit(main())
