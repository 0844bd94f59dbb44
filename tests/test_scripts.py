"""Smoke runs of the experiment scripts at small sizes: each must exit 0 and
print its header line; and the summary of scripts/bench_pairs.py on
synthetic runs."""

import collections
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("gadget_grid.py", ["--kmax", "3"], "p \\ k"),
        ("sum_limits.py", ["--p", "1", "1.5", "--kmax", "6"], "p,k,abs_value,limit,weak_bound"),
        ("exponent_curve.py", ["--count", "3"], "# threshold exponent p0 = "),
    ],
    ids=["gadget_grid", "sum_limits", "exponent_curve"],
)
def test_script_runs(script, args, header):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(header)


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "p,cells",
    [("1.999996", ["no-shift"]), ("2", ["-"] * 8)],
    ids=["no-shift", "even-p"],
)
def test_gadget_grid_prints_refusals(p, cells):
    # at k = 10, p = 1.999996 no candidate shift is nonsingular; even p < k
    # has no gadget
    proc = run_script("gadget_grid.py", ["--kmax", "10", "--p", p])
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[1].split()
    assert row[0] == p and row[-len(cells) :] == cells


def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair_records(parent: list[float], change: list[float], name="jobs_per_s") -> list[dict]:
    return [
        {"pair": i, "side": side, "metrics": {name: {"value": value, "unit": "1/s"}}}
        for i, values in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), values)
    ]


class TestBenchPairsSummary:
    HIGHER = [{"name": "jobs_per_s", "better": "higher"}]

    def test_quartiles_wins_and_change(self):
        parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
        change = [p + 10 for p in parent[:9]] + [100.0]  # one tie
        (entry,) = bench_pairs().summarize(pair_records(parent, change), self.HIGHER).values()
        assert entry["parent"]["median"] == 100.0 and entry["change"]["median"] == 110.0
        assert (entry["parent"]["q1"], entry["parent"]["q3"]) == (99.25, 100.75)
        assert entry["change_pct"] == pytest.approx(10.0)
        assert (entry["wins"], entry["ties"], entry["pairs"]) == (9, 1, 10)
        assert bench_pairs().gain_holds(entry)

    def test_gain_rule_needs_nine_wins_and_a_lead_beyond_the_iqr(self):
        bp = bench_pairs()
        parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
        eight_wins = [p + 10 for p in parent[:8]] + [90.0, 90.0]
        within_iqr = [p + 1 for p in parent]
        for change in (eight_wins, within_iqr):
            (entry,) = bp.summarize(pair_records(parent, change), self.HIGHER).values()
            assert not bp.gain_holds(entry)

    def test_lower_is_better_and_incomplete_pairs_are_left_out(self):
        bp = bench_pairs()
        records = pair_records([1.0, 1.2, 1.1], [0.8, 0.9, 0.85], "job_s_p50")
        records.append({"pair": 3, "side": "parent", "metrics": {"job_s_p50": {"value": 9.0, "unit": "s"}}})
        (entry,) = bp.summarize(records, [{"name": "job_s_p50", "better": "lower"}]).values()
        assert (entry["wins"], entry["pairs"]) == (3, 3)
        assert entry["parent"]["median"] == 1.1 and bp.gain_holds(entry)
        assert "gain rule on job_s_p50: holds" in bp.report({"job_s_p50": entry}, "job_s_p50")


class TestBenchPairsVerdict:
    """The no-regression verdict of every end-to-end metric against its
    BENCHMARK.json bound."""

    PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]  # iqr 1.5

    def verdict(self, parent, change, better="higher", bound=0.15):
        bp = bench_pairs()
        metrics = [{"name": "jobs_per_s", "better": better, "bound": bound}]
        (entry,) = bp.summarize(pair_records(parent, change), metrics).values()
        assert f"/{len(parent)} {bp.regression_verdict(entry)}" in bp.report({"jobs_per_s": entry}, None)
        return bp.regression_verdict(entry)

    def test_within_the_bound(self):
        assert self.verdict(self.PARENT, [p - 14 for p in self.PARENT]) == "within"
        assert self.verdict(self.PARENT, [p + 30 for p in self.PARENT]) == "within"
        assert self.verdict(self.PARENT, [p + 14 for p in self.PARENT], better="lower") == "within"

    def test_worse_than_the_bound(self):
        assert self.verdict(self.PARENT, [p - 16 for p in self.PARENT]) == "worse"
        assert self.verdict(self.PARENT, [p + 16 for p in self.PARENT], better="lower") == "worse"

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        assert self.verdict(self.PARENT, self.PARENT, bound=0.01) == "unresolved"
        assert self.verdict(self.PARENT, [p - 50 for p in self.PARENT], bound=0.01) == "unresolved"
        # unless every change run beats every parent run
        assert self.verdict(self.PARENT, [p + 10 for p in self.PARENT], bound=0.01) == "within"
        assert self.verdict(self.PARENT, [p - 10 for p in self.PARENT], better="lower", bound=0.01) == "within"

    def test_metrics_without_a_bound_print_no_verdict(self):
        bp = bench_pairs()
        (entry,) = bp.summarize(pair_records(self.PARENT, self.PARENT), TestBenchPairsSummary.HIGHER).values()
        assert bp.report({"jobs_per_s": entry}, None).splitlines()[1].endswith(" -")


FAKE_CLI = '''import contextlib
import io
import json
import shlex
import sys


def dispatch(argv):
    """A batch runs its file's lines and writes one JSON line each; any
    other command writes its argv to the --out file, if any, and echoes it."""
    if argv[:2] == ["batch", "--in"]:
        with open(argv[2]) as f:
            lines = f.read().splitlines()
        for line in lines:
            args, out = shlex.split(line), io.StringIO()
            with contextlib.redirect_stdout(out):
                code = dispatch(args)
            record = {"argv": args, "exit_code": code, "seconds": 0.5, "stdout": out.getvalue() + "{batch}"}
            print(json.dumps(record))
        return 0
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "w") as f:
            f.write(" ".join(argv) + "{mark}")
    print("ran", *argv)
    print("note", file=sys.stderr)
    return len(argv) % 3
'''


def fake_tree(root: Path, mark: str, batch: str = "") -> Path:
    """A tree whose src/latgad/cli.py has a dispatch that writes `mark`,
    and whose batch adds `batch` to every command's stdout."""
    pkg = root / "src" / "latgad"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(FAKE_CLI.replace("{mark}", mark).replace("{batch}", batch))
    return root


def byte_diff():
    # byte_diff.py imports bench_pairs from its own directory
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        spec = importlib.util.spec_from_file_location("byte_diff", ROOT / "scripts" / "byte_diff.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return module


CORPUS = [
    {"group": "lines", "dir": "lines", "chdir": True, "files": {"f.cnf": "p cnf 1 1\n1 0\n"},
     "commands": [["gadget", "find", "--out", "g.json"], ["gadget", "verify", "--in", "g.json"]]},
    {"group": "jobs", "dir": "jobs/job0", "drop": True, "files": {},
     "commands": [["cvpp", "query", "--out", "jobs/job0/q.json"]]},
]


def diff_trees(tmp_path, marks, batches=("", "")):
    """compare() of the records of CORPUS on two fake trees."""
    bd = byte_diff()
    trees = [fake_tree(tmp_path / name, *args) for name, args in zip(("a", "b"), zip(marks, batches))]
    return bd.compare(*(bd.run_tree(tree, CORPUS, tmp_path) for tree in trees))


class TestByteDiff:
    def test_identical_trees(self, tmp_path):
        identical, report = diff_trees(tmp_path, ["x", "x"])
        assert identical
        assert report.splitlines() == [
            "byte_diff: 3 commands, 2 files: all identical",
            "byte_diff batch: 3 commands, 2 directories: all identical",
        ]

    def test_one_changed_byte(self, tmp_path):
        identical, report = diff_trees(tmp_path, ["x", "y"])
        assert not identical
        lines = report.splitlines()
        assert lines[0] == "byte_diff: 3 commands, 2 files: 2 commands differ (file 2)"
        assert lines[1].split() == ["jobs", "cvpp", "query", "1", "of", "1", "differ", "(file", "1)"]
        assert "- gadget find --out g.json" in lines and "- cvpp query --out jobs/job0/q.json" in lines
        # the batch pass's stdout and exit codes agree; the files it leaves do not
        at = lines.index("byte_diff batch: 3 commands, 2 directories: 0 commands differ, 2 directories differ")
        assert lines[at + 1 :] == ["- directory lines: g.json", "- directory jobs/job0: q.json"]

    def test_batch_that_disagrees_with_dispatch(self, tmp_path):
        identical, report = diff_trees(tmp_path, ["x", "x"], ["", "!"])
        assert not identical
        lines = report.splitlines()
        assert lines[:2] == [
            "byte_diff: 3 commands, 2 files: all identical",
            "byte_diff batch: 3 commands, 2 directories: 3 commands differ, 0 directories differ",
        ]
        assert lines[2] == "- gadget find --out g.json"
        # each run's stdout from 20 characters before the first difference
        assert lines[3] == (
            "    stdout: parent dispatch '...t find --out g.json\\n', parent batch '...t find --out g.json\\n', "
            "change dispatch '...t find --out g.json\\n', change batch '...t find --out g.json\\n!'"
        )

    def test_every_differing_record_is_listed(self, tmp_path):
        # past the first SHOW records, each differing command is listed by
        # its argv and each differing directory by its name
        bd = byte_diff()
        corpus = [{"group": "many", "dir": f"u{i}", "chdir": True, "files": {},
                   "commands": [["gadget", "find", "--out", f"g{i}.json"]]} for i in range(bd.SHOW + 2)]
        trees = [fake_tree(tmp_path / "a", "x"), fake_tree(tmp_path / "b", "y", "!")]
        identical, report = bd.compare(*(bd.run_tree(tree, corpus, tmp_path) for tree in trees))
        assert not identical
        lines = report.splitlines()
        at = lines.index("byte_diff batch: 5 commands, 5 directories: 5 commands differ, 5 directories differ")
        argvs = [f"- gadget find --out g{i}.json" for i in range(5)]
        assert [line for line in lines[:at] if line.startswith("- ")] == argvs
        assert [line for line in lines[at:] if line.startswith("- ")] == argvs + [
            "- directory u0: g0.json", "- directory u1: g1.json", "- directory u2: g2.json",
            "- directory u3", "- directory u4",
        ]
        # the values of the first SHOW records only
        assert sum(line.startswith("    file: ") for line in lines[:at]) == bd.SHOW
        assert sum(line.startswith("    stdout: ") for line in lines[at:]) == bd.SHOW

    def test_one_out_path_twice_is_refused(self, tmp_path):
        # the batch pass cannot remove a unit's first file before a second
        # command writes the same path, so such a unit is no corpus
        lines = ["gadget find --k 3 --p 3 --out g.json", "gadget find --k 4 --p 3 --out ./g.json"]
        (tmp_path / "BENCH_write.json").write_text(json.dumps({"outputs_sha256": {"lines": lines}}))
        (tmp_path / "latbench").mkdir()
        shutil.copy(ROOT / "latbench" / "workloads.py", tmp_path / "latbench")
        with pytest.raises(SystemExit, match=r"unit lines \(BENCH_write\) writes --out g\.json twice"):
            byte_diff().build_corpus(tmp_path)

    def test_built_in_corpus(self):
        # BENCH_write.json's 42 lines, then each workload's fixtures and jobs,
        # the gadget writers, the cold reads, the CLI's help and usage errors,
        # the paper's other commands, then gadget find at k = 1..12 over 48 p
        # each
        units = byte_diff().build_corpus(ROOT)
        assert len(units[0]["commands"]) == 42 and units[0]["chdir"]
        assert units[1] == {"group": "gadget-build", "dir": "fix-gadget-build", "files": {}, "commands": []}
        assert {u["group"] for u in units} == {
            "BENCH_write", "gadget-build", "sat-validate", "cvpp-serve", "gadget-writers", "gadget-cold", "cli-usage",
            "paper", "shift-search",
        }
        (writers,) = [u for u in units if u["group"] == "gadget-writers"]
        assert writers["chdir"] and writers["commands"][:3] == [
            ["gadget", "find", "--k", "2", "--p", "1.0", "--out", "g2-p1.0.json"],
            ["gadget", "verify", "--in", "g2-p1.0.json"],
            ["gadget", "onoff", "--in", "g2-p1.0.json", "--out", "o2-p1.0.json"],
        ]
        by_action = collections.Counter(argv[1] for argv in writers["commands"])
        # 11 arities x 8 p; parity of both bits where 3 <= k and p < k, 120
        # gadgets, each with its lattice, verified up to k = 7
        assert by_action == {"find": 88, "onoff": 88, "parity": 120, "lattice": 120, "verify": 88 + 48}
        assert {argv[3] for argv in writers["commands"] if argv[1] == "parity"} == {str(k) for k in range(3, 13)}
        assert {argv[7] for argv in writers["commands"] if argv[1] == "parity"} == {"0", "1"}
        # per arity two gadgets, each read right after the other was written
        (cold,) = [u for u in units if u["group"] == "gadget-cold"]
        assert cold["chdir"] and cold["drop"] and len(cold["commands"]) == 3 * 7
        assert cold["commands"][:7] == [
            ["gadget", "find", "--k", "3", "--p", "3.0", "--out", "g3-p3.0.json"],
            ["gadget", "find", "--k", "3", "--p", "4.75", "--out", "g3-p4.75.json"],
            ["gadget", "verify", "--in", "g3-p3.0.json"],
            ["gadget", "onoff", "--in", "g3-p4.75.json", "--out", "o-g3-p4.75.json"],
            ["gadget", "verify", "--in", "g3-p4.75.json"],
            ["gadget", "onoff", "--in", "g3-p3.0.json", "--out", "o-g3-p3.0.json"],
            ["cvpp", "prep", "--n", "2", "--k", "2", "--gadget", "g3-p3.0.json", "--out", "prep-g3-p3.0.json"],
        ]
        assert [argv[3] for argv in cold["commands"] if argv[1] == "find"] == ["3", "3", "4", "4", "10", "10"]
        (usage,) = [u for u in units if u["group"] == "cli-usage"]
        assert usage["commands"][:2] == [["-h"], ["gadget", "-h"]] and ["batch", "-h"] not in usage["commands"]
        assert ["oracle", "solve", "--help"] in usage["commands"] and ["gadgets"] in usage["commands"]
        (paper,) = [u for u in units if u["group"] == "paper"]
        assert paper["chdir"] and paper["drop"]
        by_action = collections.Counter(tuple(argv[:2]) for argv in paper["commands"])
        # 14-point set at --dim 1..4 and twice with --out, 7 arities x 2
        # dimensions x 6 seeds; the clause lines; the identities grid and one
        # --out line per action
        assert by_action == {("cubes", "find"): 6 + 7 * 2 * 6, ("clauses", "isolate"): 7, ("clauses", "separate"): 6,
                             ("identities", "skp"): 17, ("identities", "integral"): 13, ("identities", "bounds"): 19,
                             ("identities", "ramanujan"): 10}
        assert paper["commands"][2] == ["cubes", "find", "--in", "cube14.txt", "--dim", "3"]
        assert paper["files"]["cube14.txt"].split() == "02 04 05 06 07 09 0a 0d 0e 10 14 17 1b 1c".split()
        seeded = [argv for argv in paper["commands"] if argv[3].startswith("cubes-n")]
        assert {(argv[3].split("-")[1], argv[5]) for argv in seeded} == {(f"n{n}", d) for n in range(6, 13) for d in "23"}
        assert all(argv[3] in paper["files"] for argv in paper["commands"] if argv[2] == "--in")
        shifts = units[-1]
        assert shifts["group"] == "shift-search" and shifts["chdir"] and len(shifts["commands"]) == 12 * 48
        assert shifts["commands"][0] == ["gadget", "find", "--k", "1", "--p", "1.0", "--out", "k1-p1.0.json"]
        assert {argv[3] for argv in shifts["commands"]} == {str(k) for k in range(1, 13)}
        assert {"5.0", "11.0", "233.5", "300.0", "448.0"} <= {argv[5] for argv in shifts["commands"]}
        assert all(u.get("drop") for u in units if u["dir"].count("/") == 1)
