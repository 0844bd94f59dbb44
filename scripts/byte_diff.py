"""Run one fixed command corpus on a parent revision and on this checkout,
and compare every command's exit code, stdout, stderr and written files,
once through `dispatch` and once through `latgad batch`.

    python3 scripts/byte_diff.py --parent HEAD

The parent revision is extracted with `git archive REV | tar -x` into a
temporary directory, as `scripts/bench_pairs.py` does.  Each tree runs the
whole corpus in one Python process through `latgad.cli.dispatch`, importing
latgad from its own `src/`, in a fresh directory, with one BLAS thread and
COLUMNS=80.  That width matters only for a parent tree from before the CLI's
command table, whose argparse parser wraps its help to the terminal; the
table's help does not depend on it.  The corpus is
  * the command lines of `BENCH_write.json` (`outputs_sha256.lines`), run in
    order in one directory, on the CNF and parity files below;
  * seed 4242 of each workload's 20 s job plan, read from
    `latbench/workloads.py`: its fixture steps, then each job's steps in a
    directory of its own, on the job's input files;
  * the gadget writers (`writer_commands`): at k = 2..12, for odd integer
    and non-integer p, `gadget find`, `verify` and `onoff`, and for
    3 <= k and p < k `gadget parity` of both bits, `lattice` and, where the
    box fits, `verify`, run in one directory, each to a file of its own;
  * cold reads (`cold_commands`): at k = 3, 4 and 10, two gadgets A and B
    built in turn and then read alternately (`verify` A, `onoff` B,
    `verify` B, `onoff` A), so each read misses the CLI's one-gadget cache
    and goes through the reader, then `cvpp prep` from A;
  * the CLI surface (`usage_commands`): help at the top level, at every
    command and at every action, and malformed command lines (`MALFORMED`);
  * `gadget find --out` at every arity k = 1..12 (`SHIFT_K`), for p on the
    0.25 grid of [1, 12], which holds every odd integer p < k, and the
    large p of `SHIFT_P`, run in one directory, each to a file of its own;
  * the paper's other commands (`paper_commands`): `cubes find` on the
    14-point set of `CUBE_14` and on seeded point sets at n = 6..12 for
    d = 2 and 3, `clauses isolate` and `separate` on the point files of
    `CLAUSE_FILES`, and `identities skp`, `integral`, `bounds` and
    `ramanujan` on a small grid, refused inputs included.
A unit that names one --out path twice is refused: the batch pass could not
remove the first file before the second command, as the dispatch pass does.
Every command's --out file is removed before the command runs.  A record
holds the argv, the exit code, stdout, stderr and the SHA-256 of the --out
file (null when none was written).

The same process then runs the corpus a second time, in a fresh directory,
as one `dispatch(["batch", "--in", F])` per unit, F holding the unit's
command lines.  Its records hold each command's exit code and stdout, read
from batch's JSON lines (without `seconds`).  Both passes also record the
SHA-256 of every file in each unit's directory after its commands.  A
batch record or directory is identical when it is equal in both passes of
both trees.

The script prints one summary line per pass, then, when records differ, a
count per group and command, the values of the first SHOW differing records
and the argv of every other differing command and the name of every other
differing directory; it exits 1 when any record differs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import extract

ROOT = Path(__file__).resolve().parents[1]
SEED, SECONDS = 4242, 20.0
SHIFT_K = range(1, 13)
SHIFT_P = [1.0 + 0.25 * i for i in range(45)] + [233.5, 300.0, 448.0]
# the gadget writers: odd integer and non-integer p, and the arities whose
# lattice fits gadget verify's default box [-3, 4]^k within oracle.BOX_CAP
WRITER_K = range(2, 13)
WRITER_P = [1.0, 1.5, 2.5, 3.0, 4.75, 5.0, 7.9, 11.0]
LATTICE_BOX_K = 7
# cold reads: two gadgets per arity, each read after the other was written
COLD_K = (3, 4, 10)
COLD_P = (3.0, 4.75)
# the CLI's commands and their actions, each given -h; `batch -h` is left
# out, since a batch refuses a line that runs batch
ACTIONS = {
    "gadget": ["find", "parity", "lattice", "onoff", "verify"],
    "reduce": ["sat", "parity"],
    "params": ["gap"],
    "cvpp": ["prep", "inf-prep", "query"],
    "oracle": ["solve", "validate"],
    "identities": ["skp", "integral", "bounds", "ramanujan", "cp-svp"],
    "cubes": ["find"],
    "clauses": ["isolate", "separate"],
}
# command lines the parser refuses, one per kind of usage error, and a
# `clauses separate` line whose --t prefixes both global options but, after
# the command, reads as --t-in
MALFORMED = [
    ["--tol-rel", "1e-9"],
    ["gadgets"],
    ["gadget"],
    ["gadget", "build"],
    ["gadget", "find", "--k", "3"],
    ["params", "gap", "--p", "3"],
    ["gadget", "find", "--k", "x", "--p", "3"],
    ["gadget", "find", "--k", "3", "--p", "y"],
    ["gadget", "find", "--k", "x", "-h"],
    ["gadget", "find", "--k", "3", "--p", "3", "--nope"],
    ["gadget", "find", "--k", "3", "--p", "3", "--tol-rel", "1e-6"],
    ["--tol", "1e-6", "gadget", "find", "--k", "3", "--p", "3"],
    ["--tol-rel", "-1e-9", "gadget", "find", "--k", "3", "--p", "3"],
    ["clauses", "separate", "--s", "s.txt", "--t", "t.txt"],
    ["reduce", "sat", "--cnf", "f.cnf", "--gadget", "g.json", "--mode", "fast"],
    ["oracle", "solve", "--box", "-1..2", "inst.json"],
    ["oracle", "solve", "--out", "o.json"],
    ["oracle", "solve", "a.json", "b.json"],
    ["identities", "cp-svp", "--find-p0=1"],
    ["gadget", "find", "-hx"],
]

# the paper's other commands: a set holding the affine 3-cube with base 02
# and directions 12, 0b, 07, which the largest pair-sum classes miss; the
# seeded sets' arities, dimensions and seeds; and the clause point files
CUBE_14 = "02\n04\n05\n06\n07\n09\n0a\n0d\n0e\n10\n14\n17\n1b\n1c\n"
CUBE_N, CUBE_D, CUBE_SEEDS = range(6, 13), (2, 3), range(6)
CLAUSE_FILES = {
    "corners.txt": "0\n1\n2\n3\n4\n5\n6\n7\n",
    "square.txt": "0\n1\n2\n3\n",
    "single.txt": "5\n",
    "eight.txt": "03\n1c\n25\n4a\n5f\n66\n91\nb8\n",
    "twelve.txt": "00\n11\n2e\n37\n48\n5d\n6a\n7f\n83\n9c\nc5\nf0\n",
    "face.txt": "0\n1\n2\n3\n",
    "opposite.txt": "4\n5\n",
    "spread.txt": "1\n2\n4\n7\n",
    "origin.txt": "0\n8\n",
    "close8.txt": "0f\n33\n55\nf1\n",
    "away8.txt": "00\n80\nc3\n3c\na5\n5a\n",
    "three.txt": "1\n2\n3\n",
}

# the inputs of BENCH_write.json's lines: a 10-variable 12-clause 3-CNF and
# 8 parity constraints of arity 3 over 10 variables
CNF = (
    "p cnf 10 12\n1 -2 3 0\n-1 4 5 0\n2 -6 7 0\n-3 -4 8 0\n5 9 -10 0\n-5 6 -9 0\n"
    "7 -8 10 0\n-7 2 -10 0\n3 6 -9 0\n-1 -6 8 0\n4 -5 -7 0\n9 10 -2 0\n"
)
XOR = (
    "p xor 10 8\n3 1 2 3 1\n3 4 5 6 0\n3 7 8 9 1\n3 1 4 10 0\n3 2 5 8 1\n3 3 6 9 0\n"
    "3 2 7 10 1\n3 1 5 9 0\n"
)


def build_corpus(root: Path) -> list[dict]:
    """The corpus as units {"group", "dir", "files": {name: text},
    "commands": [argv]}, run in order (`run_corpus`); "chdir" runs a unit's
    commands inside its directory, and "drop" removes the directory after
    them."""
    lines = json.loads((root / "BENCH_write.json").read_text())["outputs_sha256"]["lines"]
    units = [{"group": "BENCH_write", "dir": "lines", "chdir": True, "files": {"f.cnf": CNF, "f.xor": XOR},
              "commands": [line.split() for line in lines]}]
    sys.path.insert(0, str(root / "latbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name, workload in workloads.WORKLOADS.items():
        fix = Path(f"fix-{name}")
        units.append({"group": name, "dir": str(fix), "files": {},
                      "commands": [[str(a) for a in argv] for argv in workload.fixtures(fix)]})
        for job in workload.plan(SEED, workloads.plan_size(workload, SECONDS)):
            jobdir = Path(name) / f"job{job.index}"
            units.append({
                "group": name,
                "dir": str(jobdir),
                "drop": True,
                "files": {f: data.decode() for f, data in job.files.items()},
                "commands": [[str(a) for a in argv] for argv in workload.steps(job, jobdir, fix)],
            })
    units.append({"group": "gadget-writers", "dir": "gadget-writers", "chdir": True, "drop": True, "files": {},
                  "commands": writer_commands()})
    units.append({"group": "gadget-cold", "dir": "gadget-cold", "chdir": True, "drop": True, "files": {},
                  "commands": cold_commands()})
    units.append({"group": "cli-usage", "dir": "cli-usage", "chdir": True, "drop": True, "files": {},
                  "commands": usage_commands()})
    files, commands = paper_commands()
    units.append({"group": "paper", "dir": "paper", "chdir": True, "drop": True, "files": files,
                  "commands": commands})
    units.append({"group": "shift-search", "dir": "shift-search", "chdir": True, "drop": True, "files": {},
                  "commands": [["gadget", "find", "--k", str(k), "--p", repr(p), "--out", f"k{k}-p{p!r}.json"]
                               for k in SHIFT_K for p in SHIFT_P]})
    for unit in units:
        outs = collections.Counter(os.path.normpath(out) for out in map(out_path, unit["commands"]) if out)
        twice = [out for out, count in outs.items() if count > 1]
        if twice:
            raise SystemExit(f"byte_diff: unit {unit['dir']} ({unit['group']}) writes --out {twice[0]} twice")
    return units


def writer_commands() -> list[list[str]]:
    """For each k in WRITER_K and p in WRITER_P: gadget find, verify and
    onoff, and for 3 <= k and p < k, gadget parity of both bits, its
    lattice, and gadget verify on the lattice up to LATTICE_BOX_K; each
    command writes a file of its own."""
    commands = []
    for k in WRITER_K:
        for p in WRITER_P:
            g = f"g{k}-p{p!r}.json"
            commands += [["gadget", "find", "--k", str(k), "--p", repr(p), "--out", g],
                         ["gadget", "verify", "--in", g],
                         ["gadget", "onoff", "--in", g, "--out", f"o{k}-p{p!r}.json"]]
            for bit in ("0", "1") if 3 <= k and p < k else ():
                par, lat = f"par{k}-p{p!r}-b{bit}.json", f"lat{k}-p{p!r}-b{bit}.json"
                commands += [["gadget", "parity", "--k", str(k), "--p", repr(p), "--bit", bit, "--out", par],
                             ["gadget", "lattice", "--in", par, "--out", lat]]
                commands += [["gadget", "verify", "--in", lat]] if k <= LATTICE_BOX_K else []
    return commands


def cold_commands() -> list[list[str]]:
    """For each k in COLD_K, with A and B the gadgets of the two p of
    COLD_P: gadget find A, find B, verify A, onoff B, verify B, onoff A,
    and cvpp prep of arity k - 1 on k - 1 variables from A; each command
    writes a file of its own."""
    commands = []
    for k in COLD_K:
        a, b = (f"g{k}-p{p!r}.json" for p in COLD_P)
        commands += [["gadget", "find", "--k", str(k), "--p", repr(p), "--out", g] for p, g in zip(COLD_P, (a, b))]
        commands += [["gadget", "verify", "--in", a], ["gadget", "onoff", "--in", b, "--out", f"o-{b}"],
                     ["gadget", "verify", "--in", b], ["gadget", "onoff", "--in", a, "--out", f"o-{a}"],
                     ["cvpp", "prep", "--n", str(k - 1), "--k", str(k - 1), "--gadget", a, "--out", f"prep-{a}"]]
    return commands


def usage_commands() -> list[list[str]]:
    """-h at the top level, at every command and at every action of ACTIONS
    (--help there), then the MALFORMED lines; none of them writes a file."""
    helps = [["-h"]] + [[command, "-h"] for command in ACTIONS]
    helps += [[command, action, "--help"] for command, actions in ACTIONS.items() for action in actions]
    return helps + MALFORMED


def paper_commands() -> tuple[dict[str, str], list[list[str]]]:
    """The point files and command lines of the paper's other commands:
    cubes find at --dim 1..4 on CUBE_14, and at each d of CUBE_D on
    CUBE_SEEDS seeded sets for each n in CUBE_N, of 2^floor(n/2) (d = 2) or
    2^(floor(3n/4) - 1) (d = 3) points up to a factor of two either way,
    written in hex; clauses on CLAUSE_FILES; and the identities.  A few
    lines write --out files."""
    files = {"cube14.txt": CUBE_14, **CLAUSE_FILES}
    commands = [["cubes", "find", "--in", "cube14.txt", "--dim", str(d)] for d in (1, 2, 3, 4)]
    commands += [["cubes", "find", "--in", "cube14.txt", "--dim", d, "--out", f"cube14-d{d}.json"] for d in "34"]
    for n in CUBE_N:
        for d in CUBE_D:
            for seed in CUBE_SEEDS:
                rng = random.Random(f"cubes-{n}-{d}-{seed}")
                size = 2 ** (n // 2) if d == 2 else 2 ** (3 * n // 4 - 1)
                points = rng.sample(range(2**n), rng.randint(size // 2, 2 * size))
                name = f"cubes-n{n}-d{d}-s{seed}.txt"
                files[name] = "".join(f"{x:0{(n + 3) // 4}x}\n" for x in points)
                commands.append(["cubes", "find", "--in", name, "--dim", str(d)])
    for name, k in [("corners", 3), ("square", 2), ("single", 3), ("eight", 3), ("twelve", 4), ("corners", 2)]:
        commands.append(["clauses", "isolate", "--in", f"{name}.txt", "--k", str(k)])
    commands.append(["clauses", "isolate", "--in", "twelve.txt", "--k", "4", "--out", "isolate.json"])
    for close, away in [("face", "opposite"), ("spread", "origin"), ("close8", "away8"), ("three", "opposite"),
                        ("face", "square")]:
        commands.append(["clauses", "separate", "--s-in", f"{close}.txt", "--t-in", f"{away}.txt"])
    commands.append(["clauses", "separate", "--s-in", "close8.txt", "--t-in", "away8.txt", "--out", "separate.json"])
    commands += [["identities", "skp", "--k", str(k), "--p", p] for k in (2, 3, 5, 8) for p in ("1", "1.5", "3", "4")]
    commands += [["identities", "integral", "--n", str(n), "--m", str(m), "--p", p]
                 for n, m in ((2, 1), (3, 1), (4, 2), (6, 3)) for p in ("0.5", "1", "2.5")]
    commands += [["identities", "bounds", "--k", str(k), "--p", p, "--c", c]
                 for k in (3, 4, 6) for p in ("1", "2.5", "3") for c in "01"]
    commands += [["identities", "ramanujan", "--k", str(k), "--x", x] for k in (2, 3, 5) for x in ("0.5", "2", "7.25")]
    commands += [["identities", action, *args, "--out", f"{action}.json"] for action, args in [
        ("skp", ["--k", "5", "--p", "3"]), ("integral", ["--n", "4", "--m", "2", "--p", "2.5"]),
        ("bounds", ["--k", "4", "--p", "3", "--c", "1"]), ("ramanujan", ["--k", "3", "--x", "2"])]]
    return files, commands


def out_path(argv: list[str]) -> str | None:
    """The --out file of argv, if it names one."""
    for i, arg in enumerate(argv):
        if arg == "--out" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--out="):
            return arg[len("--out="):]
    return None


def unit_dir(unit: dict) -> Path:
    """The unit's directory under the current one, with its files written."""
    where = Path(unit["dir"])
    where.mkdir(parents=True, exist_ok=True)
    for name, text in unit["files"].items():
        (where / name).write_text(text)
    return where


def dir_hashes(where: Path) -> dict[str, str]:
    """The SHA-256 of every file under where, by its path relative to where."""
    return {str(f.relative_to(where)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(where.rglob("*")) if f.is_file()}


def run_corpus(units: list[dict]) -> dict:
    """Every command of the corpus through latgad.cli.dispatch, in this
    process and directory; a unit's files are written into its directory
    first.  Then the batch pass (`run_batches`)."""
    from latgad.cli import dispatch

    records, dirs = [], {}
    for unit in units:
        where = unit_dir(unit)
        base = where if unit.get("chdir") else Path(".")
        for argv in unit["commands"]:
            out = out_path(argv)
            if out is not None:
                (base / out).unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            back = os.getcwd()
            os.chdir(base)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = dispatch(argv)
            finally:
                os.chdir(back)
            written = base / out if out is not None else None
            records.append({
                "group": unit["group"],
                "argv": argv,
                "exit_code": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "file": hashlib.sha256(written.read_bytes()).hexdigest() if written and written.exists() else None,
            })
        dirs[unit["dir"]] = dir_hashes(where)
        if unit.get("drop"):
            shutil.rmtree(where)
    batch, batch_dirs = run_batches(units, dispatch, Path("..", "batch").resolve())
    return {"dispatch": records, "dirs": dirs, "batch": batch, "batch_dirs": batch_dirs}


def run_batches(units: list[dict], dispatch, root: Path) -> tuple[list[dict], dict]:
    """The corpus again under the fresh directory root, each unit as one
    `batch --in` call on a file of its command lines (kept outside root):
    each command's exit code and stdout, and each unit directory's file
    hashes after its batch."""
    root.mkdir()
    back = os.getcwd()
    records, dirs = [], {}
    try:
        for i, unit in enumerate(units):
            os.chdir(root)
            where = unit_dir(unit)
            lines = root.parent / f"batch-{i}.txt"
            lines.write_text("".join(shlex.join(argv) + "\n" for argv in unit["commands"]))
            stdout = io.StringIO()
            os.chdir(where if unit.get("chdir") else root)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                dispatch(["batch", "--in", str(lines)])
            os.chdir(root)
            for line in stdout.getvalue().splitlines():
                r = json.loads(line)
                records.append({f: r[f] for f in ("argv", *BATCH_FIELDS)})
            dirs[unit["dir"]] = dir_hashes(where)
            if unit.get("drop"):
                shutil.rmtree(where)
    finally:
        os.chdir(back)
    return records, dirs


def run_tree(tree: Path, units: list[dict], work: Path) -> dict:
    """The records of both passes over the corpus `units` in a fresh process
    that imports latgad from tree/src, run in a fresh directory under work."""
    where = Path(tempfile.mkdtemp(dir=work))
    corpus, records = where / "corpus.json", where / "records.json"
    corpus.write_text(json.dumps(units))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0", COLUMNS="80",
               **{v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    run_dir = where / "run"
    run_dir.mkdir()
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(corpus), str(records)]
    done = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"byte_diff: the corpus failed in {tree} (exit {done.returncode})\n{done.stderr}")
    return json.loads(records.read_text())


FIELDS = ("exit_code", "stdout", "stderr", "file")
BATCH_FIELDS = ("exit_code", "stdout")
SHOW = 3


def compare(parent: dict, change: dict) -> tuple[bool, str]:
    """(identical, report) over both passes: one summary line per pass, each
    followed by its differences when records differ."""
    same, report = compare_dispatch(parent["dispatch"], change["dispatch"])
    same_batch, batch_report = compare_batch(parent, change)
    return same and same_batch, report + "\n" + batch_report


def compare_dispatch(parent: list[dict], change: list[dict]) -> tuple[bool, str]:
    """(identical, report) of the dispatch pass: the summary line, and when
    records differ, a count per group and command, the first SHOW differing
    records with their values, and the argv of every other one."""
    if [r["argv"] for r in parent] != [r["argv"] for r in change]:
        return False, "byte_diff: the two trees ran different command lists"
    differ = [(p, c) for p, c in zip(parent, change) if any(p[f] != c[f] for f in FIELDS)]
    files = sum(p["file"] is not None or c["file"] is not None for p, c in zip(parent, change))
    by_field = collections.Counter(f for p, c in differ for f in FIELDS if p[f] != c[f])
    if not differ:
        return True, f"byte_diff: {len(parent)} commands, {files} files: all identical"
    fields = ", ".join(f"{f} {by_field[f]}" for f in FIELDS if by_field[f])
    lines = [f"byte_diff: {len(parent)} commands, {files} files: {len(differ)} commands differ ({fields})"]
    totals = collections.Counter((r["group"], " ".join(r["argv"][:2])) for r in parent)
    groups = collections.defaultdict(collections.Counter)
    for p, c in differ:
        groups[p["group"], " ".join(p["argv"][:2])].update(["all", *(f for f in FIELDS if p[f] != c[f])])
    for key, counts in sorted(groups.items()):
        fields = ", ".join(f"{f} {counts[f]}" for f in FIELDS if counts[f])
        lines.append(f"  {key[0]:<12} {key[1]:<16} {counts['all']} of {totals[key]} differ ({fields})")
    for i, (p, c) in enumerate(differ):
        lines.append(f"- {' '.join(p['argv'])}")
        for f in FIELDS if i < SHOW else ():
            if p[f] != c[f]:
                lines.append(f"    {f}: {str(p[f])[:200]!r} -> {str(c[f])[:200]!r}")
    return False, "\n".join(lines)


def excerpts(values: list) -> list[str]:
    """Up to 80 characters of each of the str(values), all from a little
    before the first position where they differ."""
    values = [str(v) for v in values]
    at = min(len(v) for v in values)
    at = next((i for i, chars in enumerate(zip(*values)) if len(set(chars)) > 1), at)
    start = max(0, at - 20)
    return [("..." if start else "") + v[start : start + 80] for v in values]


RUNS = ("parent dispatch", "parent batch", "change dispatch", "change batch")


def compare_batch(parent: dict, change: dict) -> tuple[bool, str]:
    """(identical, report) of the batch pass: a command or a unit directory
    is identical when its four runs (`RUNS`: each tree's dispatch and batch
    passes) agree, on BATCH_FIELDS for a command and on every file's hash
    for a directory.  The summary line, then every differing command and
    directory, the first SHOW of each with the value of each run."""
    runs = [parent["dispatch"], parent["batch"], change["dispatch"], change["batch"]]
    if any([r["argv"] for r in run] != [r["argv"] for r in runs[0]] for run in runs):
        return False, "byte_diff batch: the passes ran different command lists"
    commands = [(rs[0]["argv"], [{f: r[f] for f in BATCH_FIELDS} for r in rs]) for rs in zip(*runs)]
    passes = [parent["dirs"], parent["batch_dirs"], change["dirs"], change["batch_dirs"]]
    dirs = [(where, [p[where] for p in passes]) for where in passes[0]]
    odd_commands = [(argv, views) for argv, views in commands if any(v != views[0] for v in views)]
    odd_dirs = [(where, views) for where, views in dirs if any(v != views[0] for v in views)]
    head = f"byte_diff batch: {len(commands)} commands, {len(dirs)} directories"
    if not odd_commands and not odd_dirs:
        return True, f"{head}: all identical"
    lines = [f"{head}: {len(odd_commands)} commands differ, {len(odd_dirs)} directories differ"]
    for i, (argv, views) in enumerate(odd_commands):
        lines.append(f"- {' '.join(argv)}")
        for f in BATCH_FIELDS if i < SHOW else ():
            if any(v[f] != views[0][f] for v in views):
                shown = excerpts([v[f] for v in views])
                lines.append(f"    {f}: " + ", ".join(f"{run} {text!r}" for run, text in zip(RUNS, shown)))
    for i, (where, views) in enumerate(odd_dirs):
        names = sorted({name for v in views for name in v if any(w.get(name) != v[name] for w in views)})
        lines.append(f"- directory {where}" + (": " + ", ".join(names) if i < SHOW else ""))
    return False, "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--parent", help="git revision to compare this checkout against")
    which.add_argument("--worker", nargs=2, metavar=("CORPUS", "RECORDS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        corpus, records = args.worker
        Path(records).write_text(json.dumps(run_corpus(json.loads(Path(corpus).read_text()))))
        return 0
    units = build_corpus(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "parent").mkdir()
        extract(args.parent, work / "parent")
        parent, change = (run_tree(tree, units, work) for tree in (work / "parent", ROOT))
    identical, report = compare(parent, change)
    print(report)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
