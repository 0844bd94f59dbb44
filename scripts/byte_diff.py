"""Run one fixed command corpus on a parent revision and on this checkout,
and compare every command's exit code, stdout, stderr and written files,
once through `dispatch` and once through `latgad batch`.

    python3 scripts/byte_diff.py --parent HEAD

The parent revision is extracted with `git archive REV | tar -x` into a
temporary directory, as `scripts/bench_pairs.py` does.  Each tree runs the
whole corpus in one Python process through `latgad.cli.dispatch`, importing
latgad from its own `src/`, in a fresh directory, with one BLAS thread.  The
corpus is
  * the command lines of `BENCH_write.json` (`outputs_sha256.lines`), run in
    order in one directory, on the CNF and parity files below;
  * seed 4242 of each workload's 20 s job plan, read from
    `latbench/workloads.py`: its fixture steps, then each job's steps in a
    directory of its own, on the job's input files.
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
count per group and command and the first differing records; it exits 1
when any record differs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import extract

ROOT = Path(__file__).resolve().parents[1]
SEED, SECONDS = 4242, 20.0

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
    return units


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
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
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
    records differ, a count per group and command and the first SHOW
    differing records."""
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
    for p, c in differ[:SHOW]:
        lines.append(f"- {' '.join(p['argv'])}")
        for f in FIELDS:
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
    for a directory.  The summary line, then the first SHOW differing
    commands and directories with the value of each run."""
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
    for argv, views in odd_commands[:SHOW]:
        lines.append(f"- {' '.join(argv)}")
        for f in BATCH_FIELDS:
            if any(v[f] != views[0][f] for v in views):
                shown = excerpts([v[f] for v in views])
                lines.append(f"    {f}: " + ", ".join(f"{run} {text!r}" for run, text in zip(RUNS, shown)))
    for where, views in odd_dirs[:SHOW]:
        names = sorted({name for v in views for name in v if any(w.get(name) != v[name] for w in views)})
        lines.append(f"- directory {where}: " + ", ".join(names))
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
