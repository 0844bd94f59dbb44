"""Run one fixed command corpus on a parent revision and on this checkout,
and compare every command's exit code, stdout, stderr and written files.

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
file (null when none was written).  The script prints one summary line,
then, when records differ, a count per group and command and the first
differing records; it exits 1 when any record differs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
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


def run_corpus(units: list[dict]) -> list[dict]:
    """Every command of the corpus through latgad.cli.dispatch, in this
    process and directory; a unit's files are written into its directory
    first."""
    from latgad.cli import dispatch

    records = []
    for unit in units:
        where = Path(unit["dir"])
        where.mkdir(parents=True, exist_ok=True)
        for name, text in unit["files"].items():
            (where / name).write_text(text)
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
        if unit.get("drop"):
            shutil.rmtree(where)
    return records


def run_tree(tree: Path, units: list[dict], work: Path) -> list[dict]:
    """The records of the corpus `units` in a fresh process that imports
    latgad from tree/src, run in a fresh directory under work."""
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
SHOW = 3


def compare(parent: list[dict], change: list[dict]) -> tuple[bool, str]:
    """(identical, report): the summary line, and when records differ, a
    count per group and command and the first SHOW differing records."""
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
