"""latgad benchmark: drives `latgad.cli.dispatch(argv)` in-process, in a
closed loop with one client, on seeded inputs.

    python3 latbench/run.py --workload gadget-build --seed 1 --seconds 20 --trace 0
    python3 latbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see README.md).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Run from anywhere; the program is
imported from the checkout's `src/` and the run's records (result, failed
jobs, spans) go to `.latbench/` at the checkout root.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

STARTED = time.perf_counter()

# one client in one process: a single BLAS thread keeps the figures steady
# on a shared 2-core machine (the limit must be set before numpy loads)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import machine  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, JobSpec, Workload, plan_size  # noqa: E402

SETUP_REPS = 5
INPUT_FLAGS = ("--in", "--cnf", "--gadget", "--prep", "--instance")


class ErrSink(io.StringIO):
    """stderr of one CLI call.  The CLI logs a caught error from inside its
    except block, so the exception being handled when the first line is
    written is the one that ended the call: that is how a failed job's
    exception class is known without wrapping anything."""

    exc: str | None = None

    def write(self, text):
        if self.exc is None:
            handled = sys.exc_info()[0]
            if handled is not None:
                self.exc = handled.__name__
        return super().write(text)


@dataclass
class Attempt:
    job: JobSpec
    seconds: float
    ref: float  # reference-kernel wall time measured just before the job
    exit_code: int | None = 0
    exception: str | None = None
    step: int | None = None
    message: str = ""
    problems: list[str] = field(default_factory=list)
    bytes_in: int = 0
    bytes_out: int = 0

    @property
    def passed(self) -> bool:
        return self.exit_code == 0 and not self.problems

    @property
    def incorrect(self) -> bool:
        """Wrong output, a failed verification report, or an escaped
        exception; a typed refusal (nonzero exit on a LatgadError) is a
        failure but not a wrong answer."""
        if self.problems or self.exit_code is None:
            return True
        return self.exit_code != 0 and self.exception is None

    def failure_record(self) -> dict:
        return {
            "job": self.job.index,
            **self.job.params,
            "step": self.step,
            "exit_code": self.exit_code,
            "exception": self.exception,
            "message": self.message,
            "problems": self.problems,
        }


def _flag_files(argv: list[str], flags) -> list[Path]:
    return [Path(argv[i + 1]) for i, a in enumerate(argv[:-1]) if a in flags]


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path, tracer: Tracer | None):
        from latgad import cli

        self.cli = cli
        self.w = workload
        self.seed = seed
        self.work = work
        self.jobdir = work / "job"
        self.jobdir.mkdir(parents=True)
        self.tracer = tracer
        self.fix: Path | None = None

    def _traced(self, job_id, traced: bool):
        if not traced:
            return nullcontext()
        self.tracer.job = job_id
        return self.tracer.installed()

    def _dispatch(self, argv: list[str]) -> tuple[int | None, str | None, str, str]:
        out, err = io.StringIO(), ErrSink()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.dispatch(argv)
        except Exception as exc:  # an escaped exception fails this job, not the run
            return None, type(exc).__name__, out.getvalue(), str(exc)
        return code, err.exc, out.getvalue(), err.getvalue().strip()

    def attempt(self, job: JobSpec, job_id, traced: bool) -> Attempt:
        """One job: time the reference kernel, write the job's inputs, time
        its CLI steps, then check them."""
        ref = speed.kernel(self.w.kernel, self.work)
        for path in self.w.outputs(self.jobdir):
            path.unlink(missing_ok=True)
        for name, data in job.files.items():
            (self.jobdir / name).write_bytes(data)
        steps = self.w.steps(job, self.jobdir, self.fix)
        stdouts = []
        result = Attempt(job, 0.0, ref)
        with self._traced(job_id, traced):
            t0 = time.perf_counter()
            for i, argv in enumerate(steps):
                code, exc, stdout, message = self._dispatch(argv)
                stdouts.append(stdout)
                if code != 0:
                    result.exit_code, result.exception, result.step, result.message = code, exc, i, message
                    break
            result.seconds = time.perf_counter() - t0
        ran = steps[: len(stdouts)]
        result.bytes_in = sum(_size(p) for argv in ran for p in _flag_files(argv, INPUT_FLAGS))
        result.bytes_out = sum(len(s.encode()) for s in stdouts) + sum(
            _size(p) for argv in ran for p in _flag_files(argv, ("--out",))
        )
        if result.exit_code == 0:
            try:
                result.problems = checks.check_job(self.w.name, job, self.jobdir, stdouts, self.seed)
            except Exception as exc:  # a malformed artifact is a wrong answer
                result.problems = [f"check raised {type(exc).__name__}: {exc}"]
        return result

    def setup(self, rep: int, traced: bool, child_env: dict) -> tuple[float, list[Attempt]]:
        """Import latgad.cli in a fresh interpreter, build the fixtures and
        run the warm-up jobs; returns the wall time and the warm-up attempts.
        Set-up time is not scaled: it is mostly process start and file
        reads, which the reference kernel does not track."""
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import latgad.cli"], env=child_env, cwd=ROOT, check=True, timeout=120
        )
        fix = self.work / f"fix{rep}"
        fix.mkdir()
        with self._traced(f"setup{rep}", traced):
            for argv in self.w.fixtures(fix):
                code, exc, _, message = self._dispatch(argv)
                if code != 0:
                    raise RuntimeError(f"fixture step {argv[:2]} failed: exit {code} {exc} {message}")
        if self.fix is not None:
            shutil.rmtree(self.fix)
        self.fix = fix
        warm = [self.attempt(job, f"setup{rep}", traced) for job in self.w.warmup()]
        return time.perf_counter() - t0, warm


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups: list[float], attempts: list[Attempt], scales: list[float]) -> dict[str, float]:
    """The end-to-end metrics, with each job's wall time multiplied by its
    scale (see speed.py)."""
    seconds = [a.seconds * f for a, f in zip(attempts, scales)]
    passed = np.array([t for a, t in zip(attempts, seconds) if a.passed])
    out = sum(a.bytes_out for a in attempts if a.passed)
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(passed) / sum(seconds),
        "job_s_p50": float(np.percentile(passed, 50)) if len(passed) else 0.0,
        "job_s_p90": float(np.percentile(passed, 90)) if len(passed) else 0.0,
        "pass_ratio": len(passed) / len(attempts),
        "out_bytes_per_job": out / len(passed) if len(passed) else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(tracer: Tracer, traced: list[Attempt], untraced: list[Attempt]) -> dict[str, float]:
    out = layer_metrics(tracer.spans, len(traced), SETUP_REPS)
    out["cli.bytes_read"] = sum(a.bytes_in for a in traced) / len(traced)
    out["cli.bytes_written"] = sum(a.bytes_out for a in traced) / len(traced)
    out["trace.overhead_ratio"] = sum(a.seconds for a in traced) / sum(a.seconds for a in untraced) - 1.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import latgad

    if not Path(latgad.__file__).resolve().is_relative_to(SRC):
        print(f"latbench: imported latgad from {latgad.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    work = ROOT / ".latbench" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True)
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    tracer = Tracer() if trace else None
    runner = Runner(workload, seed, work, tracer)
    try:
        setups, warm = [], []
        for rep in range(SETUP_REPS):
            wall, attempts = runner.setup(rep, trace, child_env)
            setups.append(wall)
            warm += attempts
        ready_s = time.perf_counter() - STARTED

        count = plan_size(workload, seconds)
        untraced, traced = [], []
        if not trace:
            untraced = [runner.attempt(job, job.index, False) for job in workload.plan(seed, count)]
            attempts = untraced
            metrics = end_to_end(setups, untraced, speed.scale_factors([a.ref for a in untraced], workload.kernel))
            wall_metrics = end_to_end(setups, untraced, [1.0] * len(untraced))
        else:
            # each job runs once untraced and once traced, in alternating
            # order, so the difference is the tracing overhead
            for job in workload.plan(seed, math.ceil(count / 2)):
                for on in (False, True) if job.index % 2 == 0 else (True, False):
                    (traced if on else untraced).append(runner.attempt(job, job.index, on))
            attempts = traced
            metrics, wall_metrics = per_layer(tracer, traced, untraced), None
            tracer.write(work / "spans.jsonl")

        failures = [a for a in warm + attempts if not a.passed]
        for a in failures:
            print("latbench: failed job " + json.dumps(a.failure_record()), file=sys.stderr)
        env = machine.record(ROOT)
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "machine": env,
            "setup_reps_s": setups,
            "machine_speed": statistics.median(speed.nominal(workload.kernel) / a.ref for a in warm + attempts),
            "ready_s": ready_s,
            "jobs": len(attempts),
            "passed": sum(a.passed for a in attempts),
            "incorrect": sum(a.incorrect for a in warm + attempts),
            "failures": [a.failure_record() for a in failures],
            "metrics": metrics,
            "metrics_wall": wall_metrics,
        }
        with open(work / "result.json", "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(runner.jobdir, ignore_errors=True)
        if runner.fix is not None:
            shutil.rmtree(runner.fix, ignore_errors=True)

    units = metric_units("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    print(f"# latbench {name} seed={seed} seconds={seconds} trace={int(trace)} record={work.relative_to(ROOT)}")
    print("# machine " + json.dumps(env, sort_keys=True))
    print(f"# jobs={record['jobs']} passed={record['passed']} failed={len(attempts) - record['passed']} "
          f"fail_ratio={1 - record['passed'] / len(attempts):.4f} incorrect={record['incorrect']} "
          f"machine_speed={record['machine_speed']:.4f}")
    for key, value in metrics.items():
        print(f"{key} = {value!r} {units[key]}")
    print(
        json.dumps(
            {
                "correct": record["incorrect"] == 0,
                "attempted": len(attempts),
                "failed": len(attempts) - record["passed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def metric_units(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"latbench: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="latbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latgad" / "cli.py").is_file():
        print(f"latbench: no latgad sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
