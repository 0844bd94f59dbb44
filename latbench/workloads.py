"""The three benchmark workloads: seeded inputs, CLI steps and fixtures.

Every input a job gives the program (command-line values and files) is a
pure function of (workload, seed, job index), so the same seed gives
byte-identical inputs.  See README.md for why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

WARMUP_SEED = 0x5EED

# gadget-build: k is fixed so a passed job costs the same for any p
GADGET_K = 10
ODD_P = (1, 3, 5)

# sat-validate: two job kinds, two binary-box jobs to one wide-box job.  With
# an even split the median passed-job time would sit in the gap between the
# kinds' costs (~0.13 s and ~0.18 s) and jump from run to run.  Clause
# ratio 4.2 puts about half of the formulas on each side of satisfiability.
SAT_GADGET = ("--k", "3", "--p", "3")
SAT_KINDS = ({"n": 13, "box": "0..1"}, {"n": 13, "box": "0..1"}, {"n": 7, "box": "-1..2"})
CLAUSE_RATIO = 4.2

# cvpp-serve: one fixed preprocessing basis, many query formulas
CVPP_N, CVPP_K = 10, 3
CVPP_GADGET = ("--k", "4", "--p", "3")


@dataclass
class JobSpec:
    """One job: the values logged with a failure, the input files the job
    reads, and the clauses the independent checks need."""

    index: int
    params: dict
    files: dict[str, bytes] = field(default_factory=dict)
    clauses: list[tuple[int, ...]] = field(default_factory=list)


def dimacs(n: int, clauses: list[tuple[int, ...]]) -> bytes:
    lines = [f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    return ("\n".join(lines) + "\n").encode()


def random_3cnf(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, ...]]:
    """m clauses over 3 distinct variables each, signs uniform."""
    out = []
    for _ in range(m):
        vs = rng.choice(n, size=3, replace=False) + 1
        signs = np.where(rng.random(3) < 0.5, -1, 1)
        out.append(tuple(int(v * s) for v, s in zip(vs, signs)))
    return out


class Workload:
    name: str
    # jobs per second at the seed commit on the reference machine: a run
    # makes ceil(seconds * nominal_rate) jobs, so the job set, and every
    # count derived from it, is fixed by (seed, seconds)
    nominal_rate: float
    # parts of the machine-speed reference kernel that match the workload's
    # kind of work (see speed.py)
    kernel: tuple[str, ...] = ("python", "memory")

    def plan(self, seed: int, count: int) -> list[JobSpec]:
        raise NotImplementedError

    def warmup(self) -> list[JobSpec]:
        return self.plan(WARMUP_SEED, 1)

    def fixtures(self, fix: Path) -> list[list[str]]:
        """CLI steps that build the workload's shared artifacts in `fix`."""
        return []

    def steps(self, job: JobSpec, jobdir: Path, fix: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, jobdir: Path) -> list[Path]:
        """Files the steps write with --out (removed before every job)."""
        raise NotImplementedError


class GadgetBuild(Workload):
    name = "gadget-build"
    nominal_rate = 15.0

    def plan(self, seed, count):
        rng = np.random.default_rng([seed, 1])
        n_odd = count // 4
        n_uni = count - n_odd
        # stratified uniform draws keep the share of p in the failing
        # region the same for every seed; the distribution is uniform
        uni = 1.0 + 5.0 * (np.arange(n_uni) + rng.random(n_uni)) / max(n_uni, 1)
        ps = [float(ODD_P[i % len(ODD_P)]) for i in range(n_odd)] + [round(float(p), 6) for p in uni]
        order = rng.permutation(count)
        return [JobSpec(index=i, params={"k": GADGET_K, "p": ps[j]}) for i, j in enumerate(order)]

    def warmup(self):
        return [JobSpec(index=-1, params={"k": GADGET_K, "p": 3.0})]

    def steps(self, job, jobdir, fix):
        g, o = str(jobdir / "g.json"), str(jobdir / "o.json")
        p = repr(job.params["p"])
        return [
            ["gadget", "find", "--k", str(GADGET_K), "--p", p, "--out", g],
            ["gadget", "verify", "--in", g],
            ["gadget", "onoff", "--in", g, "--out", o],
        ]

    def outputs(self, jobdir):
        return [jobdir / "g.json", jobdir / "o.json"]


class SatValidate(Workload):
    name = "sat-validate"
    nominal_rate = 6.5

    def plan(self, seed, count):
        rng = np.random.default_rng([seed, 2])
        jobs = []
        for i in range(count):
            kind = SAT_KINDS[i % len(SAT_KINDS)]
            n = kind["n"]
            clauses = random_3cnf(rng, n, round(CLAUSE_RATIO * n))
            jobs.append(
                JobSpec(
                    index=i,
                    params={"n": n, "m": len(clauses), "box": kind["box"]},
                    files={"f.cnf": dimacs(n, clauses)},
                    clauses=clauses,
                )
            )
        return jobs

    def warmup(self):
        return self.plan(WARMUP_SEED, len(SAT_KINDS))

    def fixtures(self, fix):
        return [["gadget", "find", *SAT_GADGET, "--out", str(fix / "g3.json")]]

    def steps(self, job, jobdir, fix):
        cnf, inst = str(jobdir / "f.cnf"), str(jobdir / "inst.json")
        return [
            ["reduce", "sat", "--cnf", cnf, "--gadget", str(fix / "g3.json"), "--mode", "padded", "--out", inst],
            ["oracle", "validate", "--cnf", cnf, "--instance", inst, f"--box={job.params['box']}"],
        ]

    def outputs(self, jobdir):
        return [jobdir / "inst.json"]


class CvppServe(Workload):
    name = "cvpp-serve"
    nominal_rate = 7.0
    kernel = ("json_io",)

    def plan(self, seed, count):
        rng = np.random.default_rng([seed, 3])
        table = [(vs, mask) for vs in combinations(range(1, CVPP_N + 1), CVPP_K) for mask in range(2**CVPP_K)]
        jobs = []
        for i in range(count):
            m = int(rng.integers(CVPP_N, 5 * CVPP_N + 1))
            picks = sorted(rng.choice(len(table), size=m, replace=False))
            clauses = [
                tuple(-v if (mask >> (CVPP_K - 1 - s)) & 1 else v for s, v in enumerate(vs))
                for vs, mask in (table[j] for j in picks)
            ]
            jobs.append(
                JobSpec(
                    index=i,
                    params={"n": CVPP_N, "k": CVPP_K, "m": m},
                    files={"q.cnf": dimacs(CVPP_N, clauses)},
                    clauses=clauses,
                )
            )
        return jobs

    def fixtures(self, fix):
        g4, prep = str(fix / "g4.json"), str(fix / "prep.json")
        return [
            ["gadget", "find", *CVPP_GADGET, "--out", g4],
            ["cvpp", "prep", "--n", str(CVPP_N), "--k", str(CVPP_K), "--gadget", g4, "--out", prep],
        ]

    def steps(self, job, jobdir, fix):
        return [
            ["cvpp", "query", "--prep", str(fix / "prep.json"), "--cnf", str(jobdir / "q.cnf"),
             "--out", str(jobdir / "q.json")],
        ]

    def outputs(self, jobdir):
        return [jobdir / "q.json"]


WORKLOADS = {w.name: w for w in (GadgetBuild(), SatValidate(), CvppServe())}


def plan_size(workload: Workload, seconds: float) -> int:
    return max(1, math.ceil(seconds * workload.nominal_rate))
