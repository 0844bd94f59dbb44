"""Boolean constraint formulas: clauses, parity constraints, and the DIMACS
file formats (cnf, wcnf, and an xor variant with lines "k i_1 ... i_k b")."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidInputError


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals in DIMACS convention: +j for x_j, -j for not x_j."""

    literals: tuple[int, ...]

    def __post_init__(self):
        if not self.literals:
            raise InvalidInputError("empty clause")
        if any(lit == 0 for lit in self.literals):
            raise InvalidInputError("literal 0 is reserved as the DIMACS terminator")

    @property
    def arity(self) -> int:
        return len(self.literals)

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(abs(lit) for lit in self.literals)

    def satisfied(self, assignment: Sequence[int]) -> bool:
        return any(
            (assignment[abs(lit) - 1] == 1) if lit > 0 else (assignment[abs(lit) - 1] == 0)
            for lit in self.literals
        )


@dataclass(frozen=True)
class XorConstraint:
    """x_{i_1} xor ... xor x_{i_k} = bit over distinct variables."""

    variables: tuple[int, ...]
    bit: int

    def __post_init__(self):
        if not self.variables:
            raise InvalidInputError("empty parity constraint")
        if len(set(self.variables)) != len(self.variables):
            raise InvalidInputError(f"parity constraint repeats variables: {self.variables}")
        if any(v <= 0 for v in self.variables):
            raise InvalidInputError("parity constraint variables must be positive indices")
        if self.bit not in (0, 1):
            raise InvalidInputError("parity bit must be 0 or 1")

    @property
    def arity(self) -> int:
        return len(self.variables)

    def satisfied(self, assignment: Sequence[int]) -> bool:
        return sum(assignment[v - 1] for v in self.variables) % 2 == self.bit


@dataclass
class CspFormula:
    """A list of clauses and/or parity constraints over n boolean variables,
    with optional non-negative integer weights and threshold W."""

    n: int
    constraints: list
    weights: list[int] | None = None
    threshold: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("formula needs at least one variable")
        for c in self.constraints:
            if not isinstance(c, (Clause, XorConstraint)):
                raise InvalidInputError(f"unknown constraint object {c!r}")
            bad = [v for v in c.variables if not 1 <= v <= self.n]
            if bad:
                raise InvalidInputError(f"variable index out of [1, {self.n}]: {bad}")
        if self.weights is not None:
            if len(self.weights) != len(self.constraints):
                raise InvalidInputError("one weight per constraint required")
            if any(not isinstance(w, int) or w < 0 for w in self.weights):
                raise InvalidInputError("weights must be non-negative integers")
        if self.threshold is not None:
            if self.threshold < 0 or self.threshold > self.total_weight():
                raise InvalidInputError("threshold must lie in [0, total weight]")

    @property
    def m(self) -> int:
        return len(self.constraints)

    def weight_of(self, i: int) -> int:
        return 1 if self.weights is None else self.weights[i]

    def total_weight(self) -> int:
        return self.m if self.weights is None else sum(self.weights)

    def satisfied_weight(self, assignment: Sequence[int]) -> int:
        return sum(self.weight_of(i) for i, c in enumerate(self.constraints) if c.satisfied(assignment))


# ---------------------------------------------------------------------------
# parsing


def _data_lines(text: str):
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        yield line


def _problem_line(lines: list[str], kinds: tuple[str, ...]) -> tuple[str, int, int]:
    """(kind, n, m) of the problem line "p kind n m", which must be the
    first data line and name one of kinds."""
    if not lines or not lines[0].startswith("p"):
        raise InvalidInputError("missing problem line")
    header = lines[0].split()
    if len(header) != 4 or header[1] not in kinds:
        raise InvalidInputError(f"unsupported problem line: {lines[0]!r}")
    try:
        return header[1], int(header[2]), int(header[3])
    except ValueError as exc:
        raise InvalidInputError(f"bad problem line counts: {lines[0]!r}") from exc


def parse_dimacs(text: str) -> CspFormula:
    """Parse DIMACS cnf or wcnf ("p cnf n m" / "p wcnf n m")."""
    lines = list(_data_lines(text))
    kind, n, m = _problem_line(lines, ("cnf", "wcnf"))
    weighted = kind == "wcnf"
    tokens: list[int] = []
    try:
        for line in lines[1:]:
            tokens.extend(int(tok) for tok in line.split())
    except ValueError as exc:
        raise InvalidInputError(f"non-integer token in clause line {line!r}") from exc
    clauses: list[Clause] = []
    weights: list[int] = []
    cursor = 0
    while cursor < len(tokens):
        if weighted:
            w = tokens[cursor]
            cursor += 1
            if w < 0:
                raise InvalidInputError(f"negative clause weight {w}")
            weights.append(w)
        try:
            end = tokens.index(0, cursor)
        except ValueError as exc:
            raise InvalidInputError("clause missing terminating 0") from exc
        clauses.append(Clause(tuple(tokens[cursor:end])))
        cursor = end + 1
    if len(clauses) != m:
        raise InvalidInputError(f"problem line declares {m} clauses, found {len(clauses)}")
    return CspFormula(n=n, constraints=clauses, weights=weights if weighted else None)


def parse_xor(text: str) -> CspFormula:
    """Parse the parity format: "p xor n m" then lines "k i_1 ... i_k b"."""
    lines = list(_data_lines(text))
    _, n, m = _problem_line(lines, ("xor",))
    constraints = []
    for line in lines[1:]:
        try:
            parts = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise InvalidInputError(f"non-integer token in parity line {line!r}") from exc
        k = parts[0]
        if len(parts) != k + 2:
            raise InvalidInputError(f"parity line needs k indices and a bit: {line!r}")
        constraints.append(XorConstraint(variables=tuple(parts[1 : k + 1]), bit=parts[k + 1]))
    if len(constraints) != m:
        raise InvalidInputError(f"problem line declares {m} constraints, found {len(constraints)}")
    return CspFormula(n=n, constraints=constraints)

