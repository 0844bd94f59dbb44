import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgad.errors import InvalidInputError
from latgad.formulas import Clause, CspFormula, XorConstraint, parse_dimacs, parse_xor


def to_dimacs(formula: CspFormula) -> str:
    """A clause formula as cnf text, or as wcnf text when it is weighted."""
    weighted = formula.weights is not None
    kind = "wcnf" if weighted else "cnf"
    out = [f"p {kind} {formula.n} {formula.m}"]
    for i, c in enumerate(formula.constraints):
        prefix = f"{formula.weights[i]} " if weighted else ""
        out.append(prefix + " ".join(map(str, c.literals)) + " 0")
    return "\n".join(out) + "\n"


CNF = """c a comment
p cnf 4 3
1 -2 3 0
-1 2 0
4 0
"""

WCNF = """p wcnf 3 2
5 1 -2 0
2 -3 0
"""

XOR = """c parity
p xor 5 2
3 1 2 5 1
2 3 4 0
"""


class TestParsing:
    def test_cnf(self):
        f = parse_dimacs(CNF)
        assert f.n == 4
        assert f.m == 3
        assert f.constraints[0].literals == (1, -2, 3)
        assert f.weights is None

    def test_wcnf(self):
        f = parse_dimacs(WCNF)
        assert f.weights == [5, 2]
        assert f.total_weight() == 7

    def test_xor(self):
        f = parse_xor(XOR)
        assert f.n == 5
        assert f.constraints[0] == XorConstraint((1, 2, 5), 1)
        assert f.constraints[1] == XorConstraint((3, 4), 0)

    def test_round_trip(self):
        f = parse_dimacs(CNF)
        assert parse_dimacs(to_dimacs(f)) == f
        w = parse_dimacs(WCNF)
        assert parse_dimacs(to_dimacs(w)) == w

    def test_clause_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_missing_terminator(self):
        with pytest.raises(InvalidInputError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_xor_duplicate_variables_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_xor("p xor 3 1\n3 1 1 2 0\n")


class TestSemantics:
    def test_clause_satisfaction(self):
        c = Clause((1, -2))
        assert c.satisfied((1, 1))
        assert c.satisfied((0, 0))
        assert not c.satisfied((0, 1))

    def test_xor_satisfaction(self):
        x = XorConstraint((1, 3), 1)
        assert x.satisfied((1, 0, 0))
        assert not x.satisfied((1, 0, 1))

    def test_out_of_range_variable(self):
        with pytest.raises(InvalidInputError):
            CspFormula(n=2, constraints=[Clause((3,))])

    def test_threshold_bounds(self):
        with pytest.raises(InvalidInputError):
            CspFormula(n=2, constraints=[Clause((1,))], threshold=2)

    def test_satisfied_weight(self):
        f = parse_dimacs(WCNF)
        assert f.satisfied_weight((1, 0, 0)) == 7
        assert f.satisfied_weight((0, 1, 1)) == 0

    @given(data=st.data(), n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_random_round_trip(self, data, n):
        literal = st.integers(min_value=1, max_value=n).flatmap(
            lambda v: st.sampled_from([v, -v])
        )
        clauses = data.draw(
            st.lists(st.lists(literal, min_size=1, max_size=4).map(lambda ls: Clause(tuple(ls))), max_size=6)
        )
        f = CspFormula(n=n, constraints=clauses)
        assert parse_dimacs(to_dimacs(f)) == f
