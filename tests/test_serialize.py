import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latgad import gadgets, reductions, serialize
from latgad.errors import InvalidInputError
from latgad.formulas import Clause, CspFormula
from latgad.numeric import PNorm


class TestDecimalStrings:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_round_trip_exact(self, x):
        assert serialize.parse_real(serialize.fmt_real(x)) == x

    def test_seventeen_significant_digits(self):
        s = serialize.fmt_real(1.0 / 3.0)
        digits = s.replace("0.", "")
        assert len(digits) >= 17

    def test_pnorm_round_trip(self):
        assert serialize.parse_pnorm(serialize.fmt_pnorm(PNorm.infinity())).p == math.inf
        assert serialize.parse_pnorm(serialize.fmt_pnorm(2.5)).p == 2.5


# few values, many repeats, as in real artifacts: both zeros, infinities, NaN,
# subnormals and +-1 multiples
POOL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072009e-308, 1.0, -1.0, 2.0, -3.0, 0.1, 1 / 3]
pooled = st.sampled_from(POOL)
vectors = arrays(float, st.integers(0, 12), elements=pooled)
matrices = arrays(float, st.tuples(st.integers(0, 8), st.integers(1, 5)), elements=pooled)


def same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a.view(np.uint64)[~nan], b.view(np.uint64)[~nan]
    )


class TestTables:
    """fmt_columns/parse_columns and their vector forms against fmt_real and
    parse_real applied entry by entry."""

    @given(matrices)
    @settings(max_examples=200)
    def test_columns_match_per_entry(self, M):
        cols = serialize.fmt_columns(M)
        assert cols == [[serialize.fmt_real(x) for x in M[:, j]] for j in range(M.shape[1])]
        assert same_bits(serialize.parse_columns(cols), M)

    @given(vectors)
    @settings(max_examples=200)
    def test_vectors_match_per_entry(self, v):
        strings = serialize.fmt_vector(v)
        assert strings == [serialize.fmt_real(x) for x in v]
        assert same_bits(serialize.parse_vector(strings), v)

    @given(matrices)
    @settings(max_examples=50)
    def test_each_distinct_value_converted_once(self, M):
        calls = {"fmt": 0, "parse": 0}
        fmt_real, parse_real = serialize.fmt_real, serialize.parse_real

        def counting_fmt(x):
            calls["fmt"] += 1
            return fmt_real(x)

        def counting_parse(s):
            calls["parse"] += 1
            return parse_real(s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "fmt_real", counting_fmt)
            mp.setattr(serialize, "parse_real", counting_parse)
            cols = serialize.fmt_columns(M)
            serialize.parse_columns(cols)
        assert calls["fmt"] == len(np.unique(M.view(np.uint64)))
        assert calls["parse"] == len({s for col in cols for s in col})

    @pytest.mark.parametrize("bad", [None, [], {}, "abc", ""])
    def test_bad_entry_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            serialize.parse_vector(["1", bad, "1"])
        with pytest.raises(InvalidInputError):
            serialize.parse_columns([["1", "2"], ["-0", bad]])

    @pytest.mark.parametrize("cols", [[["1", "2"], ["1"]], [["1"], None], 3, []])
    def test_malformed_matrix_rejected(self, cols):
        with pytest.raises(InvalidInputError):
            serialize.parse_columns(cols)

    def test_bare_numbers_keep_their_values(self):
        entries = [0, -0.0, 0.0, False, "-0", 1, 1.0, True, "0"]
        assert same_bits(serialize.parse_vector(entries), np.array([serialize.parse_real(s) for s in entries]))


class TestGadgetJson:
    def test_round_trip(self):
        g = gadgets.find_isolating_parallelepiped(2, 1.5)
        d = serialize.gadget_to_json(g)
        assert d["schema"] == "latgad-gadget-v1"
        back = serialize.gadget_from_json(d)
        assert back.k == g.k and back.p == g.p and back.eps == g.eps
        assert np.array_equal(back.V, g.V)
        assert np.array_equal(back.t, g.t)

    def test_constraint_travels(self):
        g = gadgets.parity_gadget(3, 1.0, 1)
        back = serialize.gadget_from_json(serialize.gadget_to_json(g))
        assert back.constraint == {"type": "parity", "bit": 1}
        assert back.kind == gadgets.KIND_TWO_LEVEL

    def test_byte_stable(self):
        g = gadgets.find_isolating_parallelepiped(2, 2.5)
        a = serialize.dumps(serialize.gadget_to_json(g))
        b = serialize.dumps(serialize.gadget_to_json(g))
        assert a == b

    def test_schema_checked(self):
        with pytest.raises(Exception):
            serialize.gadget_from_json({"schema": "other"})

    @pytest.mark.parametrize("field, value", [("k", "x"), ("k", None), ("t", None)])
    def test_bad_field_rejected(self, field, value):
        d = serialize.gadget_to_json(gadgets.find_isolating_parallelepiped(2, 1.5))
        d[field] = value
        with pytest.raises(InvalidInputError):
            serialize.gadget_from_json(d)

    def test_reloaded_gadget_still_verifies(self):
        for g in (
            gadgets.find_isolating_parallelepiped(3, 2.5),
            gadgets.to_isolating_lattice(gadgets.parity_gadget(4, 1.5, 1)),
        ):
            text = serialize.dumps(serialize.gadget_to_json(g))
            back = serialize.gadget_from_json(json.loads(text))
            assert gadgets.verify_parallelepiped(back).passed


class TestInstanceJson:
    def test_round_trip(self):
        g = gadgets.find_isolating_parallelepiped(3, 2.5)
        f = CspFormula(n=3, constraints=[Clause((1, -2, 3))])
        inst = reductions.sat_to_cvp(f, g)
        d = serialize.instance_to_json(inst)
        assert d["schema"] == "latgad-cvp-v1"
        back = serialize.instance_from_json(d)
        assert np.array_equal(back.basis, inst.basis)
        assert np.array_equal(back.target, inst.target)
        assert back.radius == inst.radius
        assert back.meta["threshold"] == 1

    def test_json_text_parses(self):
        g = gadgets.find_isolating_parallelepiped(2, 1.5)
        text = serialize.dumps(serialize.gadget_to_json(g))
        assert json.loads(text)["k"] == 2


class TestCvppJson:
    def test_round_trip(self):
        g = gadgets.find_isolating_parallelepiped(3, 2.5)
        art = reductions.cvpp_preprocess(4, 2, gadgets.to_on_off(g))
        back = serialize.cvpp_from_json(serialize.cvpp_to_json(art))
        assert np.array_equal(back.basis, art.basis)
        assert back.gadget.eps == art.gadget.eps
        f = CspFormula(n=4, constraints=[Clause((1, 2))])
        t1, r1 = reductions.cvpp_query(art, f)
        t2, r2 = reductions.cvpp_query(back, f)
        assert np.array_equal(t1, t2) and r1 == r2

    def test_inf_round_trip(self):
        art = reductions.cvpp_inf_preprocess(5, 3)
        back = serialize.cvpp_from_json(serialize.cvpp_to_json(art))
        assert np.array_equal(back.basis, art.basis)
        assert back.gadget is None and back.alpha is None
