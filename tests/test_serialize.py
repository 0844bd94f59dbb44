import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    @pytest.mark.parametrize("v", ["125", {"1": "0", "2": "1"}, ("1", "2"), None, 3])
    def test_vector_must_be_an_array(self, v):
        with pytest.raises(InvalidInputError, match="JSON array"):
            serialize.parse_vector(v)

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


def compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# spellings of a few values, canonical and not, and bare JSON numbers
SPELLINGS = [
    "1", "1.0", "1e0", "+1", "-0", "0", "-0.0", "0e5", "0.1", "0.10000000000000001", "inf", "-inf",
    "Infinity", "nan", "1e-320", "2.5", "-3",
    0, -0.0, 0.0, False, True, 1, 2.5,
    *map(serialize.fmt_real, POOL),
]


@st.composite
def raw_columns(draw):
    d = draw(st.integers(0, 8))
    spelling = st.sampled_from(SPELLINGS)
    return draw(st.lists(st.lists(spelling, min_size=d, max_size=d), min_size=1, max_size=5))


def outcome(convert, cols):
    """convert(cols), or the message of the InvalidInputError it raises."""
    try:
        return convert(cols)
    except InvalidInputError as exc:
        return f"InvalidInputError: {exc}"


class TestCanonColumns:
    """canon_columns against parsing the columns and formatting them again."""

    @given(raw_columns())
    @settings(max_examples=300)
    @example([["1.0", "1e0", "-0", "0.10000000000000001", "inf"], [0, -0.0, False, 1, "0"]])
    def test_matches_parse_then_format(self, cols):
        text = serialize.canon_columns(cols)
        assert isinstance(text, serialize.JsonText)
        assert text == compact(serialize.fmt_columns(serialize.parse_columns(cols)))

    @pytest.mark.parametrize(
        "cols",
        [
            [["1", "2"], ["1"]],  # ragged
            [["1", ["2"]], ["3", "4"]],  # nested list
            [["1", {}], ["3", "4"]],  # object
            [["1", "abc"], ["3", "4"]],
            [["1", ""], ["3", "4"]],
            [["1", None]],
            [["1"], None],
            [["1", "2"], "34"],  # string column
            [{"1": "0", "2": "0"}, ["3", "4"]],  # object column
            "12",
            3,
            [],
        ],
    )
    def test_same_errors_as_parse(self, cols):
        expected = outcome(serialize.parse_columns, cols)
        assert expected.startswith("InvalidInputError")
        assert outcome(serialize.canon_columns, cols) == expected

    @given(raw_columns())
    @settings(max_examples=50)
    def test_each_distinct_entry_formatted_once(self, cols):
        calls = []
        fmt_real = serialize.fmt_real
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "fmt_real", lambda x: calls.append(x) or fmt_real(x))
            serialize.canon_columns(cols)
        entries = [s for col in cols for s in col]
        # bare zeros are one dict key, so with one of them every entry is
        # formatted again on its own
        again = len(entries) if 0 in entries else 0
        assert len(calls) == len(set(entries)) + again


def payloads():
    """One payload of every artifact kind the command line writes."""
    g = gadgets.find_isolating_parallelepiped(3, 2.5)
    parity = gadgets.parity_gadget(3, 1.0, 1)
    f = CspFormula(n=3, constraints=[Clause((1, -2, 3))])
    return {
        "gadget": serialize.gadget_to_json(g),
        "parity": serialize.gadget_to_json(parity),
        "lattice": serialize.gadget_to_json(gadgets.to_isolating_lattice(parity)),
        "onoff": serialize.onoff_to_json(gadgets.to_on_off(g)),
        "instance": serialize.instance_to_json(reductions.sat_to_cvp(f, g)),
        "prep": serialize.cvpp_to_json(reductions.cvpp_preprocess(4, 2, gadgets.to_on_off(g))),
        "inf-prep": serialize.cvpp_to_json(reductions.cvpp_inf_preprocess(4, 3)),
        "report": gadgets.verify_parallelepiped(g).to_json(),
        "solve": {"distance": "1.5", "within_radius": True, "closest": [[0, 1], [1, 0]]},
        "empty": {},
    }


class TestDumps:
    @pytest.mark.parametrize("kind", sorted(payloads()))
    def test_matches_json_dumps(self, kind):
        payload = payloads()[kind]
        assert serialize.dumps(payload) == compact(payload) + "\n"

    @pytest.mark.parametrize("kind", ["instance", "prep", "inf-prep"])
    def test_json_text_written_as_is(self, kind):
        payload = payloads()[kind]
        text = serialize.canon_columns(payload["basis"])
        assert serialize.dumps({**payload, "basis": text}) == compact(payload) + "\n"


class TestCvppJson:
    def test_round_trip(self):
        g = gadgets.find_isolating_parallelepiped(3, 2.5)
        art = reductions.cvpp_preprocess(4, 2, gadgets.to_on_off(g))
        back, basis = serialize.cvpp_from_json(serialize.cvpp_to_json(art))
        assert back.basis is None and back.d == art.d
        assert np.array_equal(serialize.parse_columns(json.loads(basis)), art.basis)
        assert back.gadget.eps == art.gadget.eps
        f = CspFormula(n=4, constraints=[Clause((1, 2))])
        t1, r1 = reductions.cvpp_query(art, f)
        t2, r2 = reductions.cvpp_query(back, f)
        assert np.array_equal(t1, t2) and r1 == r2

    def test_inf_round_trip(self):
        art = reductions.cvpp_inf_preprocess(5, 3)
        back, basis = serialize.cvpp_from_json(serialize.cvpp_to_json(art))
        assert back.basis is None and back.d == art.d
        assert np.array_equal(serialize.parse_columns(json.loads(basis)), art.basis)
        assert back.gadget is None and back.alpha is None

    @pytest.mark.parametrize(
        "field, edit, message",
        [
            ("basis", lambda cols: [col + ["0"] for col in cols], "prep basis is 28x3"),
            ("basis", lambda cols: [col[:-1] for col in cols], "prep basis is 26x3"),
            ("basis", lambda cols: cols[:-1], "prep basis is 27x2"),
            ("block_rows", lambda rows: rows - 1, "block_rows is 3, lp blocks have 4 rows"),
            ("k", lambda k: 4, "need 1 <= k <= n"),
            ("mode", lambda mode: "inf", "block_rows is 4, inf blocks have 1 rows"),
            ("gadget", lambda g: None, "needs its on-off gadget"),
        ],
    )
    def test_header_must_match_basis(self, field, edit, message):
        g = gadgets.find_isolating_parallelepiped(2, 2.5)
        d = serialize.cvpp_to_json(reductions.cvpp_preprocess(3, 1, gadgets.to_on_off(g)))
        d[field] = edit(d[field])
        with pytest.raises(InvalidInputError, match=message):
            serialize.cvpp_from_json(d)
