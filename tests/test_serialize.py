import dataclasses
import functools
import json
import math
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latgad import gadgets, reductions, serialize
from latgad.errors import InvalidInputError, NumericDegeneracyError, ResourceLimitError
from latgad.formulas import Clause, CspFormula


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
        assert serialize.fmt_real(math.inf) == "inf"
        assert serialize.parse_pnorm(serialize.fmt_real(math.inf)) == math.inf
        assert serialize.parse_pnorm(serialize.fmt_real(2.5)) == 2.5


# few values, many repeats, as in real artifacts: both zeros, infinities, NaN,
# subnormals and +-1 multiples
POOL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072009e-308, 1.0, -1.0, 2.0, -3.0, 0.1, 1 / 3]
pooled = st.sampled_from(POOL)
vectors = arrays(float, st.integers(0, 12), elements=pooled)
matrices = arrays(float, st.tuples(st.integers(0, 8), st.integers(1, 5)), elements=pooled)


def read(chunks):
    """What a tuple of JSON text chunks, as the writers hold an array, reads
    as."""
    return json.loads("".join(chunks))


def read_payload(payload: dict) -> dict:
    """payload with each tuple of chunks read as the JSON it writes."""
    return {key: read(value) if isinstance(value, tuple) else value for key, value in payload.items()}


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
        cols = read(serialize.fmt_columns(M))
        assert cols == [[serialize.fmt_real(x) for x in M[:, j]] for j in range(M.shape[1])]
        assert same_bits(serialize.parse_columns(cols), M)

    @given(vectors)
    @settings(max_examples=200)
    def test_vectors_match_per_entry(self, v):
        strings = read(serialize.fmt_vector(v))
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
            cols = read(serialize.fmt_columns(M))
            serialize.parse_columns(cols)
        assert calls["fmt"] == len(np.unique(M.view(np.uint64)))
        assert calls["parse"] == len({s for col in cols for s in col})

    @pytest.mark.parametrize("bad", [None, [], {}, "abc", "", True, False])
    def test_bad_entry_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            serialize.parse_vector(["1", bad, "1"])
        with pytest.raises(InvalidInputError):
            serialize.parse_columns([["1", "2"], ["-0", bad]])

    # the last three: a string column, an object column, a string matrix
    @pytest.mark.parametrize(
        "cols", [[["1", "2"], ["1"]], [["1"], None], 3, [], [["1", "2"], "34"], [{"1": "0", "2": "0"}, ["3", "4"]], "12"]
    )
    def test_malformed_matrix_rejected(self, cols):
        with pytest.raises(InvalidInputError):
            serialize.parse_columns(cols)

    @pytest.mark.parametrize("v", ["125", {"1": "0", "2": "1"}, ("1", "2"), None, 3])
    def test_vector_must_be_an_array(self, v):
        with pytest.raises(InvalidInputError, match="JSON array"):
            serialize.parse_vector(v)

    def test_bare_numbers_keep_their_values(self):
        entries = [0, -0.0, 0.0, "-0", 1, 1.0, "0"]
        assert same_bits(serialize.parse_vector(entries), np.array([serialize.parse_real(s) for s in entries]))
        # false and true share dict keys with 0 and 1, and are no reals
        for flag in (False, True):
            with pytest.raises(InvalidInputError, match=f"bad decimal string {flag}"):
                serialize.parse_vector([*entries, flag])


class TestGadgetJson:
    def test_round_trip(self):
        g = gadgets.find_isolating_parallelepiped(2, 1.5)
        d = json.loads(serialize.dumps(serialize.gadget_to_json(g)))
        assert d["schema"] == "latgad-gadget-v1"
        back = serialize.gadget_from_json(d)
        assert back.k == g.k and back.p == g.p and back.eps == g.eps
        assert np.array_equal(back.V, g.V)
        assert np.array_equal(back.t, g.t)

    def test_constraint_travels(self):
        g = gadgets.parity_gadget(3, 1.0, 1)
        back = serialize.gadget_from_json(json.loads(serialize.dumps(serialize.gadget_to_json(g))))
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
        d = json.loads(serialize.dumps(serialize.gadget_to_json(gadgets.find_isolating_parallelepiped(2, 1.5))))
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
        back = serialize.instance_from_json(json.loads(serialize.dumps(d)))
        assert type(inst.p) is type(back.p) is float and back.p == inst.p == 2.5
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


# the payloads whose gadget arrays are held as JSON text (a tuple of chunks)
TEXT_KINDS = ("gadget", "parity", "lattice", "onoff", "prep")


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
        "inf-prep": serialize.cvpp_to_json(reductions.cvpp_preprocess(4, 3, None)),
        "report": gadgets.verify_parallelepiped(g).to_json(),
        "solve": {"distance": "1.5", "within_radius": True, "closest": [[0, 1], [1, 0]]},
        "empty": {},
    }


def per_entry(a) -> list:
    """fmt_real of each entry of the vector a, or of each column of the
    matrix a: the JSON that fmt_vector or fmt_columns writes."""
    a = np.asarray(a, dtype=float)
    return [per_entry(col) for col in a.T] if a.ndim == 2 else [serialize.fmt_real(x) for x in a]


class TestDumps:
    @pytest.mark.parametrize("kind", sorted(payloads()))
    def test_matches_json_dumps(self, kind):
        payload = payloads()[kind]
        if kind in TEXT_KINDS:
            text = serialize.dumps(payload)
            assert text == compact(json.loads(text)) + "\n"
        else:
            assert serialize.dumps(payload) == compact(read_payload(payload)) + "\n"

    def test_joined_arrays_match_encoder(self, monkeypatch):
        # every fmt_real shape: signed zeros, infinities, nan, subnormals,
        # exponents of both signs and plain decimals; and empty arrays
        reals = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 2.2250738585072014e-308]
        reals += [1e300, -1e-300, 0.1, 1 / 3, -7.0, 1e16, 123456789.5]
        g = gadgets.find_isolating_parallelepiped(10, 3.0)
        arrays = {
            "v": reals,
            "empty": [],
            "cols": np.array([reals, reals[::-1]]).T,
            "no-rows": np.zeros((0, 2)),
            "no-cols": np.zeros((3, 0)),
        }
        fmt = {1: serialize.fmt_vector, 2: serialize.fmt_columns}
        shapes = {key: fmt[np.ndim(a)](a) for key, a in arrays.items()}
        # test_matches_json_dumps covers the payloads of payloads(); the
        # arrays of a gadget, an on-off gadget, an instance and the shapes
        # above are written without the encoder, as the text of their
        # per-entry lists
        onoff = gadgets.to_on_off(g)
        f = CspFormula(n=3, constraints=[Clause((1, -2, 3))])
        inst = reductions.sat_to_cvp(f, gadgets.find_isolating_parallelepiped(3, 2.5))
        joined = [serialize.gadget_to_json(g), serialize.onoff_to_json(onoff), shapes, serialize.instance_to_json(inst)]
        lists = [{"V": per_entry(x.V), **{key: per_entry(getattr(x, key)) for key in keys}}
                 for x, keys in ((g, ["t"]), (onoff, ["t_on", "t_off"]))]
        lists.append({key: per_entry(a) for key, a in arrays.items()})
        lists.append({"basis": per_entry(inst.basis), "target": per_entry(inst.target)})
        want = [compact({**payload, **listed}) + "\n" for payload, listed in zip(joined, lists)]
        encode = serialize._compact

        def no_arrays(value):
            assert not isinstance(value, list), value
            return encode(value)

        monkeypatch.setattr(serialize, "_compact", no_arrays)
        assert [serialize.dumps(payload) for payload in joined] == want

    @pytest.mark.parametrize("kind", ["instance", "prep", "inf-prep"])
    def test_json_text_written_as_is(self, kind):
        payload = payloads()[kind]
        if kind == "instance":
            text = "".join(payload["basis"])
            chunks = tuple(text[i : i + 7] for i in range(0, len(text), 7))
        else:
            # the basis text a query builds from the prep, beside the
            # formatted float basis; the prep's gadget is read from its text
            payload = json.loads(serialize.dumps(payload))
            art, chunks = serialize.cvpp_from_json(payload)
            ref = float_prep(art)
            payload = {**payload, "basis": serialize.fmt_columns(ref.basis)}
        written = serialize.dump_chunks({**payload, "basis": chunks})
        want = compact(read_payload(payload)) + "\n"
        assert "".join(written) == serialize.dumps({**payload, "basis": chunks}) == want

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_no_number_that_is_not_finite(self, x):
        with pytest.raises(NumericDegeneracyError, match="conditions holds a number that is not finite"):
            serialize.dump_chunks({"conditions": [{"residual": x}], "passed": False})


class TestOneForm:
    """A tuple of str chunks is the one form of a written array."""

    ARRAYS = ("V", "t", "t_on", "t_off", "basis", "target", "gadget")

    @pytest.mark.parametrize("kind", ["gadget", "parity", "lattice", "onoff", "instance", "prep", "inf-prep"])
    def test_writer_payloads_hold_chunks(self, kind):
        payload = payloads()[kind]
        held = [key for key in self.ARRAYS if key in payload]
        assert held or kind == "inf-prep"
        for key in held:
            assert type(payload[key]) is tuple and all(type(chunk) is str for chunk in payload[key]), key
        assert not any(isinstance(value, list) for value in payload.values())

    def test_v_chunks_are_the_column_texts(self, monkeypatch):
        # V's chunks are _gadget_texts' column strings, not a joined copy
        made = []
        gadget_texts = serialize._gadget_texts
        monkeypatch.setattr(serialize, "_gadget_texts", lambda g: made.append(gadget_texts(g)) or made[-1])
        g = gadgets.find_isolating_parallelepiped(10, 3.0)
        for x, to_json, targets in [
            (g, serialize.gadget_to_json, 1),
            (gadgets.to_on_off(g), serialize.onoff_to_json, 2),
            (gadgets.parity_gadget(5, 1.5, 0), serialize.gadget_to_json, 1),
        ]:
            V = to_json(x)["V"]
            columns = made[-1][:-targets]
            assert len(columns) == x.k and len(V) == 2 * x.k + 1
            assert all(chunk is text for chunk, text in zip(V[1::2], columns))
            assert V[0::2] == ("[[", *["],["] * (x.k - 1), "]]")


class TestLastTexts:
    """The gadget writers keep no texts between calls: every array handed
    out is immutable text, the list it reads as is the caller's own, and a
    zero is written with its sign."""

    @staticmethod
    def gadget(V) -> gadgets.IsolatingGadget:
        V = np.asarray(V, dtype=float)
        return gadgets.IsolatingGadget(p=3.0, k=V.shape[1], V=V, t=V[:, 0].copy(), eps=0.5)

    @pytest.mark.parametrize("written,now", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zeros_are_told_apart(self, written, now):
        M = np.array([[written, 1.5], [2.5, 0.5]])
        serialize.dumps(serialize.gadget_to_json(self.gadget(M)))
        # column 0 and t now differ from the written ones by a zero's sign
        M = M.copy()
        M[0, 0] = now
        want = [[serialize.fmt_real(x) for x in col] for col in M.T]
        doc = json.loads(serialize.dumps(serialize.gadget_to_json(self.gadget(M))))
        assert (doc["V"], doc["t"]) == (want, want[0])

    def test_lists_are_the_callers(self):
        v = np.array([1.0, 2.0, 3.0])
        written = serialize.fmt_vector(v)
        serialize.dumps({"t": written})
        with pytest.raises(TypeError):
            written[0] = "x"
        for mine in (read(written), read(serialize.fmt_vector(v))):
            mine.pop()
            mine[0] = "x"
        assert read(serialize.fmt_vector(v)) == ["1", "2", "3"]
        assert serialize.dumps({"t": serialize.fmt_vector(v)}) == '{"t":["1","2","3"]}\n'
        # a gadget payload's arrays are immutable text
        g = self.gadget([[1.0], [2.0]])
        payload = serialize.gadget_to_json(g)
        for key in ("V", "t"):
            assert type(payload[key]) is tuple and all(type(chunk) is str for chunk in payload[key])
        with pytest.raises(TypeError):
            payload["t"][0] = "x"
        assert "".join(payload["t"]) == '["1","2"]' and "".join(payload["V"]) == '[["1","2"]]'
        assert serialize.gadget_to_json(g)["t"] == payload["t"]

    @pytest.mark.parametrize("kind", ["isolating", "on-off", "parity"])
    def test_a_zero_of_the_other_sign_is_written(self, kind):
        # a class holding 0.0 and -0.0 is no class: the gadget is written
        # entry by entry, each zero with its own sign
        g = gadgets.find_isolating_parallelepiped(4, 3.0)
        g = {"isolating": g, "on-off": gadgets.to_on_off(g), "parity": gadgets.parity_gadget(5, 1.5, 0)}[kind]
        to_json = serialize.onoff_to_json if kind == "on-off" else serialize.gadget_to_json
        V = g.V.copy()
        i, j = np.argwhere(V == 0.0)[-1]
        V[i, j] = -V[i, j]
        assert gadgets.class_form(g.V, [g.t_on] if kind == "on-off" else [g.t]) is not None
        g = dataclasses.replace(g, V=V)
        doc = json.loads(serialize.dumps(to_json(g)))
        assert doc["V"] == [[serialize.fmt_real(x) for x in col] for col in V.T]
        assert doc["V"][j][i] != serialize.fmt_real(-V[i, j])


BLOCK_P = [1 + 0.25 * i for i in range(21)] + [7.0, 9.0, 11.0]  # the 0.25 grid of [1, 6], and odd p above it


def admissible(k, p) -> bool:
    """Whether the builders take (k, p): every p but an even integer below k."""
    return not (float(p).is_integer() and int(p) % 2 == 0 and p < k)


class TestBlockTexts:
    """A gadget in class form is written from its row blocks
    (`gadgets.class_blocks`), each joined once, with the texts of the
    generic writer, which formats every entry through one table."""

    @staticmethod
    def assert_generic(g, monkeypatch):
        assert gadgets.form_of(g.V, g.targets, g.form) is not None
        texts = serialize._gadget_texts(g)
        with monkeypatch.context() as mp:
            mp.setattr(serialize, "form_of", lambda V, targets, form=None: None)
            assert texts == serialize._gadget_texts(g), (type(g).__name__, g.k, g.p)

    def test_isolating_and_onoff(self, monkeypatch):
        count = 0
        for k in range(1, 15):
            for p in filter(functools.partial(admissible, k), BLOCK_P):
                g = gadgets.find_isolating_parallelepiped(k, p)
                self.assert_generic(g, monkeypatch)
                if k >= 2:
                    self.assert_generic(gadgets.to_on_off(g), monkeypatch)
                count += 1
        assert count == 14 * len(BLOCK_P) - 30  # p = 2, 4 and 6 below k (12, 10 and 8 arities) are refused

    def test_parity(self, monkeypatch):
        for k in range(3, 13):
            for p in (p for p in BLOCK_P if p < k and admissible(k, p)):
                for bit in (0, 1):
                    self.assert_generic(gadgets.parity_gadget(k, p, bit), monkeypatch)

    def test_nested_onoff_of_a_prep(self, monkeypatch):
        # the prep writes its on-off gadget (r = 2) inside its own payload
        for k in (1, 2, 3):
            for p in (1.0, 1.5, 3.0, 5.0):
                g = gadgets.to_on_off(gadgets.find_isolating_parallelepiped(k + 1, p))
                art = reductions.cvpp_header(k + 1, k, g)
                self.assert_generic(art.gadget, monkeypatch)
                text = serialize.dumps(serialize.cvpp_to_json(art))
                with monkeypatch.context() as mp:
                    mp.setattr(serialize, "form_of", lambda V, targets, form=None: None)
                    assert text == serialize.dumps(serialize.cvpp_to_json(art))

    def test_k16(self, monkeypatch):
        g = gadgets.find_isolating_parallelepiped(16, 3.3)
        self.assert_generic(g, monkeypatch)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_random_class_tables(self, monkeypatch, r):
        # arbitrary values per class, zeros of both signs among them; at
        # k = 0 and 1 the rows are one block
        rng = np.random.default_rng(40 + r)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 1 / 3, -2.5e17, 5e-324, 1e300, 0.1, 7.0])
        for k in range(0, 9):
            codes = gadgets._class_index(k, r)[4]
            for _ in range(4):
                values = rng.choice(pool, codes.size)
                tables = tuple(rng.choice(pool, (k + 1) * r) for _ in range(1 + (r == 2)))
                if k:
                    values[rng.integers(codes.size)] = -0.0
                index, _, rows, _, _ = gadgets._class_index(k, r)
                form = gadgets.ClassForm(values, tables, index, rows)
                V, targets = form.expand()
                if r == 2:
                    g = gadgets.OnOffGadget(p=3.0, k=k, V=V, t_on=targets[0], t_off=targets[1], eps=0.5)
                else:
                    g = gadgets.IsolatingGadget(p=3.0, k=k, V=V, t=targets[0], eps=0.5)
                gadgets.carry_form(g, form)
                self.assert_generic(g, monkeypatch)
                if k:
                    assert '"-0"' in ",".join(serialize._gadget_texts(g)[:k])

    def test_no_tables_at_import(self):
        # import builds no block table; one (k, r) builds read-only tables
        code = ("import latgad.cli\nfrom latgad import gadgets\n"
                "print(gadgets.class_blocks.cache_info().currsize, gadgets._class_index.cache_info().currsize,"
                " gadgets._cube.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.split() == ["0", "0", "0"], proc.stderr
        tables = gadgets.class_blocks(10, 2)
        assert not any(a.flags.writeable for a in tables)
        assert gadgets.class_blocks.cache_info().currsize == 1


class TestReadBack:
    """The readers' arrays are read-only, and a written gadget's read-back is
    its read."""

    @staticmethod
    def assert_read_only(*arrays):
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]

    def test_readers_return_read_only_arrays(self):
        g = gadgets.find_isolating_parallelepiped(3, 2.5)
        back = serialize.gadget_from_json(json.loads(serialize.dumps(serialize.gadget_to_json(g))))
        onoff = serialize.onoff_from_json(json.loads(serialize.dumps(serialize.onoff_to_json(gadgets.to_on_off(g)))))
        inst = reductions.sat_to_cvp(CspFormula(n=3, constraints=[Clause((1, -2, 3))]), g)
        read = serialize.instance_from_json(json.loads(serialize.dumps(serialize.instance_to_json(inst))))
        prep, _ = serialize.cvpp_from_json(json.loads(serialize.dumps(serialize.cvpp_to_json(reductions.cvpp_header(3, 2, gadgets.to_on_off(g))))))
        self.assert_read_only(back.V, back.t, onoff.V, onoff.t_on, onoff.t_off, read.basis, read.target)
        self.assert_read_only(prep.gadget.V, prep.gadget.t_on, prep.gadget.t_off)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gadgets.find_isolating_parallelepiped(3, 3.0),
            lambda: gadgets.find_isolating_parallelepiped(1, 1.0),
            lambda: gadgets.to_isolating_lattice(gadgets.find_isolating_parallelepiped(5, 3.0)),
            lambda: gadgets.parity_gadget(4, 3.0, 1),
            lambda: gadgets.to_isolating_lattice(gadgets.parity_gadget(3, 1.5, 0)),
        ],
        ids=["find", "find-k1", "lattice", "parity", "parity-lattice"],
    )
    def test_gadget_read_back_is_the_read(self, build):
        g = build()
        read = serialize.gadget_from_json(json.loads(serialize.dumps(serialize.gadget_to_json(g))))
        back = serialize.gadget_read_back(g)
        fields = ("p", "k", "eps", "kind", "constraint", "meta")
        assert [getattr(back, f) for f in fields] == [getattr(read, f) for f in fields]
        assert [type(getattr(back, f)) for f in fields] == [type(getattr(read, f)) for f in fields]
        for a, b in ((back.V, read.V), (back.t, read.t)):
            assert (a.dtype, a.shape, a.strides, a.tobytes()) == (b.dtype, b.shape, b.strides, b.tobytes())
        self.assert_read_only(back.V, back.t)


def float_prep(art):
    """The prep with float basis for the header art."""
    return reductions.cvpp_preprocess(art.n, art.k, art.gadget)


def iter_table(n: int, k: int):
    """All (varset, mask) table entries in table order."""
    for varset in combinations(range(1, n + 1), k):
        for mask in range(2**k):
            yield varset, mask


def loop_query(art, formula):
    """cvpp_query as a loop over the table entries, the reference for the
    vectorized target."""
    g, k = art.gadget, art.k
    # the gadget's rows that are nonzero in V, t_on or t_off
    live = np.any(g.V != 0, axis=1) | (g.t_on != 0) | (g.t_off != 0)
    V, t_on, t_off, rows = g.V[live], g.t_on[live], g.t_off[live], np.count_nonzero(live)
    present = {art.clause_position(c)[0] for c in formula.constraints}
    W = formula.threshold if formula.threshold is not None else formula.m
    mask_shift = [V[:, [s for s in range(k) if (mask >> (k - 1 - s)) & 1]].sum(axis=1) for mask in range(2**k)]
    target = np.empty(art.d)
    row = 0
    for pos, (_, mask) in enumerate(iter_table(art.n, k)):
        target[row : row + rows] = (t_on if pos in present else t_off) - mask_shift[mask]
        row += rows
    q, m = g.p, formula.m
    alpha = art.M ** (1.0 / q) * (1.0 + g.eps)
    target[row:] = alpha
    radius = ((art.M - (m - W)) + (m - W) * (1.0 + g.eps) ** q + art.n * alpha**q) ** (1.0 / q)
    return target, radius


def loop_inf_query(art, formula):
    """cvpp_query on a max-norm prep as a loop over the table entries."""
    k = art.k
    present = {art.clause_position(c)[0] for c in formula.constraints}
    target = np.empty(art.M + art.n)
    for pos, (_, mask) in enumerate(iter_table(art.n, k)):
        target[pos] = ((k + 1) / 2 if pos in present else k / 2) - bin(mask).count("1")
    target[art.M :] = k / 2
    return target, k / 2


def random_queries(n, k, seed, count=4):
    """Seeded formulas of distinct k-clauses on n variables, from none to
    every table entry."""
    rng = np.random.default_rng(seed)
    table = [
        Clause(tuple(-v if (mask >> (k - 1 - s)) & 1 else v for s, v in enumerate(vs)))
        for vs, mask in iter_table(n, k)
    ]
    sizes = [0, len(table), *rng.integers(1, len(table) + 1, size=count - 2)]
    return [
        CspFormula(n=n, constraints=[table[i] for i in sorted(rng.choice(len(table), size=m, replace=False))])
        for m in sizes
    ]


@functools.cache
def onoff(k: int, p: float):
    """The on-off gadget of arity k from the isolating gadget of arity k + 1."""
    return gadgets.to_on_off(gadgets.find_isolating_parallelepiped(k + 1, p))


def assert_target_text(art, formula, ref_target):
    """The target text a query writes is the compact JSON of formatting the
    reference target entry by entry."""
    present, _ = reductions.cvpp_table_query(art, formula)
    chunks = serialize.target_text(serialize.target_block_texts(art), present)
    assert isinstance(chunks, tuple)
    assert "".join(chunks) == compact([serialize.fmt_real(x) for x in ref_target])


class TestCvppBasisText:
    """The loaded prep's basis text against formatting the float basis, and
    the vectorized targets against the loop over table entries."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 5.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lp_matches_float_path(self, k, p):
        g = onoff(k, p)
        for n in range(k, 8):
            art = reductions.cvpp_preprocess(n, k, g)
            back, chunks = serialize.cvpp_from_json(json.loads(serialize.dumps(serialize.cvpp_to_json(art))))
            text = "".join(chunks)
            assert json.loads(text) == read(serialize.fmt_columns(art.basis))
            assert text == compact(json.loads(text))
            assert back.target_tail == art.target_tail and back.d == art.d
            for f in random_queries(n, k, seed=[n, k, int(4 * p)]):
                for W in (None, max(f.m - 1, 0)):
                    f = dataclasses.replace(f, threshold=W)
                    target, radius = reductions.cvpp_query(back, f)
                    ref_target, ref_radius = loop_query(art, f)
                    assert target.tobytes() == ref_target.tobytes() and radius == ref_radius
                    assert_target_text(back, f, ref_target)

    def test_no_zero_row_pair_is_left(self):
        # the on-off gadget's zeroed class gives rows that are zero in V,
        # t_off and t_on; the loaded prep's basis and targets have none
        g = onoff(2, 3.0)
        zero = np.all(g.V == 0, axis=1) & (g.t_off == 0) & (g.t_on == 0)
        assert zero.sum() == 3
        art = reductions.cvpp_preprocess(3, 2, g)
        back, chunks = serialize.cvpp_from_json(json.loads(serialize.dumps(serialize.cvpp_to_json(art))))
        basis = serialize.parse_columns(json.loads("".join(chunks)))
        assert back.block_rows == g.d - 3 and basis.shape == (back.M * (g.d - 3) + 3, 3)
        for present in (np.zeros(back.M, dtype=bool), np.ones(back.M, dtype=bool)):
            target = back.target(present)
            assert not np.any(np.all(basis == 0, axis=1) & (target == 0))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_inf_matches_float_path(self, k):
        for n in range(k, 8):
            art = reductions.cvpp_preprocess(n, k, None)
            back, chunks = serialize.cvpp_from_json(json.loads(serialize.dumps(serialize.cvpp_to_json(art))))
            text = "".join(chunks)
            assert json.loads(text) == read(serialize.fmt_columns(art.basis))
            assert text == compact(json.loads(text))
            for f in random_queries(n, k, seed=[n, k]):
                target, radius = reductions.cvpp_query(back, f)
                ref_target, ref_radius = loop_inf_query(art, f)
                assert target.tobytes() == ref_target.tobytes() and radius == ref_radius
                assert_target_text(back, f, ref_target)


def bit_patterns(values) -> set:
    return set(np.asarray(values, dtype=float).ravel().view(np.uint64).tolist())


def every_prep():
    """lp preps for k in 1..3, n in k..6 and p in {1, 1.5, 3, 5}, and the inf
    preps for the same n and k."""
    for k in (1, 2, 3):
        for n in range(k, 7):
            yield reductions.cvpp_preprocess(n, k, None)
            for p in (1.0, 1.5, 3.0, 5.0):
                yield reductions.cvpp_preprocess(n, k, onoff(k, p))


class TestCanonColumns:
    """The basis text a loaded prep builds is canonical column text."""

    def test_matches_parse_then_format(self):
        for art in every_prep():
            _, chunks = serialize.cvpp_from_json(json.loads(serialize.dumps(serialize.cvpp_to_json(art))))
            text = "".join(chunks)
            assert text == compact(read(serialize.fmt_columns(serialize.parse_columns(json.loads(text)))))

    def test_each_distinct_entry_formatted_once(self, monkeypatch):
        fmt_real = serialize.fmt_real
        for art in every_prep():
            header = json.loads(serialize.dumps(serialize.cvpp_to_json(art)))
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(serialize, "fmt_real", lambda x: calls.append(x) or fmt_real(x))
                serialize.cvpp_from_json(header)
            # no value twice, every value of the basis, and nothing but the
            # basis's values and the zero of its zero runs
            assert len(calls) == len(bit_patterns(calls))
            assert bit_patterns(calls) - bit_patterns(art.basis) <= bit_patterns([0.0])
            assert bit_patterns(art.basis) <= bit_patterns(calls)

    def test_each_distinct_target_entry_formatted_once(self, monkeypatch):
        fmt_real = serialize.fmt_real
        for art in every_prep():
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(serialize, "fmt_real", lambda x: calls.append(x) or fmt_real(x))
                blocks = serialize.target_block_texts(art)
                for f in random_queries(art.n, art.k, seed=[art.n, art.k]):
                    present, _ = reductions.cvpp_table_query(art, f)
                    before = len(calls)
                    serialize.target_text(blocks, present)
                    # a query gathers the block texts and formats nothing
                    assert len(calls) == before
                    assert bit_patterns(art.target(present)) <= bit_patterns(calls)
            # no value twice, and nothing but the values of the blocks and
            # the tail
            assert len(calls) == len(bit_patterns(calls))
            assert bit_patterns(calls) <= bit_patterns([*art.target_blocks.ravel(), art.target_tail])


class TestCvppJson:
    def test_round_trip(self):
        g = gadgets.find_isolating_parallelepiped(3, 2.5)
        art = reductions.cvpp_preprocess(4, 2, gadgets.to_on_off(g))
        back, basis = serialize.cvpp_from_json(json.loads(serialize.dumps(serialize.cvpp_to_json(art))))
        assert back.basis is None and back.d == art.d
        assert np.array_equal(serialize.parse_columns(json.loads("".join(basis))), art.basis)
        assert back.gadget.eps == art.gadget.eps
        f = CspFormula(n=4, constraints=[Clause((1, 2))])
        t1, r1 = reductions.cvpp_query(art, f)
        t2, r2 = reductions.cvpp_query(back, f)
        assert np.array_equal(t1, t2) and r1 == r2

    def test_inf_round_trip(self):
        art = reductions.cvpp_preprocess(5, 3, None)
        back, basis = serialize.cvpp_from_json(serialize.cvpp_to_json(art))
        assert back.basis is None and back.d == art.d
        assert np.array_equal(serialize.parse_columns(json.loads("".join(basis))), art.basis)
        assert back.gadget is None and back.p == math.inf

    @pytest.mark.parametrize(
        "field, edit, message",
        [
            ("k", lambda k: 4, "need 1 <= k <= n"),
            ("k", lambda k: 0, "need 1 <= k <= n, got n=3, k=0"),
            ("k", lambda k: 2, "gadget arity 1 does not match k=2"),
            ("n", lambda n: "three", "bad integer 'three'"),
            ("mode", lambda mode: "inf", "inf preprocessing takes no gadget"),
            ("mode", lambda mode: "l2", "unknown preprocessing mode 'l2'"),
            ("gadget", lambda g: None, "needs its on-off gadget"),
            ("schema", lambda schema: "latgad-cvpp-prep-v1", "expected schema latgad-cvpp-prep-v2"),
        ],
    )
    def test_header_must_match_basis(self, field, edit, message):
        # the header generates the basis, so it must describe one that exists
        g = gadgets.find_isolating_parallelepiped(2, 2.5)
        d = json.loads(serialize.dumps(serialize.cvpp_to_json(reductions.cvpp_preprocess(3, 1, gadgets.to_on_off(g)))))
        d[field] = edit(d[field])
        with pytest.raises(InvalidInputError, match=message):
            serialize.cvpp_from_json(d)

    @pytest.mark.parametrize("n, message", [(400, "basis of 319600x400 entries"), (10**6, "more than 1000000x1000000")])
    def test_size_cap_before_any_text(self, n, message, monkeypatch):
        monkeypatch.setattr(serialize, "_basis_text", lambda art: pytest.fail("built the basis text"))
        d = serialize.cvpp_to_json(reductions.cvpp_preprocess(4, 2, None))
        d["n"] = n
        with pytest.raises(ResourceLimitError, match=message):
            serialize.cvpp_from_json(d)
