import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from latgad import cli, gadgets, reductions, serialize
from latgad.cli import dispatch
from latgad.errors import InvalidInputError, NumericDegeneracyError


def run(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(out):
    return json.loads(out)


class TestGadgetCommands:
    def test_find_writes_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        code, _, err = run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(path)], capsys)
        assert code == 0
        data = json.loads(path.read_text())
        assert data["schema"] == "latgad-gadget-v1"
        assert "eps" in err

    def test_even_p_is_usage_error(self, capsys):
        code, _, err = run(["gadget", "find", "--k", "3", "--p", "2"], capsys)
        assert code == 2
        assert "even" in err

    def test_verify_found_gadget(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert run(["gadget", "find", "--k", "2", "--p", "1.5", "--out", str(path)], capsys)[0] == 0
        code, out, _ = run(["gadget", "verify", "--in", str(path)], capsys)
        assert code == 0
        assert out_json(out)["passed"] is True

    def test_parity_lattice_verify_chain(self, tmp_path, capsys):
        g = tmp_path / "p.json"
        lat = tmp_path / "lat.json"
        assert run(["gadget", "parity", "--k", "3", "--p", "1", "--bit", "1", "--out", str(g)], capsys)[0] == 0
        assert run(["gadget", "lattice", "--in", str(g), "--out", str(lat)], capsys)[0] == 0
        code, out, _ = run(["gadget", "verify", "--in", str(lat)], capsys)
        assert code == 0
        report = out_json(out)
        assert report["passed"] is True
        assert any(c["name"] == "non-boolean-points-far" for c in report["conditions"])

    def test_onoff_conversion(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        oo = tmp_path / "oo.json"
        assert run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(g)], capsys)[0] == 0
        assert run(["gadget", "onoff", "--in", str(g), "--out", str(oo)], capsys)[0] == 0
        data = json.loads(oo.read_text())
        assert data["schema"] == "latgad-onoff-v1"
        assert data["k"] == 2

    def test_byte_stable_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(a)], capsys)
        run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestReduceAndOracle:
    @pytest.fixture()
    def cnf(self, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 4 4\n1 2 3 0\n-1 2 -4 0\n-2 3 4 0\n1 -3 4 0\n")
        return path

    def test_sat_reduce_solve_validate(self, tmp_path, capsys, cnf):
        g = tmp_path / "g.json"
        inst = tmp_path / "inst.json"
        assert run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(g)], capsys)[0] == 0
        code, _, err = run(
            ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(inst)], capsys
        )
        assert code == 0 and "instance" in err
        code, out, _ = run(["oracle", "solve", str(inst), "--box", "0..1"], capsys)
        assert code == 0
        assert out_json(out)["within_radius"] is True  # the formula is satisfiable
        code, out, _ = run(
            ["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst), "--box=-1..2"], capsys
        )
        assert code == 0
        assert out_json(out)["passed"] is True

    @pytest.mark.parametrize("kind", ["parity", "parity-lattice", "isolating", "isolating-lattice"])
    def test_sat_reduction_needs_the_clause_level(self, tmp_path, capsys, cnf, kind):
        # a parity gadget's close level is not the clause's: reduce sat exits
        # 2 on it and its lattice; the isolating gadget and its lattice reduce
        # and validate
        g, lat, inst = tmp_path / "g.json", tmp_path / "lat.json", tmp_path / "inst.json"
        build = ["parity", "--k", "3", "--p", "1"] if kind.startswith("parity") else ["find", "--k", "3", "--p", "3"]
        assert run(["gadget", *build, "--out", str(g)], capsys)[0] == 0
        if kind.endswith("lattice"):
            assert run(["gadget", "lattice", "--in", str(g), "--out", str(lat)], capsys)[0] == 0
            g = lat
        code, _, err = run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(inst)], capsys)
        if kind.startswith("parity"):
            assert code == 2 and "plain clause" in err and not inst.exists()
            return
        assert code == 0
        code, out, _ = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)], capsys)
        assert code == 0 and out_json(out)["passed"] is True

    def test_oracle_honours_tolerance(self, tmp_path, capsys):
        # every sign pattern on three variables: unsatisfiable, so the closest
        # boolean point lies beyond the radius, but within 1.5 times it
        cnf = tmp_path / "u.cnf"
        clauses = [f"{a} {b} {c} 0\n" for a in (1, -1) for b in (2, -2) for c in (3, -3)]
        cnf.write_text("p cnf 3 8\n" + "".join(clauses))
        g = tmp_path / "g.json"
        inst = tmp_path / "inst.json"
        assert run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(g)], capsys)[0] == 0
        assert run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(inst)], capsys)[0] == 0
        code, out, _ = run(["oracle", "solve", str(inst)], capsys)
        assert code == 0 and out_json(out)["within_radius"] is False
        code, out, _ = run(["--tol-rel", "0.5", "oracle", "solve", str(inst)], capsys)
        assert code == 0 and out_json(out)["within_radius"] is True
        validate = ["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)]
        code, out, _ = run(["--tol-rel", "0.5", "--tol-abs", "1e-6", *validate], capsys)
        assert out_json(out)["tol"] == {"rel": 0.5, "abs": 1e-6}
        assert code == 1  # the loose tolerance puts the unsatisfiable formula within the radius
        assert run(validate, capsys)[0] == 0

    def test_cnf_comment_mentioning_xor(self, tmp_path, capsys):
        cnf = tmp_path / "c.cnf"
        cnf.write_text("c not a p xor file\np cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
        g = tmp_path / "g.json"
        inst = tmp_path / "inst.json"
        assert run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(g)], capsys)[0] == 0
        assert run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(inst)], capsys)[0] == 0
        code, out, _ = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)], capsys)
        assert code == 0
        assert out_json(out)["passed"] is True

    def test_sat_gap_mode(self, tmp_path, capsys, cnf):
        g = tmp_path / "g.json"
        inst = tmp_path / "inst.json"
        run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(g)], capsys)
        code, _, err = run(
            [
                "reduce", "sat", "--cnf", str(cnf), "--gadget", str(g),
                "--mode", "gap", "--s", "0.9", "--c", "1.0", "--out", str(inst),
            ],
            capsys,
        )
        assert code == 0 and "gamma" in err
        data = json.loads(inst.read_text())
        assert data["meta"]["mode"] == "gap"
        code, out, _ = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)], capsys)
        assert code == 0 and out_json(out)["passed"] is True

    def test_parity_gap_reduce(self, tmp_path, capsys):
        xor = tmp_path / "f.xor"
        xor.write_text("p xor 4 3\n3 1 2 3 1\n3 2 3 4 0\n3 1 3 4 1\n")
        inst = tmp_path / "inst.json"
        code, _, err = run(
            ["reduce", "parity", "--xor", str(xor), "--p", "1", "--s", "0.6", "--c", "1.0", "--out", str(inst)],
            capsys,
        )
        assert code == 0 and "gamma" in err
        code, out, _ = run(["oracle", "validate", "--cnf", str(xor), "--instance", str(inst)], capsys)
        assert code == 0
        assert out_json(out)["passed"] is True

    def test_params_gap(self, capsys):
        code, out, _ = run(
            ["params", "gap", "--p", "1", "--k", "3", "--s", "0.9", "--c", "1.0"], capsys
        )
        assert code == 0
        payload = out_json(out)
        assert payload["s_prime"].startswith("0.5142857142857142")
        assert float(payload["gamma_bound"]) > 1.0


class TestCvppCommands:
    def test_prep_query_cycle(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        prep = tmp_path / "prep.json"
        inst = tmp_path / "q.json"
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 4 2\n1 2 0\n-3 4 0\n")
        assert run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(g)], capsys)[0] == 0
        code, _, err = run(
            ["cvpp", "prep", "--n", "4", "--k", "2", "--gadget", str(g), "--out", str(prep)], capsys
        )
        assert code == 0 and "24 clause blocks" in err
        code, _, _ = run(
            ["cvpp", "query", "--prep", str(prep), "--cnf", str(cnf), "--out", str(inst)], capsys
        )
        assert code == 0
        code, out, _ = run(["oracle", "solve", str(inst), "--box", "0..1"], capsys)
        assert code == 0
        assert out_json(out)["within_radius"] is True
        code, out, _ = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)], capsys)
        assert code == 0
        assert out_json(out)["passed"] is True

    def test_inf_prep_query(self, tmp_path, capsys):
        prep = tmp_path / "prep.json"
        inst = tmp_path / "q.json"
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 4 2\n1 2 3 0\n-1 -2 -3 0\n")
        assert run(["cvpp", "inf-prep", "--n", "4", "--k", "3", "--out", str(prep)], capsys)[0] == 0
        assert run(
            ["cvpp", "query", "--prep", str(prep), "--cnf", str(cnf), "--out", str(inst)], capsys
        )[0] == 0
        data = json.loads(inst.read_text())
        assert data["p"] == "inf"
        assert data["meta"]["mode"] == "cvpp-inf"
        assert float(data["radius"]) == 1.5
        code, out, _ = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)], capsys)
        assert code == 0
        assert out_json(out)["passed"] is True


def float_path_bytes(query_text: str, prep_doc: dict) -> str:
    """The query artifact with the basis formatted from the float basis that
    cvpp_preprocess builds for the prep, then json.dumps."""
    n, k = int(prep_doc["n"]), int(prep_doc["k"])
    onoff = serialize.onoff_from_json(prep_doc["gadget"]) if prep_doc["mode"] == "lp" else None
    art = reductions.cvpp_preprocess(n, k, onoff)
    doc = json.loads(query_text)
    doc["basis"] = serialize.fmt_columns(art.basis)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# non-canonical spellings of the values an on-off gadget holds
RESPELL = {"0": "0.0", "-0": "-0e0", "1": "1.0", "-1": "-1e0"}


def respelled(value):
    """value with every canonical spelling in RESPELL replaced."""
    if isinstance(value, list):
        return [respelled(v) for v in value]
    return RESPELL.get(value, value)


class TestCvppQueryBytes:
    @pytest.fixture()
    def preps(self, tmp_path, capsys):
        """Preps by (n, k): lp at n=4, k=2 and, as the cvpp-serve
        benchmark uses, n=10, k=3; inf at n=4, k=3."""
        g, g4 = tmp_path / "g.json", tmp_path / "g4.json"
        prep, prep10, iprep = tmp_path / "prep.json", tmp_path / "prep10.json", tmp_path / "iprep.json"
        assert run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(g)], capsys)[0] == 0
        assert run(["gadget", "find", "--k", "4", "--p", "3", "--out", str(g4)], capsys)[0] == 0
        assert run(["cvpp", "prep", "--n", "4", "--k", "2", "--gadget", str(g), "--out", str(prep)], capsys)[0] == 0
        assert run(["cvpp", "prep", "--n", "10", "--k", "3", "--gadget", str(g4), "--out", str(prep10)], capsys)[0] == 0
        assert run(["cvpp", "inf-prep", "--n", "4", "--k", "3", "--out", str(iprep)], capsys)[0] == 0
        return {(4, 2): prep, (10, 3): prep10, (4, 3): iprep}

    @pytest.mark.parametrize("respell", [False, True])
    @pytest.mark.parametrize(
        "action, cnf",
        [
            ("query", "p cnf 4 2\n1 2 0\n-3 4 0\n"),
            ("query", "p cnf 4 3\n1 -2 0\n-1 2 0\n3 4 0\n"),
            ("query", "p cnf 4 2\n1 2 3 0\n-1 -2 -3 0\n"),
            ("query", "p cnf 4 1\n-2 3 -4 0\n"),
            ("query", "p cnf 10 4\n1 2 3 0\n-4 5 -6 0\n-7 -8 -9 0\n2 -5 10 0\n"),
        ],
    )
    def test_matches_parse_and_format(self, tmp_path, capsys, preps, action, cnf, respell):
        # the prep whose n is the formula's and whose k is its clause width
        prep = preps[int(cnf.split()[2]), len(cnf.splitlines()[1].split()) - 1]
        prep_doc = json.loads(prep.read_text())
        if respell:
            # the gadget's entries respelled, the document indented: the
            # query reads values, so its bytes do not move
            if prep_doc["mode"] == "lp":
                gadget = prep_doc["gadget"]
                for key in ("V", "t_on", "t_off"):
                    gadget[key] = respelled(gadget[key])
                assert gadget != json.loads(prep.read_text())["gadget"]
            prep.write_text(json.dumps(prep_doc, indent=1))
        f, q = tmp_path / "f.cnf", tmp_path / "q.json"
        f.write_text(cnf)
        assert run(["cvpp", action, "--prep", str(prep), "--cnf", str(f), "--out", str(q)], capsys)[0] == 0
        assert q.read_text() == float_path_bytes(q.read_text(), prep_doc)

    def test_no_float_basis(self, tmp_path, capsys, preps, monkeypatch):
        # the prep's on-off gadget is parsed; the basis is written as text
        shapes = []
        parse_columns = serialize.parse_columns

        def spy(cols):
            M = parse_columns(cols)
            shapes.append(M.shape)
            return M

        monkeypatch.setattr(serialize, "parse_columns", spy)
        monkeypatch.setattr(serialize, "fmt_columns", lambda M: pytest.fail("formatted a matrix"))
        f, q = tmp_path / "f.cnf", tmp_path / "q.json"
        f.write_text("p cnf 4 1\n1 2 0\n")
        assert run(["cvpp", "query", "--prep", str(preps[4, 2]), "--cnf", str(f), "--out", str(q)], capsys)[0] == 0
        assert shapes == [(8, 2)]

    def test_prep_builds_no_basis(self, tmp_path, capsys, monkeypatch):
        # a prep file holds the header alone: both preps write the bytes of
        # the full preprocessing without building its float basis
        g = tmp_path / "g.json"
        assert run(["gadget", "find", "--k", "4", "--p", "3", "--out", str(g)], capsys)[0] == 0
        onoff = gadgets.to_on_off(serialize.gadget_from_json(json.loads(g.read_text())))
        cases = [
            (
                ["cvpp", "prep", "--n", "10", "--k", "3", "--gadget", str(g)],
                reductions.cvpp_preprocess(10, 3, onoff),
                "prep basis 11530x10, 960 clause blocks\n",
            ),
            (
                ["cvpp", "inf-prep", "--n", "4", "--k", "3"],
                reductions.cvpp_preprocess(4, 3, None),
                "prep basis 36x4, 32 clause blocks\n",
            ),
        ]
        monkeypatch.setattr(reductions, "_with_basis", lambda art: pytest.fail("built the float basis"))
        for i, (argv, art, log) in enumerate(cases):
            path = tmp_path / f"prep{i}.json"
            code, _, err = run([*argv, "--out", str(path)], capsys)
            assert code == 0
            assert path.read_text() == "".join(serialize.dump_chunks(serialize.cvpp_to_json(art)))
            assert err == log


# prep edits that a query refuses: (edit of the prep document, exit code,
# message on stderr)
BAD_PREPS = [
    (lambda d: d.update(schema="latgad-cvpp-prep-v1", block_rows=8, basis=[["0"] * 99] * 3), 2,
     "expected schema latgad-cvpp-prep-v2, got 'latgad-cvpp-prep-v1'"),
    (lambda d: d.update(k=4), 2, "need 1 <= k <= n, got n=3, k=4"),
    (lambda d: d.update(k=1), 2, "gadget arity 2 does not match k=1"),
    (lambda d: d.update(mode="l2"), 2, "unknown preprocessing mode 'l2'"),
    (lambda d: d.pop("gadget"), 2, "lp preprocessing needs its on-off gadget"),
    (lambda d: d.update(mode="inf"), 2, "inf preprocessing takes no gadget"),
    (lambda d: d.update(n=200), 3, "basis of 398200x200 entries exceeds cap"),
    (lambda d: d.update(n=4.9), 2, "bad integer 4.9"),
    (lambda d: d.update(n=True), 2, "bad integer True"),
    (lambda d: d.update(k=2.5), 2, "bad integer 2.5"),
    (lambda d: d.update(k=True), 2, "bad integer True"),
    (lambda d: d["gadget"].update(k=2.5), 2, "bad integer 2.5"),
    (lambda d: d["gadget"].update(V=[["0"] * 8] * 2, t_on=["0"] * 8, t_off=["-0"] * 8), 2,
     "on-off gadget has no nonzero row"),
    (lambda d: d["gadget"].update(V=[[], []], t_on=[], t_off=[]), 2, "on-off gadget has no nonzero row"),
]
BAD_PREP_IDS = [
    "v1-prep", "k-above-n", "gadget-arity", "unknown-mode", "lp-without-gadget", "inf-with-gadget", "over-cap",
    "n-fractional", "n-boolean", "k-fractional", "k-boolean", "gadget-k-fractional", "zero-gadget",
    "empty-gadget",
]


class TestPrepCache:
    """A process keeps the last prep it loaded, keyed on the file's text."""

    @pytest.fixture()
    def files(self, tmp_path, capsys):
        """Prep texts by name, all at n=4 (lp at k=2 from the p=3 and p=5
        gadgets, inf at k=3), and a query formula for each."""
        preps = {}
        for p in ("3", "5"):
            g = tmp_path / f"g{p}.json"
            assert run(["gadget", "find", "--k", "3", "--p", p, "--out", str(g)], capsys)[0] == 0
            out = tmp_path / f"lp{p}.json"
            assert run(["cvpp", "prep", "--n", "4", "--k", "2", "--gadget", str(g), "--out", str(out)], capsys)[0] == 0
            preps[f"lp{p}"] = out.read_text()
        out = tmp_path / "inf.json"
        assert run(["cvpp", "inf-prep", "--n", "4", "--k", "3", "--out", str(out)], capsys)[0] == 0
        preps["inf"] = out.read_text()
        lp, inf = tmp_path / "lp.cnf", tmp_path / "inf.cnf"
        lp.write_text("p cnf 4 3\n1 -2 0\n-1 2 0\n3 4 0\n")
        inf.write_text("p cnf 4 2\n1 2 3 0\n-1 -2 -4 0\n")
        return preps, {"lp3": lp, "lp5": lp, "inf": inf}

    @staticmethod
    def query(tmp_path, capsys, prep, cnf) -> tuple[int, str, str]:
        """(exit code, stderr, --out text) of a query on the prep file prep."""
        out = tmp_path / "q.json"
        out.unlink(missing_ok=True)
        code, _, err = run(["cvpp", "query", "--prep", str(prep), "--cnf", str(cnf), "--out", str(out)], capsys)
        return code, err, out.read_text() if out.exists() else None

    def cold(self, tmp_path, capsys, preps, cnfs, name) -> str:
        """The --out text of a query on prep `name` with an empty cache."""
        path = tmp_path / f"cold-{name}.json"
        path.write_text(preps[name])
        cli._prep_texts.cache_clear()
        code, _, text = self.query(tmp_path, capsys, path, cnfs[name])
        assert code == 0
        return text

    def test_preps_in_turn_match_cold_runs(self, tmp_path, capsys, files):
        preps, cnfs = files
        cold = {name: self.cold(tmp_path, capsys, preps, cnfs, name) for name in preps}
        assert len(set(cold.values())) == 3
        cli._prep_texts.cache_clear()
        for name in ["lp3", "lp3", "inf", "lp5", "lp3", "inf", "inf", "lp5"]:
            path = tmp_path / f"{name}.json"
            assert self.query(tmp_path, capsys, path, cnfs[name]) == (0, "", cold[name])

    def test_prep_rewritten_in_place(self, tmp_path, capsys, files):
        # same path and modification time, new text: the new prep's bytes
        preps, cnfs = files
        cold = {name: self.cold(tmp_path, capsys, preps, cnfs, name) for name in ("lp3", "lp5")}
        assert cold["lp3"] != cold["lp5"]
        path = tmp_path / "prep.json"
        path.write_text(preps["lp3"])
        assert self.query(tmp_path, capsys, path, cnfs["lp3"]) == (0, "", cold["lp3"])
        stat = os.stat(path)
        path.write_text(preps["lp5"])
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert self.query(tmp_path, capsys, path, cnfs["lp5"]) == (0, "", cold["lp5"])
        path.write_text(preps["lp3"])
        assert self.query(tmp_path, capsys, path, cnfs["lp3"]) == (0, "", cold["lp3"])

    @pytest.mark.parametrize("edit, code, message", BAD_PREPS, ids=BAD_PREP_IDS)
    def test_refusals_are_not_cached(self, tmp_path, capsys, monkeypatch, edit, code, message):
        # an n=3, k=2 prep, as query_edited_prep builds
        g, good, bad, cnf = (tmp_path / name for name in ("g.json", "good.json", "bad.json", "f.cnf"))
        run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(g)], capsys)
        run(["cvpp", "prep", "--n", "3", "--k", "2", "--gadget", str(g), "--out", str(good)], capsys)
        data = json.loads(good.read_text())
        edit(data)
        bad.write_text(json.dumps(data))
        cnf.write_text("p cnf 3 2\n1 2 0\n-2 3 0\n")
        want = self.query(tmp_path, capsys, good, cnf)
        assert want[0] == 0
        parse, parsed = serialize.cvpp_from_json, []
        monkeypatch.setattr(serialize, "cvpp_from_json", lambda d: parsed.append(d) or parse(d))
        for prep in (bad, bad, good, bad):
            got, err, text = self.query(tmp_path, capsys, prep, cnf)
            if prep == good:
                assert (got, err, text) == want
            else:
                assert got == code and message in err and text is None
        # each refused prep is parsed again, and none evicts the good one
        assert len(parsed) == 3

    def test_warm_query_parses_no_prep(self, tmp_path, capsys, files, monkeypatch):
        preps, cnfs = files
        path = tmp_path / "lp3.json"
        want = self.query(tmp_path, capsys, path, cnfs["lp3"])
        assert want[0] == 0
        monkeypatch.setattr(serialize, "cvpp_from_json", lambda d: pytest.fail("parsed the prep again"))
        assert self.query(tmp_path, capsys, path, cnfs["lp3"]) == want

    def test_cached_arrays_are_read_only(self, tmp_path, capsys, monkeypatch, files):
        preps, cnfs = files
        parse, parsed = serialize.cvpp_from_json, []
        monkeypatch.setattr(serialize, "cvpp_from_json", lambda d: parsed.append(d) or parse(d))
        for name in preps:
            path = tmp_path / f"{name}.json"
            assert self.query(tmp_path, capsys, path, cnfs[name])[0] == 0
            decoded = len(parsed)
            art, _, (blocks, _) = cli._prep_texts(preps[name])
            assert len(parsed) == decoded
            arrays = [art.block_columns, art.off_on, blocks]
            if art.gadget is not None:
                arrays += [art.gadget.V, art.gadget.t_on, art.gadget.t_off]
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = a[(0,) * a.ndim]


def gadget_edit(change):
    """The text edit that applies change(document) to a gadget's JSON."""

    def edit(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)

    return edit


# gadget edits that every reading command refuses with exit 2: (edit of the
# gadget's text, message on stderr)
BAD_GADGETS = [
    (lambda text: text[: len(text) // 2], "is not a JSON artifact"),
    (gadget_edit(lambda d: d.update(schema="latgad-gadget-v0")), "expected schema latgad-gadget-v1"),
    (gadget_edit(lambda d: d.pop("t")), "'t'"),
    (gadget_edit(lambda d: d["V"][0].pop()), "differ in length"),
    (gadget_edit(lambda d: d["t"].pop()), "gadget shape mismatch"),
    (gadget_edit(lambda d: d.update(kind="cube")), "unknown gadget kind 'cube'"),
    (gadget_edit(lambda d: d.update(kind="two-level", constraint={"type": "parity", "bit": 5})), "usage error"),
]
BAD_GADGET_IDS = ["not-json", "old-schema", "no-target", "ragged", "short-target", "unknown-kind", "bad-constraint"]


class TestGadgetCache:
    """A process keeps the last gadget it read, keyed on the file's text."""

    CNF = "p cnf 4 4\n1 2 3 0\n-1 2 -4 0\n-2 3 4 0\n1 -3 4 0\n"

    @pytest.fixture()
    def files(self, tmp_path, capsys):
        """Gadget texts by name (the k=3 isolating gadgets at p=3 and p=5, and
        the k=3 parity lattice at p=1) and a formula that uses every
        variable."""
        texts = {}
        for p in ("3", "5"):
            g = tmp_path / f"g{p}.json"
            assert run(["gadget", "find", "--k", "3", "--p", p, "--out", str(g)], capsys)[0] == 0
            texts[f"g{p}"] = g.read_text()
        par, lat = tmp_path / "par.json", tmp_path / "lat.json"
        assert run(["gadget", "parity", "--k", "3", "--p", "1", "--bit", "1", "--out", str(par)], capsys)[0] == 0
        assert run(["gadget", "lattice", "--in", str(par), "--out", str(lat)], capsys)[0] == 0
        texts["lat"] = lat.read_text()
        cnf = tmp_path / "f.cnf"
        cnf.write_text(self.CNF)
        return texts, cnf

    @staticmethod
    def commands(gadget, cnf) -> list[list[str]]:
        """Every command that reads a gadget, each without its --out."""
        sat = ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(gadget)]
        return [
            ["gadget", "verify", "--in", str(gadget)],
            ["gadget", "onoff", "--in", str(gadget)],
            ["gadget", "lattice", "--in", str(gadget)],
            sat,
            [*sat, "--mode", "gap", "--s", "0.6", "--c", "0.9"],
            ["cvpp", "prep", "--n", "4", "--k", "2", "--gadget", str(gadget)],
        ]

    @staticmethod
    def outcome(tmp_path, capsys, argv) -> tuple:
        """(exit code, stdout, stderr) of argv, and its --out text (None when
        it writes none); verify takes no --out."""
        out = tmp_path / "out.json"
        out.unlink(missing_ok=True)
        if argv[:2] != ["gadget", "verify"]:
            argv = [*argv, "--out", str(out)]
        return (*run(argv, capsys), out.read_text() if out.exists() else None)

    @staticmethod
    def decodes(monkeypatch) -> list:
        """The documents that serialize.gadget_from_json decodes from now on."""
        parse, parsed = serialize.gadget_from_json, []
        monkeypatch.setattr(serialize, "gadget_from_json", lambda d: parsed.append(d) or parse(d))
        return parsed

    def test_warm_runs_match_cold_runs(self, tmp_path, capsys, files):
        texts, cnf = files
        cold = {}
        for name, text in texts.items():
            path = tmp_path / f"cold-{name}.json"
            path.write_text(text)
            for i, argv in enumerate(self.commands(path, cnf)):
                cli._gadget_text.cache_clear()
                cold[name, i] = self.outcome(tmp_path, capsys, argv)
        # the lattice is no isolating parallelepiped, so it has no on-off
        # gadget and no prep, and its parity level is not the clause's, so
        # reduce sat refuses it; every other command writes its own bytes
        passed = [c[1] + (c[3] or "") for c in cold.values() if c[0] == 0]
        assert len(set(passed)) == len(passed) == len(cold) - 3
        cli._gadget_text.cache_clear()
        for name in ["g3", "g3", "lat", "g5", "g3", "lat", "lat", "g5"]:
            for i, argv in enumerate(self.commands(tmp_path / f"{name}.json", cnf)):
                assert self.outcome(tmp_path, capsys, argv) == cold[name, i], (name, argv)

    def test_gadget_rewritten_in_place(self, tmp_path, capsys, files):
        # same path and modification time, new text: the new gadget's bytes
        texts, _ = files
        want = {name: self.outcome(tmp_path, capsys, ["gadget", "onoff", "--in", str(tmp_path / f"{name}.json")])
                for name in ("g3", "g5")}
        assert want["g3"] != want["g5"]
        path = tmp_path / "g.json"
        path.write_text(texts["g3"])
        onoff = ["gadget", "onoff", "--in", str(path)]
        assert self.outcome(tmp_path, capsys, onoff) == want["g3"]
        stat = os.stat(path)
        path.write_text(texts["g5"])
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert self.outcome(tmp_path, capsys, onoff) == want["g5"]
        path.write_text(texts["g3"])
        assert self.outcome(tmp_path, capsys, onoff) == want["g3"]

    @pytest.mark.parametrize("edit, message", BAD_GADGETS, ids=BAD_GADGET_IDS)
    def test_refusals_are_not_cached(self, tmp_path, capsys, monkeypatch, files, edit, message):
        texts, cnf = files
        good, bad = tmp_path / "g3.json", tmp_path / "bad.json"
        bad.write_text(edit(texts["g3"]))
        for argv in self.commands(bad, cnf):
            got = self.outcome(tmp_path, capsys, argv)
            assert got[0] == 2 and got[1] == "" and message in got[2] and got[3] is None, argv
        want = [self.outcome(tmp_path, capsys, argv) for argv in self.commands(good, cnf)]
        parse, parsed = serialize.gadget_from_json, []
        monkeypatch.setattr(serialize, "gadget_from_json", lambda d: parsed.append(d) or parse(d))
        for gadget in (bad, bad, good, bad):
            for i, argv in enumerate(self.commands(gadget, cnf)):
                got = self.outcome(tmp_path, capsys, argv)
                if gadget == good:
                    assert got == want[i]
                else:
                    assert got[0] == 2 and got[1] == "" and message in got[2] and got[3] is None, argv
        # each refused gadget that is JSON is parsed again, and none evicts
        # the good one; the good pass parses once, because its `gadget
        # lattice --out` puts the lattice in the cache and the `reduce sat`
        # after it reads the good gadget again
        assert len(parsed) == (0 if "JSON artifact" in message else 3 * len(want)) + 1

    def test_find_then_read_parses_nothing(self, tmp_path, capsys, files, monkeypatch):
        texts, cnf = files
        path = tmp_path / "g.json"
        want = [self.outcome(tmp_path, capsys, argv) for argv in self.commands(tmp_path / "g5.json", cnf)]
        cli._gadget_text.cache_clear()
        parsed = self.decodes(monkeypatch)
        for argv, expected in zip(self.commands(path, cnf), want):
            assert run(["gadget", "find", "--k", "3", "--p", "5", "--out", str(path)], capsys)[0] == 0
            assert path.read_text() == texts["g5"]
            assert self.outcome(tmp_path, capsys, argv) == expected, argv
        assert parsed == []

    @staticmethod
    def one_digit_changed(text: str) -> str:
        """A gadget text with one digit of V's first entry changed: same
        length, another gadget."""
        i = next(j for j in range(text.index('"V"'), len(text)) if text[j] in "12345678")
        return text[:i] + str(int(text[i]) + 1) + text[i + 1 :]

    def test_equal_text_in_a_new_object_hits(self, files, monkeypatch):
        texts, _ = files
        g = cli._gadget_text(texts["g3"])
        fresh = texts["g3"].encode().decode()
        assert fresh == texts["g3"] and fresh is not texts["g3"]
        parsed = self.decodes(monkeypatch)
        assert cli._gadget_text(fresh) is g
        assert parsed == []

    def test_text_of_equal_length_misses(self, files, monkeypatch):
        texts, _ = files
        g = cli._gadget_text(texts["g3"])
        edited = self.one_digit_changed(texts["g3"])
        assert len(edited) == len(texts["g3"]) and edited != texts["g3"]
        parsed = self.decodes(monkeypatch)
        assert cli._gadget_text(edited).V[0, 0] != g.V[0, 0]
        assert len(parsed) == 1

    def test_gadget_edited_after_find_is_read_again(self, tmp_path, capsys, files, monkeypatch):
        # same path, length and modification time: the edited gadget's report
        path, cold = tmp_path / "g.json", tmp_path / "cold.json"
        assert run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(path)], capsys)[0] == 0
        stat = os.stat(path)
        edited = self.one_digit_changed(path.read_text())
        path.write_text(edited)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        cold.write_text(edited)
        parsed = self.decodes(monkeypatch)
        got = run(["gadget", "verify", "--in", str(path)], capsys)
        assert len(parsed) == 1
        cli._gadget_text.cache_clear()
        assert got == run(["gadget", "verify", "--in", str(cold)], capsys)
        assert got != run(["gadget", "verify", "--in", str(tmp_path / "g3.json")], capsys)

    def test_find_to_stdout_caches_nothing(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.json"
        code, out, _ = run(["gadget", "find", "--k", "3", "--p", "3"], capsys)
        assert code == 0
        path.write_text(out)
        parsed = self.decodes(monkeypatch)
        assert run(["gadget", "verify", "--in", str(path)], capsys)[0] == 0
        assert len(parsed) == 1

    def test_parity_then_lattice_then_verify_parses_nothing(self, tmp_path, capsys, files, monkeypatch):
        texts, _ = files
        par, lat = tmp_path / "p.json", tmp_path / "l.json"
        cli._gadget_text.cache_clear()
        want = run(["gadget", "verify", "--in", str(tmp_path / "lat.json")], capsys)
        assert want[0] == 0
        parsed = self.decodes(monkeypatch)
        assert run(["gadget", "parity", "--k", "3", "--p", "1", "--bit", "1", "--out", str(par)], capsys)[0] == 0
        assert run(["gadget", "lattice", "--in", str(par), "--out", str(lat)], capsys)[0] == 0
        assert lat.read_text() == texts["lat"]
        assert run(["gadget", "verify", "--in", str(lat)], capsys) == want
        assert parsed == []

    def test_refused_read_keeps_the_written_gadget(self, tmp_path, capsys, files, monkeypatch):
        texts, _ = files
        path, bad = tmp_path / "g.json", tmp_path / "bad.json"
        bad.write_text(texts["g3"].replace("latgad-gadget-v1", "latgad-gadget-v0"))
        want = run(["gadget", "verify", "--in", str(tmp_path / "g5.json")], capsys)
        assert run(["gadget", "find", "--k", "3", "--p", "5", "--out", str(path)], capsys)[0] == 0
        parsed = self.decodes(monkeypatch)
        assert run(["gadget", "verify", "--in", str(bad)], capsys)[0] == 2
        assert run(["gadget", "verify", "--in", str(path)], capsys) == want
        assert len(parsed) == 1

    @staticmethod
    def assert_written_equals_read(path, parsed):
        """The gadget the cache holds after path was written is, in every
        field, the gadget that decoding path's text gives."""
        text = path.read_text()
        seeded = cli._gadget_text(text)
        assert parsed == [], f"{path} was decoded"
        cli._gadget_text.cache_clear()
        read = cli._gadget_text(text)
        parsed.clear()
        assert read.meta == seeded.meta == {}
        fields = ("p", "k", "eps", "kind", "constraint")
        assert [getattr(read, f) for f in fields] == [getattr(seeded, f) for f in fields]
        assert [type(getattr(read, f)) for f in fields] == [type(getattr(seeded, f)) for f in fields]
        for a, b in ((read.V, seeded.V), (read.t, seeded.t)):
            assert not a.flags.writeable and not b.flags.writeable
            assert (a.dtype, a.shape, a.strides, a.tobytes()) == (b.dtype, b.shape, b.strides, b.tobytes())

    # find on the 0.25 grid of p in [1, 12] and the lattice extension of each
    # gadget found, and the parity gadgets at p = 1, 1.5, 3 and 5, both bits
    @pytest.mark.parametrize("k", range(1, 11))
    def test_written_gadget_equals_its_read(self, tmp_path, capsys, monkeypatch, k):
        g, lat = tmp_path / "g.json", tmp_path / "lat.json"
        finds = [["gadget", "find", "--k", str(k), "--p", str(p)] for p in (1 + i / 4 for i in range(45))]
        parities = [
            ["gadget", "parity", "--k", str(k), "--p", str(p), "--bit", bit]
            for p in (1, 1.5, 3, 5) for bit in "01" if 3 <= k and p < k
        ]
        parsed, checked = self.decodes(monkeypatch), 0
        for argv in finds + parities:
            if run([*argv, "--out", str(g)], capsys)[0] != 0:
                continue  # an even p below k, or a failed shift search
            self.assert_written_equals_read(g, parsed)
            checked += 1
            if argv[1] == "find":
                assert run(["gadget", "lattice", "--in", str(g), "--out", str(lat)], capsys)[0] == 0
                self.assert_written_equals_read(lat, parsed)
                checked += 1
        assert checked >= 12

    def test_warm_onoff_parses_no_gadget(self, tmp_path, capsys, files, monkeypatch):
        path = tmp_path / "g3.json"
        want = self.outcome(tmp_path, capsys, ["gadget", "onoff", "--in", str(path)])
        assert want[0] == 0
        assert self.outcome(tmp_path, capsys, ["gadget", "verify", "--in", str(path)])[0] == 0
        monkeypatch.setattr(serialize, "gadget_from_json", lambda d: pytest.fail("parsed the gadget again"))
        assert self.outcome(tmp_path, capsys, ["gadget", "onoff", "--in", str(path)]) == want

    def test_cached_arrays_are_read_only(self, tmp_path, capsys, monkeypatch, files):
        texts, _ = files
        parsed = self.decodes(monkeypatch)
        for name, text in texts.items():
            assert run(["gadget", "verify", "--in", str(tmp_path / f"{name}.json")], capsys)[0] == 0
            decoded = len(parsed)
            g = cli._gadget_text(text)
            assert len(parsed) == decoded
            for a in (g.V, g.t):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = a[(0,) * a.ndim]


def clear_process_caches() -> None:
    for slot in cli._LastText.slots:
        slot.cache_clear()
    serialize._last_texts.clear()


class TestColumnTexts:
    """A process formats a column once: `gadget onoff` and `cvpp prep` reuse
    the texts of the gadget written before them, and write the bytes of a
    process that formats every column anew."""

    P_GRID = [str(1 + 0.25 * i) for i in range(45)]  # 1.0, 1.25, ..., 12.0

    @staticmethod
    def warm_and_cold(tmp_path, capsys, monkeypatch, steps, inputs=None) -> None:
        """Run each step in turn in one process, then each again after every
        process cache is cleared, in a directory of its own; a step is a
        list of argv run until one exits nonzero.  Exit codes, stdout and
        --out bytes must agree."""
        got = {}
        for side in ("warm", "cold"):
            d = tmp_path / side
            d.mkdir()
            for name, text in (inputs or {}).items():
                (d / name).write_text(text)
            monkeypatch.chdir(d)
            got[side] = []
            for step in steps:
                for argv in step:
                    if side == "cold":
                        clear_process_caches()
                    code, out, _ = run(argv, capsys)
                    got[side].append((argv, code, out))
                    if code:
                        break
            got[side].append({f.name: f.read_bytes() for f in d.iterdir()})
        assert got["warm"] == got["cold"]

    def test_onoff_after_find(self, tmp_path, capsys, monkeypatch):
        steps = [
            [
                ["gadget", "find", "--k", str(k), "--p", p, "--out", f"g{k}-{p}.json"],
                ["gadget", "onoff", "--in", f"g{k}-{p}.json", "--out", f"o{k}-{p}.json"],
            ]
            for k in range(2, 11)
            for p in self.P_GRID
        ]
        self.warm_and_cold(tmp_path, capsys, monkeypatch, steps)
        # the grid holds on-off gadgets of every arity
        arities = {f.name.split("-")[0] for f in (tmp_path / "warm").glob("o*.json")}
        assert arities == {f"o{k}" for k in range(2, 11)}

    def test_prep_and_queries_after_find(self, tmp_path, capsys, monkeypatch):
        # for each prep arity k, two k-clauses over n = k + 1 variables
        clauses = {k: [range(1, k + 1), range(-2, -k - 2, -1)] for k in (1, 2, 3)}
        inputs = {
            f"f{k}.cnf": f"p cnf {k + 1} 2\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in cs)
            for k, cs in clauses.items()
        }
        steps = []
        for k in (1, 2, 3):
            for p in self.P_GRID:
                g, prep, cnf = f"g{k}-{p}.json", f"prep{k}-{p}.json", f"f{k}.cnf"
                query = ["cvpp", "query", "--prep", prep, "--cnf", cnf]
                steps.append(
                    [
                        ["gadget", "find", "--k", str(k + 1), "--p", p, "--out", g],
                        ["cvpp", "prep", "--n", str(k + 1), "--k", str(k), "--gadget", g, "--out", prep],
                        [*query, "--out", f"q{k}-{p}.json"],
                        [*query, "--w", "1", "--out", f"qw{k}-{p}.json"],
                    ]
                )
        self.warm_and_cold(tmp_path, capsys, monkeypatch, steps, inputs)
        assert len(list((tmp_path / "warm").glob("qw*.json"))) > 3 * len(self.P_GRID) // 2

    def test_parity_gadgets_and_lattices(self, tmp_path, capsys, monkeypatch):
        # each parity gadget is written while the texts of the one before it
        # are kept: columns of equal length, told apart by their bits
        names = [(p, bit) for p in ("1", "1.5", "3", "5") for bit in ("0", "1")]
        steps = [
            [["gadget", "parity", "--k", "6", "--p", p, "--bit", bit, "--out", f"par{p}-{bit}.json"]]
            for p, bit in names
        ]
        steps += [
            [["gadget", "lattice", "--in", f"par{p}-{bit}.json", "--out", f"lat{p}-{bit}.json"]] for p, bit in names
        ]
        self.warm_and_cold(tmp_path, capsys, monkeypatch, steps)
        assert len(list((tmp_path / "warm").glob("lat*.json"))) == 8


class TestInstanceCache:
    """A process keeps the last instance and the last formula it read; the
    instance `reduce sat` or `reduce parity` writes goes straight in."""

    CNFS = {
        "mixed": "p cnf 4 4\n1 2 3 0\n-1 2 -4 0\n-2 3 4 0\n1 -3 4 0\n",
        "unsat": "p cnf 3 8\n" + "".join(f"{a} {b} {c} 0\n" for a in (1, -1) for b in (2, -2) for c in (3, -3)),
        "short": "c clauses of arity 1 to 3\np cnf 5 5\n1 0\n-2 3 0\n2 -4 5 0\n-1 -5 0\n3 4 -5 0\n",
        "weighted": "p wcnf 4 3\n2 1 -2 0\n1 2 3 4 0\n3 -1 -3 0\n",
    }
    XOR = "p xor 4 3\n3 1 2 3 1\n3 2 3 4 0\n3 1 3 4 1\n"
    GAP = ["--mode", "gap", "--s", "0.6", "--c", "0.9"]

    @pytest.fixture()
    def files(self, tmp_path, capsys):
        """The k=3 gadget at p=3, each formula of CNFS and XOR, by name."""
        paths = {"g": tmp_path / "g.json", "xor": tmp_path / "f.xor"}
        assert run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(paths["g"])], capsys)[0] == 0
        for name, text in self.CNFS.items():
            paths[name] = tmp_path / f"{name}.cnf"
            paths[name].write_text(text)
        paths["xor"].write_text(self.XOR)
        return paths

    def reductions(self, files, out) -> list[list[str]]:
        """reduce sat, padded over every CNF and gap over the unweighted
        ones, and reduce parity, each writing out."""
        sat = [["reduce", "sat", "--cnf", str(files[n]), "--gadget", str(files["g"])] for n in self.CNFS]
        gap = [[*argv, *self.GAP] for argv, n in zip(sat, self.CNFS) if n != "weighted"]
        parity = [["reduce", "parity", "--xor", str(files["xor"]), "--p", p, "--s", "0.6", "--c", "1.0"]
                  for p in ("1", "1.5")]
        return [[*argv, "--out", str(out)] for argv in sat + gap + parity]

    @staticmethod
    def readers(inst, formula) -> list[list[str]]:
        return [
            ["oracle", "validate", "--cnf", str(formula), "--instance", str(inst)],
            ["oracle", "solve", str(inst)],
            ["oracle", "solve", str(inst), "--box=-1..1"],
        ]

    @staticmethod
    def decodes(monkeypatch) -> list:
        """The documents that serialize.instance_from_json decodes from now on."""
        parse, parsed = serialize.instance_from_json, []
        monkeypatch.setattr(serialize, "instance_from_json", lambda d: parsed.append(d) or parse(d))
        return parsed

    @staticmethod
    def formula_of(argv) -> str:
        return argv[argv.index("--cnf" if "--cnf" in argv else "--xor") + 1]

    def test_written_instance_equals_its_read(self, tmp_path, capsys, monkeypatch, files):
        inst = tmp_path / "inst.json"
        parsed = self.decodes(monkeypatch)
        for argv in self.reductions(files, inst):
            assert run(argv, capsys)[0] == 0, argv
            text = inst.read_text()
            seeded = cli._instance_text(text)
            assert parsed == [], argv
            cli._instance_text.cache_clear()
            read = cli._instance_text(text)
            parsed.clear()
            assert (type(read.p), type(read.radius)) == (type(seeded.p), type(seeded.radius)) == (float, float)
            assert (read.p, read.radius) == (seeded.p, seeded.radius)
            assert list(read.meta) == list(seeded.meta) and read.meta == seeded.meta
            assert [type(v) for v in read.meta.values()] == [type(v) for v in seeded.meta.values()]
            for a, b in ((read.basis, seeded.basis), (read.target, seeded.target)):
                assert not a.flags.writeable and not b.flags.writeable
                assert a.flags.c_contiguous and b.flags.c_contiguous
                assert (a.dtype, a.shape, a.strides, a.tobytes()) == (b.dtype, b.shape, b.strides, b.tobytes())

    def test_reduce_then_read_decodes_nothing(self, tmp_path, capsys, monkeypatch, files):
        inst, cold = tmp_path / "inst.json", tmp_path / "cold.json"
        for argv in self.reductions(files, inst):
            assert run(argv, capsys)[0] == 0
            cold.write_text(inst.read_text())
            want = []
            for reader in self.readers(cold, self.formula_of(argv)):
                cli._instance_text.cache_clear()
                want.append(run(reader, capsys))
            assert run(argv, capsys)[0] == 0
            parsed = self.decodes(monkeypatch)
            assert [run(r, capsys) for r in self.readers(inst, self.formula_of(argv))] == want, argv
            assert parsed == []
            monkeypatch.undo()

    def test_instance_edited_between_steps_is_read_again(self, tmp_path, capsys, monkeypatch, files):
        # same path, length and modification time: the edited radius decides
        inst, cold = tmp_path / "inst.json", tmp_path / "cold.json"
        assert run(self.reductions(files, inst)[0], capsys)[0] == 0
        want = run(["oracle", "solve", str(inst)], capsys)
        text, stat = inst.read_text(), os.stat(inst)
        radius = json.loads(text)["radius"]
        edited = text.replace(f'"{radius}"', f'"{int(radius[0]) + 1}{radius[1:]}"')
        assert len(edited) == len(text) and edited != text
        inst.write_text(edited)
        os.utime(inst, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        cold.write_text(edited)
        parsed = self.decodes(monkeypatch)
        got = run(["oracle", "solve", str(inst)], capsys)
        assert len(parsed) == 1
        assert json.loads(got[1])["radius"] == json.loads(edited)["radius"] != radius
        cli._instance_text.cache_clear()
        assert got == run(["oracle", "solve", str(cold)], capsys) != want

    @pytest.mark.parametrize(
        "edit",
        [lambda d: d.update(radius="inf"), lambda d: d["basis"][0].__setitem__(0, "nan"), lambda d: d.pop("target")],
        ids=["radius-inf", "basis-nan", "no-target"],
    )
    def test_refused_instance_neither_enters_nor_evicts(self, tmp_path, capsys, monkeypatch, files, edit):
        inst, bad = tmp_path / "inst.json", tmp_path / "bad.json"
        sat = self.reductions(files, inst)[0]
        assert run(sat, capsys)[0] == 0
        doc = json.loads(inst.read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        want = run(["oracle", "solve", str(inst)], capsys)
        parsed = self.decodes(monkeypatch)
        for _ in range(2):
            code, out, err = run(["oracle", "solve", str(bad)], capsys)
            assert code == 2 and out == "" and "usage error" in err
        assert len(parsed) == 2
        assert run(["oracle", "solve", str(inst)], capsys) == want
        assert len(parsed) == 2

    def test_refused_read_back_seeds_nothing(self, tmp_path, capsys, monkeypatch, files):
        inst = tmp_path / "inst.json"
        sat = self.reductions(files, inst)[0]
        assert run(sat, capsys)[0] == 0
        text = inst.read_text()
        cli._instance_text.cache_clear()

        def refuse(inst):
            raise InvalidInputError("refused")

        monkeypatch.setattr(serialize, "instance_read_back", refuse)
        assert run(sat, capsys)[0] == 0
        assert inst.read_text() == text and cli._instance_text.text is None

    def test_shared_cnf_is_parsed_once(self, tmp_path, capsys, monkeypatch, files):
        inst = tmp_path / "inst.json"
        parse, parsed = cli.parse_dimacs, []
        monkeypatch.setattr(cli, "parse_dimacs", lambda text: parsed.append(text) or parse(text))
        for name in self.CNFS:
            sat = ["reduce", "sat", "--cnf", str(files[name]), "--gadget", str(files["g"]), "--out", str(inst)]
            assert run(sat, capsys)[0] == 0
            assert run(self.readers(inst, files[name])[0], capsys)[0] == 0
        assert parsed == list(self.CNFS.values())

    def test_cached_formula_keeps_each_command_format(self, tmp_path, capsys, files):
        # a formula cached by oracle validate is refused by a command that
        # reads the other format, with the message of a cold read
        inst, query = tmp_path / "inst.json", tmp_path / "q.json"
        xor, cnf = str(files["xor"]), str(files["mixed"])
        parity = ["reduce", "parity", "--xor", xor, "--p", "1", "--s", "0.6", "--c", "1.0", "--out", str(inst)]
        sat = ["reduce", "sat", "--cnf", xor, "--gadget", str(files["g"])]
        cold = run(sat, capsys)
        assert cold[0] == 2 and "unsupported problem line: 'p xor 4 3'" in cold[2]
        assert run(parity, capsys)[0] == 0
        assert run(self.readers(inst, xor)[0], capsys)[0] == 0
        assert cli._formula_text.text == self.XOR
        assert run(sat, capsys) == cold
        prep = tmp_path / "prep.json"
        assert run(["cvpp", "inf-prep", "--n", "4", "--k", "3", "--out", str(prep)], capsys)[0] == 0
        assert run(["cvpp", "query", "--prep", str(prep), "--cnf", xor, "--out", str(query)], capsys) == cold
        assert not query.exists()
        cli._formula_text.cache_clear()
        cold = run([*parity[:3], cnf, *parity[4:]], capsys)
        assert cold[0] == 2 and "unsupported problem line: 'p cnf 4 4'" in cold[2]
        assert run(["reduce", "sat", "--cnf", cnf, "--gadget", str(files["g"])], capsys)[0] == 0
        assert cli._formula_text.text == self.CNFS["mixed"]
        assert run([*parity[:3], cnf, *parity[4:]], capsys) == cold

    def test_refused_formula_neither_enters_nor_evicts(self, tmp_path, capsys, monkeypatch, files):
        inst, bad = tmp_path / "inst.json", tmp_path / "bad.cnf"
        bad.write_text("p cnf 4 2\n1 2 3 0\n")
        sat = ["reduce", "sat", "--cnf", str(files["mixed"]), "--gadget", str(files["g"]), "--out", str(inst)]
        assert run(sat, capsys)[0] == 0
        parse, parsed = cli.parse_dimacs, []
        monkeypatch.setattr(cli, "parse_dimacs", lambda text: parsed.append(text) or parse(text))
        for _ in range(2):
            code, _, err = run(["oracle", "validate", "--cnf", str(bad), "--instance", str(inst)], capsys)
            assert code == 2 and "declares 2 clauses, found 1" in err
        assert len(parsed) == 2
        assert run(self.readers(inst, files["mixed"])[0], capsys)[0] == 0
        assert len(parsed) == 2


def _set_entry(field):
    """An edit that sets field's first entry (of its first column, for a
    matrix) to a value."""

    def edit(doc, value):
        entries = doc[field][0] if isinstance(doc[field][0], list) else doc[field]
        entries[0] = value

    return edit


def _set_scalar(field):
    return lambda doc, value: doc.__setitem__(field, value)


def _set_meta(field):
    return lambda doc, value: doc["meta"].__setitem__(field, value)


NOT_FINITE = ("nan", "inf", "-inf")
NOT_POSITIVE = (*NOT_FINITE, "-1", "0")


class TestReaderDomain:
    """Each value outside a reader's domain, in each field that holds it,
    through every command that reads the field, exits 2 without a
    traceback."""

    GADGET_FIELDS = {"V": (_set_entry("V"), NOT_FINITE), "t": (_set_entry("t"), NOT_FINITE),
                     "eps": (_set_scalar("eps"), NOT_POSITIVE)}
    ONOFF_FIELDS = {"V": (_set_entry("V"), NOT_FINITE), "t_on": (_set_entry("t_on"), NOT_FINITE),
                    "t_off": (_set_entry("t_off"), NOT_FINITE), "eps": (_set_scalar("eps"), NOT_POSITIVE)}
    INSTANCE_FIELDS = {"basis": (_set_entry("basis"), NOT_FINITE), "target": (_set_entry("target"), NOT_FINITE),
                       "radius": (_set_scalar("radius"), NOT_POSITIVE)}
    # the gap instance holds s = 0.6 and c = 0.9
    GAP_META = {"gamma": (*NOT_FINITE, "-1", "0", "0.5"), "s": (*NOT_FINITE, "5", "0", "-0.5", "0.95"),
                "c": (*NOT_FINITE, "0", "1.5", "0.5")}
    META_CASES = [
        *[pytest.param("gap", f, v, id=f"gap-{f}-{v}") for f, vs in GAP_META.items() for v in vs],
        pytest.param("padded", "threshold", -5, id="padded-threshold--5"),
        pytest.param("padded", "threshold", "-1", id="padded-threshold--1"),
    ]

    @staticmethod
    def cases(fields: dict, artifacts) -> list:
        return [pytest.param(a, f, v, id=f"{a}-{f}-{v}") for a in artifacts for f, (_, vs) in fields.items() for v in vs]

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        """A k=3 gadget, a k=4 parity gadget and a lattice, an lp prep, a
        padded and a gap instance, and the formula they reduce, as texts."""
        d = tmp_path_factory.mktemp("domain")
        cnf = d / "f.cnf"
        cnf.write_text("p cnf 4 4\n1 2 3 0\n-1 2 -4 0\n-2 3 4 0\n1 -3 4 0\n")
        steps = [
            ["gadget", "find", "--k", "3", "--p", "3", "--out", str(d / "g3.json")],
            ["gadget", "parity", "--k", "4", "--p", "3", "--out", str(d / "parity.json")],
            ["gadget", "lattice", "--in", str(d / "g3.json"), "--out", str(d / "lattice.json")],
            ["cvpp", "prep", "--n", "4", "--k", "2", "--gadget", str(d / "g3.json"), "--out", str(d / "prep.json")],
            ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(d / "g3.json"), "--out", str(d / "padded.json")],
            ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(d / "g3.json"), "--mode", "gap",
             "--s", "0.6", "--c", "0.9", "--out", str(d / "gap.json")],
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stderr", io.StringIO())
            assert [dispatch(argv) for argv in steps] == [0] * len(steps)
        names = ("g3", "parity", "lattice", "prep", "padded", "gap")
        return {name: (d / f"{name}.json").read_text() for name in names}, cnf.read_text()

    @staticmethod
    def refused(tmp_path, capsys, text, edit, value, commands):
        doc = json.loads(text)
        edit(doc, value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for argv in commands(str(path)):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "" and "usage error" in err and "Traceback" not in err, (argv, err)
            assert not (tmp_path / "out.json").exists(), argv

    @pytest.mark.parametrize("artifact, field, value", cases(GADGET_FIELDS, ("g3", "parity", "lattice")))
    def test_gadget(self, tmp_path, capsys, artifacts, artifact, field, value):
        texts, formula = artifacts
        cnf, out = tmp_path / "f.cnf", str(tmp_path / "out.json")
        cnf.write_text(formula)

        def commands(path):
            sat = ["reduce", "sat", "--cnf", str(cnf), "--gadget", path, "--out", out]
            return [
                ["gadget", "verify", "--in", path],
                ["gadget", "onoff", "--in", path, "--out", out],
                ["gadget", "lattice", "--in", path, "--out", out],
                sat,
                [*sat, "--mode", "gap", "--s", "0.6", "--c", "0.9"],
                ["cvpp", "prep", "--n", "4", "--k", "2", "--gadget", path, "--out", out],
            ]

        self.refused(tmp_path, capsys, texts[artifact], self.GADGET_FIELDS[field][0], value, commands)

    @pytest.mark.parametrize("artifact, field, value", cases(ONOFF_FIELDS, ("prep",)))
    def test_onoff(self, tmp_path, capsys, artifacts, artifact, field, value):
        texts, formula = artifacts
        cnf, out = tmp_path / "f.cnf", str(tmp_path / "out.json")
        cnf.write_text(formula)
        edit = self.ONOFF_FIELDS[field][0]
        self.refused(tmp_path, capsys, texts[artifact], lambda doc, v: edit(doc["gadget"], v), value,
                     lambda path: [["cvpp", "query", "--prep", path, "--cnf", str(cnf), "--out", out]])

    @pytest.mark.parametrize("artifact, field, value", cases(INSTANCE_FIELDS, ("padded", "gap")))
    def test_instance(self, tmp_path, capsys, artifacts, artifact, field, value):
        texts, formula = artifacts
        cnf, out = tmp_path / "f.cnf", str(tmp_path / "out.json")
        cnf.write_text(formula)

        self.refused(tmp_path, capsys, texts[artifact], self.INSTANCE_FIELDS[field][0], value,
                     self.instance_commands(cnf, out))

    @pytest.mark.parametrize("artifact, field, value", META_CASES)
    def test_instance_meta(self, tmp_path, capsys, artifacts, artifact, field, value):
        texts, formula = artifacts
        cnf, out = tmp_path / "f.cnf", str(tmp_path / "out.json")
        cnf.write_text(formula)
        self.refused(tmp_path, capsys, texts[artifact], _set_meta(field), value, self.instance_commands(cnf, out))

    @staticmethod
    def instance_commands(cnf, out):
        return lambda path: [
            ["oracle", "solve", path, "--out", out],
            ["oracle", "solve", path, "--box=-1..1", "--out", out],
            ["oracle", "validate", "--cnf", str(cnf), "--instance", path],
        ]


class TestBatch:
    """`latgad batch` runs command lines through dispatch in one process."""

    LINES = [
        "# a gadget, its checks, a reduction and its validation",
        "gadget find --k 3 --p 3 --out g.json",
        "gadget verify --in g.json",
        "",
        "gadget onoff --in g.json --out o.json",
        "reduce sat --cnf 'my formula.cnf' --gadget g.json --out inst.json",
        "oracle validate --cnf 'my formula.cnf' --instance inst.json --box=-1..2",
        "oracle solve inst.json",
        "   # an indented comment",
        "reduce sat --cnf 'my formula.cnf' --gadget g.json --mode gap --s 0.6 --c 0.9 --out gap.json",
        "oracle validate --cnf 'my formula.cnf' --instance gap.json",
        "gadget find --k 3 --p 4 --out even.json",
        "oracle solve missing.json",
        "gadget find --k 3 --p 3 --nope 1",
        "identities cp-svp --grid 3:4:3",
        "cubes find --in points.txt --dim 2",
        "cvpp inf-prep --n 4 --k 3 --out prep.json",
        "cvpp query --prep prep.json --cnf 'my formula.cnf' --out q.json",
    ]
    CNF = "p cnf 4 4\n1 2 3 0\n-1 2 -4 0\n-2 3 4 0\n1 -3 4 0\n"

    @classmethod
    def inputs(cls, d: Path) -> None:
        d.mkdir()
        (d / "my formula.cnf").write_text(cls.CNF)
        (d / "points.txt").write_text("0\n1\n")  # no 2-dimensional cube

    @staticmethod
    def out_file(argv):
        return argv[argv.index("--out") + 1] if "--out" in argv else None

    def separate(self, tmp_path, capsys, monkeypatch, commands) -> list:
        """(exit code, stdout, --out bytes, stderr) of each command as its
        own dispatch call, in a directory of its own."""
        d = tmp_path / "separate"
        self.inputs(d)
        monkeypatch.chdir(d)
        got = []
        for argv in commands:
            code, out, err = run(argv, capsys)
            path = self.out_file(argv)
            got.append((code, out, Path(path).read_bytes() if path and os.path.exists(path) else None, err))
        return got

    def test_matches_separate_dispatch_calls(self, tmp_path, capsys, monkeypatch):
        commands = [shlex.split(ln) for ln in self.LINES if ln.strip() and not ln.lstrip().startswith("#")]
        want = self.separate(tmp_path, capsys, monkeypatch, commands)
        assert {w[0] for w in want} == {0, 1, 2}
        for slot in cli._LastText.slots:
            slot.cache_clear()
        d = tmp_path / "batch"
        self.inputs(d)
        (d / "lines.txt").write_text("\n".join(self.LINES) + "\n")
        monkeypatch.chdir(d)
        code, out, err = run(["batch", "--in", "lines.txt"], capsys)
        records = [json.loads(line) for line in out.splitlines()]
        assert code == max(w[0] for w in want) == 2
        assert [r["argv"] for r in records] == commands
        assert all(isinstance(r["seconds"], float) and r["seconds"] >= 0 for r in records)
        for r, (code, stdout, written, _) in zip(records, want):
            path = self.out_file(r["argv"])
            assert (r["exit_code"], r["stdout"]) == (code, stdout), r["argv"]
            assert (Path(path).read_bytes() if path and os.path.exists(path) else None) == written, r["argv"]
        assert err == "".join(w[3] for w in want)
        assert "io error: " in err and "unrecognized arguments: --nope" in err

    def test_reads_stdin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO("identities skp --k 3 --p 1\n\n# done\n"))
        code, out, _ = run(["batch"], capsys)
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and record["exit_code"] == 0
        assert record["argv"] == ["identities", "skp", "--k", "3", "--p", "1"]
        assert json.loads(record["stdout"])["sign"] == 1

    def test_empty_batch_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "lines.txt"
        path.write_text("# nothing to run\n\n")
        assert run(["batch", "--in", str(path)], capsys) == (0, "", "")

    @pytest.mark.parametrize(
        "line, message",
        [("oracle solve 'inst.json", "No closing quotation"), ("batch --in lines.txt", "a batch does not run batch")],
        ids=["unbalanced-quote", "nested-batch"],
    )
    def test_bad_line_runs_nothing(self, tmp_path, capsys, monkeypatch, line, message):
        monkeypatch.chdir(tmp_path)
        Path("lines.txt").write_text(f"gadget find --k 3 --p 3 --out g.json\n{line}\n")
        code, out, err = run(["batch", "--in", "lines.txt"], capsys)
        assert code == 2 and out == "" and f"batch line 2: {message}" in err
        assert not Path("g.json").exists()

    def test_process_streams_records_and_passes_stderr(self, tmp_path):
        lines = tmp_path / "lines.txt"
        lines.write_text(f"gadget find --k 3 --p 3 --out {tmp_path / 'g.json'}\ngadget verify --in {tmp_path / 'nope.json'}\n")
        proc = subprocess.run([sys.executable, "-m", "latgad.cli", "batch", "--in", str(lines)],
                              capture_output=True, text=True)
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert proc.returncode == 2 and [r["exit_code"] for r in records] == [0, 2]
        assert "gadget k=3 p=3.0" in proc.stderr and "io error" in proc.stderr


class TestBytesRead:
    """Every input file is read as bytes and decoded as UTF-8 in one call:
    CRLF line ends read as the LF original does, and bytes that are not
    UTF-8 text, or JSON, are refused with the messages a text-mode read
    gave."""

    CNF = "p cnf 6 5\n1 -2 3 0\n-1 4 5 0\n2 -4 6 0\n-3 -5 -6 0\n1 5 -6 0\n"

    @staticmethod
    def crlf(path: Path) -> Path:
        copy = path.with_name("crlf-" + path.name)
        copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        return copy

    @staticmethod
    def read(path: Path, slot):
        slot.cache_clear()
        return cli._decoded(str(path), slot)

    @pytest.fixture()
    def files(self, tmp_path, capsys):
        files = {name: tmp_path / name for name in ("g10.json", "g3.json", "f.cnf", "inst.json")}
        files["f.cnf"].write_text(self.CNF)
        assert run(["gadget", "find", "--k", "10", "--p", "3", "--out", str(files["g10.json"])], capsys)[0] == 0
        assert run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(files["g3.json"])], capsys)[0] == 0
        reduce = ["reduce", "sat", "--cnf", str(files["f.cnf"]), "--gadget", str(files["g3.json"]), "--out", str(files["inst.json"])]
        assert run(reduce, capsys)[0] == 0
        return files

    def test_crlf_artifacts_read_to_equal_arrays(self, capsys, files):
        g, inst, cnf = files["g10.json"], files["inst.json"], files["f.cnf"]
        assert b"\r\n" in self.crlf(g).read_bytes() and b"\r\n" in self.crlf(inst).read_bytes()
        for path, slot, fields in ((g, cli._gadget_text, ("V", "t")), (inst, cli._instance_text, ("basis", "target"))):
            a, b = self.read(path, slot), self.read(self.crlf(path), slot)
            for name in fields:
                x, y = getattr(a, name), getattr(b, name)
                assert (x.shape, x.tobytes()) == (y.shape, y.tobytes()), (path.name, name)
        for argv in (["gadget", "verify", "--in", "{g}"], ["oracle", "validate", "--cnf", str(cnf), "--instance", "{inst}"]):
            outs = []
            for gp, ip in ((g, inst), (self.crlf(g), self.crlf(inst))):
                for slot in cli._LastText.slots:
                    slot.cache_clear()
                code, out, err = run([a.format(g=gp, inst=ip) for a in argv], capsys)
                outs.append((code, out, err))
            assert outs[0] == outs[1] and outs[0][0] == 0, argv

    def test_crlf_dimacs_and_batch_parse_as_lf(self, tmp_path, capsys, monkeypatch, files):
        cnf, crlf = files["f.cnf"], self.crlf(files["f.cnf"])
        assert cli._read_formula(str(crlf)) == cli._read_formula(str(cnf))
        reduce = ["reduce", "sat", "--cnf", "{cnf}", "--gadget", str(files["g3.json"])]
        assert run([a.format(cnf=crlf) for a in reduce], capsys) == run([a.format(cnf=cnf) for a in reduce], capsys)
        monkeypatch.chdir(tmp_path)
        lines = tmp_path / "lines.txt"
        lines.write_text("# steps\ngadget find --k 3 --p 3 --out b.json\n\ngadget verify --in b.json\n"
                         f"oracle validate --cnf '{cnf}' --instance '{files['inst.json']}'\n")
        records = []
        for path in (lines, self.crlf(lines)):
            code, out, err = run(["batch", "--in", str(path)], capsys)
            got = [json.loads(line) for line in out.splitlines()]
            records.append((code, [{k: v for k, v in r.items() if k != "seconds"} for r in got], err))
        assert records[0] == records[1]
        assert [r["argv"][:2] for r in records[0][1]] == [["gadget", "find"], ["gadget", "verify"], ["oracle", "validate"]]

    def test_bom_and_invalid_bytes_keep_their_messages(self, tmp_path, capsys, files):
        data = files["g10.json"].read_bytes()
        bom, bad, cnf, bom_cnf = (tmp_path / n for n in ("bom.json", "bad.json", "bad.cnf", "bom.cnf"))
        bom.write_bytes(b"\xef\xbb\xbf" + data)
        bad.write_bytes(data[:100000] + b"\xff" + data[100000:])
        cnf.write_bytes(b"p cnf 4 2\n1 2 3 0\n-1 \xff 4 0\n")
        bom_cnf.write_bytes(b"\xef\xbb\xbf" + self.CNF.encode())
        assert run(["gadget", "verify", "--in", str(bom)], capsys) == (2, "", (
            f"usage error: {bom} is not a JSON artifact: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)\n"))
        assert run(["gadget", "verify", "--in", str(bad)], capsys) == (2, "", (
            f"usage error: {bad} is not a JSON artifact: 'utf-8' codec can't decode byte 0xff in position 100000: "
            "invalid start byte\n"))
        reduce = ["reduce", "sat", "--gadget", str(files["g3.json"]), "--cnf"]
        assert run([*reduce, str(cnf)], capsys) == (2, "", (
            f"usage error: {cnf} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 21: "
            "invalid start byte\n"))
        assert run([*reduce, str(bom_cnf)], capsys) == (2, "", "usage error: missing problem line\n")


def short_writev(limit: int):
    """os.writev that writes at most limit bytes of the first non-empty buffer."""

    def writev(fd, buffers):
        first = next((b for b in buffers if len(b)), b"")
        return os.write(fd, bytes(first[:limit]))

    return writev


class TestOutWriter:
    """Every --out file goes through `cli._write`: it holds the bytes the same
    command prints to stdout, whatever the caches hold and however short the
    writes."""

    INPUTS = {
        "f.cnf": "p cnf 4 3\n1 2 3 0\n-1 -2 4 0\n2 -3 -4 0\n",
        "f.xor": "p xor 4 3\n3 1 2 3 1\n3 2 3 4 0\n3 1 3 4 1\n",
        "cube.txt": "\n".join(format(x, "02x") for x in range(2**6)) + "\n",
        "set.txt": "\n".join(format(x, "01x") for x in range(8)) + "\n",
        "s.txt": "00\n01\n02\n03\n",
        "t.txt": "04\n05\n",
    }
    # (argv, --out file); a command may read the files written before it
    COMMANDS = [
        (["gadget", "find", "--k", "3", "--p", "3"], "g3.json"),
        (["gadget", "find", "--k", "4", "--p", "3"], "g4.json"),
        (["gadget", "parity", "--k", "3", "--p", "1.5", "--bit", "1"], "par.json"),
        (["gadget", "lattice", "--in", "par.json"], "lat.json"),
        (["gadget", "onoff", "--in", "g3.json"], "on.json"),
        (["reduce", "sat", "--cnf", "f.cnf", "--gadget", "g3.json"], "inst.json"),
        (["reduce", "sat", "--cnf", "f.cnf", "--gadget", "g3.json", "--mode", "gap", "--s", "0.6", "--c", "0.9"],
         "gap.json"),
        (["reduce", "parity", "--xor", "f.xor", "--p", "1", "--s", "0.6", "--c", "1.0"], "pinst.json"),
        (["params", "gap", "--p", "3", "--k", "4", "--s", "0.95", "--c", "0.99", "--eps", "0.25"], "params.json"),
        (["cvpp", "prep", "--n", "4", "--k", "3", "--gadget", "g4.json"], "prep.json"),
        (["cvpp", "inf-prep", "--n", "4", "--k", "3"], "iprep.json"),
        (["cvpp", "query", "--prep", "prep.json", "--cnf", "f.cnf"], "q.json"),
        (["cvpp", "query", "--prep", "prep.json", "--cnf", "f.cnf", "--w", "2"], "qw.json"),
        (["cvpp", "query", "--prep", "iprep.json", "--cnf", "f.cnf"], "iq.json"),
        (["oracle", "solve", "inst.json", "--box=-1..1"], "solve.json"),
        (["identities", "skp", "--k", "3", "--p", "1"], "skp.json"),
        (["identities", "integral", "--n", "2", "--m", "1", "--p", "1"], "integral.json"),
        (["identities", "bounds", "--k", "4", "--p", "1"], "bounds.json"),
        (["identities", "ramanujan", "--k", "10", "--x", "2.5"], "ramanujan.json"),
        (["identities", "cp-svp", "--p", "3"], "cp.json"),
        (["identities", "cp-svp", "--find-p0"], "p0.json"),
        (["identities", "cp-svp", "--grid", "2.5:4:4"], "cp.csv"),
        (["cubes", "find", "--in", "cube.txt", "--dim", "3"], "cube.json"),
        (["clauses", "isolate", "--in", "set.txt", "--k", "3"], "isolate.json"),
        (["clauses", "separate", "--s-in", "s.txt", "--t-in", "t.txt"], "separate.json"),
    ]

    @pytest.mark.parametrize("caches", ["cold", "warm", "short-writes"])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, monkeypatch, caches):
        for name, text in self.INPUTS.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        if caches == "short-writes":
            monkeypatch.setattr(os, "writev", short_writev(7))
        for argv, out in self.COMMANDS:
            if caches == "cold":
                clear_process_caches()
            code, stdout, _ = run(argv, capsys)
            if caches == "cold":
                clear_process_caches()
            assert run([*argv, "--out", out], capsys)[:2] == (code, ""), argv
            assert code == 0 and Path(out).read_bytes() == stdout.encode(), argv

    def test_more_buffers_than_one_writev_takes(self, tmp_path, monkeypatch):
        real, calls = os.writev, []
        monkeypatch.setattr(os, "writev", lambda fd, buffers: calls.append(len(buffers)) or real(fd, buffers))
        chunks = [f"{i}," if i % 2 else f"{i};".encode() for i in range(2 * cli._IOV_MAX + 3)]
        path = tmp_path / "many.txt"
        cli._write(str(path), chunks)
        assert path.read_bytes() == b"".join(c.encode() if isinstance(c, str) else c for c in chunks)
        assert len(calls) >= 3 and max(calls) <= cli._IOV_MAX

    def test_short_writes_resume_mid_buffer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "writev", short_writev(3))
        chunks = ["", "abcdefgh", b"", b"ij", "éè", b"klmnopq"]
        path = tmp_path / "short.txt"
        cli._write(str(path), chunks)
        assert path.read_bytes() == "abcdefghijéèklmnopq".encode()

    def test_mode_follows_the_umask(self, tmp_path, capsys):
        old = os.umask(0o027)
        try:
            code, _, _ = run(["params", "gap", "--p", "3", "--k", "4", "--s", "0.95", "--c", "0.99",
                              "--out", str(tmp_path / "params.json")], capsys)
        finally:
            os.umask(old)
        assert code == 0 and (tmp_path / "params.json").stat().st_mode & 0o777 == 0o640

    def test_non_finite_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(NumericDegeneracyError, match="not finite"):
            cli._emit({"distance": float("inf")}, str(path))
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gadget", "find", "--k", "3", "--p", "3"],
            ["params", "gap", "--p", "3", "--k", "4", "--s", "0.95", "--c", "0.99"],
            ["identities", "cp-svp", "--grid", "2.5:4:4"],
        ],
        ids=["emit-through", "emit", "csv"],
    )
    def test_missing_directory_is_io_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out.json"
        code, stdout, err = run([*argv, "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert err.splitlines()[-1] == f"io error: [Errno 2] No such file or directory: '{out}'"


class TestIdentitiesCommands:
    def test_skp(self, capsys):
        code, out, _ = run(["identities", "skp", "--k", "3", "--p", "1"], capsys)
        assert code == 0
        payload = out_json(out)
        assert float(payload["value"]) == pytest.approx(2.0 / 3.0)
        assert payload["sign"] == 1

    def test_integral(self, capsys):
        code, out, _ = run(["identities", "integral", "--n", "2", "--m", "1", "--p", "1"], capsys)
        assert code == 0
        payload = out_json(out)
        assert float(payload["direct"]) == pytest.approx(-2.0)
        assert float(payload["abs_diff"]) < 1e-6

    def test_bounds(self, capsys):
        code, out, _ = run(["identities", "bounds", "--k", "4", "--p", "1"], capsys)
        assert code == 0
        assert out_json(out)["passed"] is True

    def test_ramanujan(self, capsys):
        code, out, _ = run(["identities", "ramanujan", "--k", "10", "--x", "2.5"], capsys)
        assert code == 0
        assert float(out_json(out)["residual"]) <= 1e-10

    def test_cp_svp_point_and_grid(self, tmp_path, capsys):
        code, out, _ = run(["identities", "cp-svp", "--p", "3"], capsys)
        assert code == 0
        assert out_json(out)["defined"] is True
        code, out, _ = run(["identities", "cp-svp", "--find-p0"], capsys)
        assert code == 0
        assert float(out_json(out)["p0"]) == pytest.approx(2.13972, abs=1e-3)
        csv = tmp_path / "cp.csv"
        code, _, _ = run(["identities", "cp-svp", "--grid", "2.5:4:4", "--out", str(csv)], capsys)
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "p,W,C"
        assert len(lines) == 5


class TestCombinatoricsCommands:
    def test_cubes_find(self, tmp_path, capsys):
        pts = tmp_path / "points.txt"
        pts.write_text("\n".join(format(x, "02x") for x in range(2**6)) + "\n")
        code, out, _ = run(["cubes", "find", "--in", str(pts), "--dim", "3"], capsys)
        assert code == 0
        payload = out_json(out)
        assert payload["found"] is True
        assert len(payload["directions"]) == 3

    def test_clauses_isolate(self, tmp_path, capsys):
        pts = tmp_path / "set.txt"
        pts.write_text("\n".join(format(x, "01x") for x in range(8)) + "\n")
        code, out, _ = run(["clauses", "isolate", "--in", str(pts), "--k", "3"], capsys)
        assert code == 0
        assert len(out_json(out)["literals"]) <= 3

    def test_clauses_separate(self, tmp_path, capsys):
        close = tmp_path / "s.txt"
        away = tmp_path / "t.txt"
        close.write_text("00\n01\n02\n03\n")
        away.write_text("04\n05\n")
        code, out, _ = run(["clauses", "separate", "--s-in", str(close), "--t-in", str(away)], capsys)
        assert code == 0
        assert 1 <= len(out_json(out)["literals"]) <= 3


class TestSharedParser:
    def test_reused_parser_matches_fresh(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 4 3\n1 2 3 0\n-1 2 -4 0\n-2 3 4 0\n")
        g, inst = tmp_path / "g.json", tmp_path / "inst.json"
        run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(g)], capsys)
        run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(inst)], capsys)
        argvs = [
            ["gadget", "find", "--k", "3", "--nope"],
            ["gadget", "find", "--k", "2", "--p", "1.5"],
            ["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)],
        ]
        shared = [run(argv, capsys) for argv in argvs]
        assert cli.build_parser() is cli.build_parser()
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(argv, capsys))
        assert [code for code, _, _ in shared] == [2, 0, 0]
        assert shared == fresh


def query_edited_prep(tmp_path, capsys, monkeypatch, edit) -> tuple[int, str]:
    """(exit code, stderr) of a query on an n=3, k=2 prep after edit(prep
    document), with building the basis text made a failure."""
    # n=3, k=2: M = 12 blocks of the 5 live rows of the k=3 gadget's 8
    # on-off rows, plus 3
    g, prep, cnf = tmp_path / "g.json", tmp_path / "prep.json", tmp_path / "f.cnf"
    run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(g)], capsys)
    run(["cvpp", "prep", "--n", "3", "--k", "2", "--gadget", str(g), "--out", str(prep)], capsys)
    data = json.loads(prep.read_text())
    edit(data)
    prep.write_text(json.dumps(data))
    cnf.write_text("p cnf 3 2\n1 2 0\n-2 3 0\n")
    monkeypatch.setattr(serialize, "_basis_text", lambda art: pytest.fail("built the basis text"))
    code, _, err = run(["cvpp", "query", "--prep", str(prep), "--cnf", str(cnf), "--out", str(tmp_path / "q.json")], capsys)
    return code, err


class TestExitCodes:
    def test_unknown_flag_is_usage(self, capsys):
        assert run(["gadget", "find", "--nope", "1"], capsys)[0] == 2

    def test_failed_verification_is_one(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run(["gadget", "find", "--k", "2", "--p", "1.5", "--out", str(path)], capsys)
        data = json.loads(path.read_text())
        data["eps"] = "0.5"  # breaks the far-vertex level
        path.write_text(json.dumps(data))
        code, out, err = run(["gadget", "verify", "--in", str(path)], capsys)
        assert code == 1
        assert out_json(out)["passed"] is False
        assert "FAIL" in err

    def test_resource_limit_is_three(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        inst = tmp_path / "i.json"
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 12 1\n1 2 3 0\n")
        run(["gadget", "find", "--k", "3", "--p", "2.5", "--out", str(g)], capsys)
        run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(inst)], capsys)
        code, _, err = run(["oracle", "solve", str(inst), "--box=-20..20"], capsys)
        assert code == 3
        assert "resource" in err

    def test_parity_size_cap_refuses_before_building(self, capsys):
        start = time.perf_counter()
        code, _, err = run(["gadget", "parity", "--k", "20", "--p", "2.5"], capsys)
        assert code == 3 and "resource" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k,p", [("10", "320"), ("3", "650")])
    def test_overflowing_p_is_numeric_failure(self, capsys, k, p):
        # every candidate shift's powers leave the float range (k + 1/16 at
        # least k + 1/16, so from p = 308 at k = 10 and p = 635 at k = 3)
        code, _, err = run(["gadget", "find", "--k", k, "--p", p], capsys)
        assert code == 1 and "leaves the float range" in err

    @pytest.mark.parametrize("command", ["lattice", "gap"])
    def test_overflowing_lattice_is_numeric_failure(self, tmp_path, capsys, command):
        # the k=1, p=700 gadget builds, but its lattice extension needs 3^p
        g, cnf, out = tmp_path / "g.json", tmp_path / "f.cnf", tmp_path / "out.json"
        assert run(["gadget", "find", "--k", "1", "--p", "700", "--out", str(g)], capsys)[0] == 0
        cnf.write_text("p cnf 2 2\n1 0\n-2 0\n")
        argv = {
            "lattice": ["gadget", "lattice", "--in", str(g)],
            "gap": ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--mode", "gap", "--s", "0.9", "--c", "1.0"],
        }[command]
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 1 and err.startswith("failure:") and "leaves the float range" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reduce", "solve", "validate", "verify", "query"])
    def test_overflowing_p_in_an_artifact_is_numeric_failure(self, tmp_path, capsys, command):
        # at p = 10^30 every power of a distance above 1 leaves the float range
        g, cnf, inst, prep, out = (tmp_path / f for f in ("g.json", "f.cnf", "i.json", "prep.json", "out.json"))
        cnf.write_text("p cnf 3 2\n1 -3 0\n-1 2 0\n")
        assert run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(g)], capsys)[0] == 0
        assert run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(inst)], capsys)[0] == 0
        assert run(["cvpp", "prep", "--n", "3", "--k", "2", "--gadget", str(g), "--out", str(prep)], capsys)[0] == 0
        for path, doc in ((g, json.loads(g.read_text())), (inst, json.loads(inst.read_text()))):
            doc["p"] = "1e30"
            path.write_text(json.dumps(doc))
        doc = json.loads(prep.read_text())
        doc["gadget"]["p"] = "1e30"
        prep.write_text(json.dumps(doc))
        argv = {
            "reduce": ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(out)],
            "solve": ["oracle", "solve", str(inst), "--out", str(out)],
            "validate": ["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)],
            "verify": ["gadget", "verify", "--in", str(g)],
            "query": ["cvpp", "query", "--prep", str(prep), "--cnf", str(cnf), "--out", str(out)],
        }[command]
        code, stdout, err = run(argv, capsys)
        assert code == 1 and err.startswith("failure:") and "leaves the float range" in err, err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_underflowing_p_in_an_instance_is_numeric_failure(self, tmp_path, capsys, command):
        # at p = 10^30 every power of a residual below 1 reads 0, so every
        # point of the gap instance would read distance 0
        g, cnf, inst, out = (tmp_path / f for f in ("g.json", "f.cnf", "i.json", "out.json"))
        cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
        assert run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(g)], capsys)[0] == 0
        argv = ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--mode", "gap", "--s", "0.6", "--c", "0.95"]
        assert run(argv + ["--out", str(inst)], capsys)[0] == 0
        doc = json.loads(inst.read_text())
        doc["p"] = "1e30"
        inst.write_text(json.dumps(doc))
        argv = {
            "solve": ["oracle", "solve", str(inst), "--out", str(out)],
            "validate": ["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)],
        }[command]
        code, stdout, err = run(argv, capsys)
        assert code == 1 and err.startswith("failure:") and "leaves the float range" in err, err
        assert "underflows to 0" in err
        assert stdout == "" and not out.exists()

    def test_overflowing_gap_factor_is_numeric_failure(self, capsys):
        # (1 + eps)^p with eps = 10^300
        argv = ["params", "gap", "--p", "20", "--k", "21", "--s", "0.9999999", "--c", "1", "--eps", "1e300"]
        code, stdout, err = run(argv, capsys)
        assert code == 1 and stdout == "" and err.startswith("failure:") and "leaves the float range" in err, err

    GAP = ["params", "gap", "--p", "3", "--k", "4", "--s", "0.95", "--c", "0.99"]

    @pytest.mark.parametrize("eps", ["-1", "-2", "-0.5", "0", "nan", "inf"])
    def test_gap_eps_that_is_not_positive_and_finite_is_usage(self, tmp_path, capsys, eps):
        out = tmp_path / "gap.json"
        code, stdout, err = run([*self.GAP, f"--eps={eps}", "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and "Traceback" not in err
        assert err.startswith("usage error: eps must be finite and > 0"), err
        assert not out.exists()

    def test_gap_eps_keeps_its_bytes(self, capsys):
        code, stdout, _ = run([*self.GAP, "--eps", "0.25"], capsys)
        assert code == 0 and stdout == (
            '{"c_prime":"0.52800000000000002","degenerate":false,"gamma":"1.0046530480590319",'
            '"gamma_bound":"1.0000000208920026","s_prime":"0.5066666666666666"}\n'
        )

    @pytest.mark.parametrize("box", ["0..0", "1..2", "5..5"])
    def test_validation_box_without_the_boolean_points_is_usage(self, tmp_path, capsys, box):
        g, cnf, inst = tmp_path / "g.json", tmp_path / "f.cnf", tmp_path / "inst.json"
        cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
        assert run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(g)], capsys)[0] == 0
        assert run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(inst)], capsys)[0] == 0
        code, stdout, err = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst), f"--box={box}"], capsys)
        assert code == 2 and stdout == ""
        assert err == f"usage error: a validation box must hold 0 and 1 in every coordinate, got {box}\n"
        # a closest-vector search takes any box
        assert run(["oracle", "solve", str(inst), f"--box={box}"], capsys)[0] == 0

    @pytest.mark.parametrize("flag", ["--tol-rel", "--tol-abs"])
    def test_infinite_tolerance_is_usage(self, tmp_path, capsys, flag):
        g = tmp_path / "g.json"
        assert run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(g)], capsys)[0] == 0
        code, stdout, err = run([flag, "1e400", "gadget", "verify", "--in", str(g)], capsys)
        assert code == 2 and stdout == "" and "tolerances must be finite" in err

    # 234 and 234.5 left a's entries subnormal until the solve was rescaled
    @pytest.mark.parametrize("k,p", [("10", "233.5"), ("10", "234"), ("10", "234.5"), ("3", "379")])
    def test_largest_finite_p_builds(self, capsys, k, p):
        assert run(["gadget", "find", "--k", k, "--p", p], capsys)[0] == 0

    @pytest.fixture()
    def gadget(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run(["gadget", "find", "--k", "2", "--p", "1.5", "--out", str(path)], capsys)
        return path

    @pytest.mark.parametrize(
        "text",
        ["p cnf 3 1\n1 x 3 0\n", "p xor 3 x\n3 1 2 3 0\n", "p xor 3 1\n3 1 2 y 0\n"],
        ids=["dimacs-body", "xor-header", "xor-line"],
    )
    def test_non_integer_formula_token_is_usage(self, tmp_path, capsys, gadget, text):
        formula, good, inst = tmp_path / "f.txt", tmp_path / "good.cnf", tmp_path / "i.json"
        formula.write_text(text)
        good.write_text("p cnf 3 2\n1 2 0\n-2 3 0\n")
        assert run(["reduce", "sat", "--cnf", str(good), "--gadget", str(gadget), "--out", str(inst)], capsys)[0] == 0
        if text.startswith("p cnf"):
            reduce = ["reduce", "sat", "--cnf", str(formula), "--gadget", str(gadget)]
        else:
            reduce = ["reduce", "parity", "--xor", str(formula), "--p", "1.0", "--s", "0.6", "--c", "0.9"]
        for argv in (reduce, ["oracle", "validate", "--cnf", str(formula), "--instance", str(inst)]):
            code, _, err = run(argv, capsys)
            assert code == 2 and err.startswith("usage error:"), (argv, err)

    # 10^400 overflows a float; at 10^9 one weight unit moves the distance by
    # less than the verification tie band
    @pytest.mark.parametrize("weight", ["1" + "0" * 400, "1000000000"], ids=["overflow", "precision"])
    def test_huge_clause_weight_is_resource_limit(self, tmp_path, capsys, gadget, weight):
        cnf, out = tmp_path / "f.wcnf", tmp_path / "i.json"
        cnf.write_text(f"p wcnf 2 2\n{weight} 1 2 0\n1 -1 0\n")
        code, _, err = run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(gadget), "--out", str(out)], capsys)
        assert code == 3 and err.startswith("resource limit: total weight exceeds"), err
        assert not out.exists()

    @pytest.mark.parametrize("mode", [[], ["--mode", "gap", "--s", "0.6", "--c", "0.9"]], ids=["padded", "gap"])
    def test_basis_over_the_cap_is_resource_limit(self, tmp_path, capsys, monkeypatch, gadget, mode):
        cnf, out = tmp_path / "f.cnf", tmp_path / "i.json"
        cnf.write_text("p cnf 4 4\n1 2 0\n-1 3 0\n-2 4 0\n1 -4 0\n")
        monkeypatch.setattr(reductions, "MAX_BASIS_ENTRIES", 40)
        argv = ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(gadget), *mode, "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 3 and err.startswith("resource limit: basis of") and "exceeds cap 40" in err, err
        assert not out.exists()

    def test_weighted_formula_against_gap_instance_is_usage(self, tmp_path, capsys, gadget):
        cnf, wcnf, inst = tmp_path / "f.cnf", tmp_path / "f.wcnf", tmp_path / "i.json"
        cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
        wcnf.write_text("p wcnf 2 2\n1" + "0" * 400 + " 1 2 0\n1 -1 0\n")
        reduce = ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(gadget), "--mode", "gap", "--s", "0.4", "--c", "0.9"]
        assert run(reduce + ["--out", str(inst)], capsys)[0] == 0
        code, _, err = run(["oracle", "validate", "--cnf", str(wcnf), "--instance", str(inst)], capsys)
        assert code == 2 and "unweighted" in err, err

    def test_gap_instance_against_formula_without_constraints_is_usage(self, tmp_path, capsys):
        xor, cnf, inst = tmp_path / "f.xor", tmp_path / "f.cnf", tmp_path / "i.json"
        xor.write_text("p xor 3 2\n3 1 2 3 0\n3 1 2 3 1\n")
        cnf.write_text("p cnf 3 0\n")
        reduce = ["reduce", "parity", "--xor", str(xor), "--p", "1.0", "--s", "0.6", "--c", "0.9"]
        assert run(reduce + ["--out", str(inst)], capsys)[0] == 0
        code, _, err = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)], capsys)
        assert code == 2 and "unweighted formulas with constraints" in err, err

    @pytest.mark.parametrize(
        "mode, key",
        [("padded", "threshold"), ("gap", "s"), ("gap", "c"), ("gap", "gamma")],
    )
    def test_instance_meta_without_its_mode_key_is_usage(self, tmp_path, capsys, gadget, mode, key):
        cnf, inst = tmp_path / "f.cnf", tmp_path / "i.json"
        cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
        reduce = ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(gadget), "--mode", mode]
        if mode == "gap":
            reduce += ["--s", "0.4", "--c", "0.9"]
        assert run(reduce + ["--out", str(inst)], capsys)[0] == 0
        data = json.loads(inst.read_text())
        del data["meta"][key]
        inst.write_text(json.dumps(data))
        code, _, err = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)], capsys)
        assert code == 2 and f"{mode} instance meta lacks {key}" in err, err

    def test_max_norm_query_without_threshold_is_usage(self, tmp_path, capsys):
        cnf, prep, inst = tmp_path / "f.cnf", tmp_path / "iprep.json", tmp_path / "q.json"
        cnf.write_text("p cnf 3 1\n1 2 0\n")
        assert run(["cvpp", "inf-prep", "--n", "3", "--k", "2", "--out", str(prep)], capsys)[0] == 0
        assert run(["cvpp", "query", "--prep", str(prep), "--cnf", str(cnf), "--out", str(inst)], capsys)[0] == 0
        data = json.loads(inst.read_text())
        del data["meta"]["threshold"]
        inst.write_text(json.dumps(data))
        code, _, err = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)], capsys)
        assert code == 2 and "cvpp-inf instance meta lacks threshold" in err, err

    @pytest.mark.parametrize(
        "mode, edit, message",
        [
            ("padded", lambda d: d.update(meta=["padded"]), "instance meta must be an object"),
            ("padded", lambda d: d.update(meta="padded"), "instance meta must be an object"),
            ("padded", lambda d: d["meta"].update(threshold=None), "bad integer None"),
            ("padded", lambda d: d["meta"].update(threshold=True), "bad integer True"),
            ("padded", lambda d: d["meta"].update(threshold="2.5"), "bad integer '2.5'"),
            ("gap", lambda d: d["meta"].update(s=None), "bad decimal string None"),
            ("gap", lambda d: d["meta"].update(gamma=[2]), "bad decimal string [2]"),
            ("gap", lambda d: d["meta"].update(c=True, s=False), "bad decimal string False"),
        ],
        ids=[
            "meta-list", "meta-string", "threshold-null", "threshold-boolean", "threshold-fraction", "s-null",
            "gamma-list", "c-s-boolean",
        ],
    )
    def test_malformed_instance_meta_is_usage(self, tmp_path, capsys, gadget, mode, edit, message):
        cnf, inst = tmp_path / "f.cnf", tmp_path / "i.json"
        cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
        reduce = ["reduce", "sat", "--cnf", str(cnf), "--gadget", str(gadget), "--mode", mode]
        if mode == "gap":
            reduce += ["--s", "0.4", "--c", "0.9"]
        assert run(reduce + ["--out", str(inst)], capsys)[0] == 0
        data = json.loads(inst.read_text())
        edit(data)
        inst.write_text(json.dumps(data))
        code, _, err = run(["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)], capsys)
        assert code == 2 and message in err, err

    def test_threshold_string_is_read_as_integer(self, tmp_path, capsys, gadget):
        cnf, inst = tmp_path / "f.cnf", tmp_path / "i.json"
        cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
        assert run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(gadget), "--out", str(inst)], capsys)[0] == 0
        validate = ["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)]
        want = run(validate, capsys)
        data = json.loads(inst.read_text())
        data["meta"]["threshold"] = str(data["meta"]["threshold"])
        inst.write_text(json.dumps(data))
        assert run(validate, capsys) == want
        assert want[0] == 0

    # true is no real, though Python reads it as 1
    @pytest.mark.parametrize("artifact", ["gadget", "instance"])
    def test_boolean_entry_is_usage(self, tmp_path, capsys, gadget, artifact):
        cnf, inst = tmp_path / "f.cnf", tmp_path / "i.json"
        cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
        assert run(["reduce", "sat", "--cnf", str(cnf), "--gadget", str(gadget), "--out", str(inst)], capsys)[0] == 0
        path, key, argv = {
            "gadget": (gadget, "V", ["gadget", "verify", "--in", str(gadget)]),
            "instance": (inst, "basis", ["oracle", "validate", "--cnf", str(cnf), "--instance", str(inst)]),
        }[artifact]
        data = json.loads(path.read_text())
        data[key][0][0] = True
        path.write_text(json.dumps(data))
        code, _, err = run(argv, capsys)
        assert code == 2 and "bad decimal string True" in err, err

    def test_ragged_matrix_is_usage(self, gadget, capsys):
        data = json.loads(gadget.read_text())
        data["V"][0].pop()
        gadget.write_text(json.dumps(data))
        code, _, err = run(["gadget", "verify", "--in", str(gadget)], capsys)
        assert code == 2 and "differ in length" in err

    def test_string_column_is_usage(self, gadget, capsys):
        data = json.loads(gadget.read_text())
        data["V"][0] = "1" * len(data["V"][0])  # a string of digits, not a column
        gadget.write_text(json.dumps(data))
        code, _, err = run(["gadget", "verify", "--in", str(gadget)], capsys)
        assert code == 2 and "JSON array" in err

    def test_missing_key_is_usage(self, gadget, capsys):
        data = json.loads(gadget.read_text())
        del data["t"]
        gadget.write_text(json.dumps(data))
        code, _, err = run(["gadget", "verify", "--in", str(gadget)], capsys)
        assert code == 2 and "'t'" in err

    @pytest.mark.parametrize(
        "constraint",
        [
            "x",
            {"type": "clause", "negated": [7]},
            {"type": "clause", "negated": "12"},
            {"type": "parity", "bit": 5},
        ],
        ids=["not-an-object", "negated-out-of-range", "negated-string", "parity-bit-5"],
    )
    def test_bad_constraint_is_usage(self, tmp_path, capsys, constraint):
        path = tmp_path / "g.json"
        run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(path)], capsys)
        data = json.loads(path.read_text())
        data.update(kind="two-level", constraint=constraint)
        path.write_text(json.dumps(data))
        code, _, err = run(["gadget", "verify", "--in", str(path)], capsys)
        assert code == 2 and "usage error" in err

    @pytest.mark.parametrize("edit, code, message", BAD_PREPS, ids=BAD_PREP_IDS)
    def test_bad_prep_is_refused(self, tmp_path, capsys, monkeypatch, edit, code, message):
        got, err = query_edited_prep(tmp_path, capsys, monkeypatch, edit)
        assert got == code and message in err

    # the gadget's V gives the basis's block columns and its targets the block
    # rows, so a gadget whose V disagrees with its targets or with k is refused
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda g: g.update(V=[col + ["0"] for col in g["V"]]), "V is 9x2 for k=2, t_on has 8 rows, t_off 8"),
            (lambda g: g.update(V=[col[:-1] for col in g["V"]]), "V is 7x2 for k=2, t_on has 8 rows, t_off 8"),
            (lambda g: g["V"].pop(), "V is 8x1 for k=2, t_on has 8 rows, t_off 8"),
            (lambda g: g.update(t_on=g["t_on"][:-1], t_off=g["t_off"][:-1]), "V is 8x2 for k=2, t_on has 7 rows, t_off 7"),
        ],
        ids=["rows-too-long", "rows-too-short", "column-missing", "block-rows"],
    )
    def test_prep_header_disagrees_with_basis(self, tmp_path, capsys, monkeypatch, edit, message):
        got, err = query_edited_prep(tmp_path, capsys, monkeypatch, lambda d: edit(d["gadget"]))
        assert got == 2 and "on-off gadget shape mismatch: " + message in err

    @pytest.mark.parametrize("k", [2.5, True, "2.5"], ids=["fraction", "boolean", "fraction-string"])
    def test_non_integer_gadget_arity_is_usage(self, gadget, capsys, k):
        data = json.loads(gadget.read_text())
        data["k"] = k
        gadget.write_text(json.dumps(data))
        code, _, err = run(["gadget", "verify", "--in", str(gadget)], capsys)
        assert code == 2 and f"bad integer {k!r}" in err

    # each is refused after the prep loads, and before --out is opened
    @pytest.mark.parametrize(
        "prep, cnf, extra, message",
        [
            ("prep", "p cnf 4 2\n1 -2 0\n-2 1 0\n", [], "duplicate clause"),
            ("prep", "p cnf 4 1\n1 2 3 0\n", [], "table holds 2-clauses, got arity 3"),
            ("prep", "p cnf 4 2\n1 2 0\n-3 4 0\n", ["--w", "-3"], "threshold must lie in [0, total weight]"),
            ("prep", "p cnf 4 2\n1 2 0\n-3 4 0\n", ["--w", "1000"], "threshold must lie in [0, total weight]"),
            ("iprep", "p cnf 4 1\n1 2 3 0\n", ["--w", "1000"], "threshold must lie in [0, total weight]"),
        ],
        ids=["duplicate-clause", "wrong-arity", "w-negative", "w-above-m", "inf-w-above-m"],
    )
    def test_refused_query_writes_no_file(self, tmp_path, capsys, prep, cnf, extra, message):
        g, f, out = tmp_path / "g.json", tmp_path / "f.cnf", tmp_path / "q.json"
        run(["gadget", "find", "--k", "3", "--p", "3", "--out", str(g)], capsys)
        run(["cvpp", "prep", "--n", "4", "--k", "2", "--gadget", str(g), "--out", str(tmp_path / "prep.json")], capsys)
        run(["cvpp", "inf-prep", "--n", "4", "--k", "3", "--out", str(tmp_path / "iprep.json")], capsys)
        f.write_text(cnf)
        argv = ["cvpp", "query", "--prep", str(tmp_path / f"{prep}.json"), "--cnf", str(f), *extra, "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 2 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [b"not json {", b"\xff\xfe{}"])
    def test_not_json_is_usage(self, tmp_path, capsys, text):
        path, cnf, out = tmp_path / "g.json", tmp_path / "f.cnf", tmp_path / "q.json"
        path.write_bytes(text)
        cnf.write_text("p cnf 4 1\n1 2 3 0\n")
        for argv in (
            ["gadget", "onoff", "--in", str(path)],
            ["cvpp", "query", "--prep", str(path), "--cnf", str(cnf), "--out", str(out)],
        ):
            code, _, err = run(argv, capsys)
            assert code == 2 and f"{path} is not a JSON artifact" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["cubes", "find", "--in", "{bad}", "--dim", "1"],
            ["clauses", "isolate", "--in", "{bad}", "--k", "1"],
            ["clauses", "separate", "--s-in", "{bad}", "--t-in", "{good}"],
            ["clauses", "separate", "--s-in", "{good}", "--t-in", "{bad}"],
        ],
    )
    def test_non_hex_point_is_usage(self, tmp_path, capsys, argv):
        bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
        bad.write_text("01\nzz\n")
        good.write_text("00\n03\n")
        argv = [a.format(bad=bad, good=good) for a in argv]
        code, _, err = run(argv, capsys)
        assert code == 2 and "not a hex bitstring" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "sat", "--cnf", "{bad}", "--gadget", "{gadget}", "--out", "{out}"],
            ["reduce", "parity", "--xor", "{bad}", "--p", "1", "--s", "0.6", "--c", "0.9", "--out", "{out}"],
            ["oracle", "validate", "--cnf", "{bad}", "--instance", "{inst}"],
            ["cvpp", "query", "--prep", "{prep}", "--cnf", "{bad}", "--out", "{out}"],
            ["cubes", "find", "--in", "{bad}", "--dim", "1", "--out", "{out}"],
            ["clauses", "isolate", "--in", "{bad}", "--k", "1", "--out", "{out}"],
            ["clauses", "separate", "--s-in", "{bad}", "--t-in", "{points}", "--out", "{out}"],
            ["clauses", "separate", "--s-in", "{points}", "--t-in", "{bad}", "--out", "{out}"],
        ],
        ids=["reduce-sat", "reduce-parity", "oracle-validate", "cvpp-query", "cubes-find", "clauses-isolate", "separate-s", "separate-t"],
    )
    def test_non_utf8_text_is_usage(self, tmp_path, capsys, gadget, argv):
        files = {name: tmp_path / name for name in ("bad", "good.cnf", "points", "inst", "prep", "out")}
        files["bad"].write_bytes(b"\xff\xfe p cnf 3 1\n1 2 3 0\n")
        files["good.cnf"].write_text("p cnf 3 2\n1 2 0\n-2 3 0\n")
        files["points"].write_text("00\n03\n")
        reduce = ["reduce", "sat", "--cnf", str(files["good.cnf"]), "--gadget", str(gadget), "--out", str(files["inst"])]
        assert run(reduce, capsys)[0] == 0
        assert run(["cvpp", "inf-prep", "--n", "3", "--k", "2", "--out", str(files["prep"])], capsys)[0] == 0
        argv = [a.format(gadget=gadget, **files) for a in argv]
        code, _, err = run(argv, capsys)
        assert code == 2 and f"usage error: {files['bad']} is not UTF-8 text" in err, err
        assert not files["out"].exists()

    @pytest.mark.parametrize("grid", ["a:2:3", "1:2", "1:2:-3", "1:2:x", "1:2:3:4"])
    def test_bad_grid_is_usage(self, capsys, grid):
        code, _, err = run(["identities", "cp-svp", f"--grid={grid}"], capsys)
        assert code == 2 and "lo:hi:count" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "latgad.cli", "identities", "skp", "--k", "3", "--p", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["sign"] == 1


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, latgad.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout.strip() == "False", proc.stderr


def readme_command_lines() -> list[str]:
    """The `latgad ...` lines of README's code blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, flags=re.S | re.M)
    return [ln for block in blocks for ln in block.splitlines() if ln.startswith("latgad ")]


def test_readme_command_lines_parse(capsys):
    # parsed, never run: a deleted command or option must leave the docs too
    lines = readme_command_lines()
    assert len(lines) >= 10
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}\n{capsys.readouterr().err}")
