"""The mutation gate over the artifact readers.

A fixed set of artifacts is written once.  Every field of each, every
instance meta key and the first entry of every array is set, in turn, to
each value of a fixed list of bad values, and the file is read by every
command that reads its kind, through `dispatch`.  Each run must exit with
0-3 and print no traceback, and a value outside the domain of its field
must exit 2.  p = "inf" (and "1e999", which reads as inf) is the max norm,
so it lies inside p's domain.
"""

import contextlib
import io
import json
import math

import pytest

from latgad.cli import dispatch

BAD = [None, True, "nan", "inf", "-inf", "1e999", "-1", -1, "0", 0, [], {}, "x", 2**70]

CNF3 = "p cnf 4 4\n1 2 3 0\n-1 2 -4 0\n-2 3 4 0\n1 -3 4 0\n"
CNF2 = "p cnf 4 3\n1 2 0\n-1 3 0\n2 -4 0\n"


def _real(v):
    """The float a JSON value reads as, or None: a boolean, array or object is
    no real."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        return None
    try:
        return float(v)
    except ValueError:
        return None


def _int(v):
    """The int a JSON value reads as, or None."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        return None
    try:
        return int(v)
    except ValueError:
        return None


def real(test):
    return lambda v: _real(v) is not None and test(_real(v))


def integer(test):
    return lambda v: _int(v) is not None and test(_int(v))


def never(v):
    return False


def anything(v):
    return True


# whether a value lies in the domain of the field of this name; no bad value
# is a valid schema, kind, mode, gadget, constraint, matrix or vector
DOMAINS = {
    **dict.fromkeys(("schema", "kind", "mode", "gadget", "constraint", "type"), never),
    **dict.fromkeys(("V", "basis", "t", "t_on", "t_off", "target"), never),
    "bit": lambda v: type(v) is int and v in (0, 1),
    "meta": lambda v: isinstance(v, dict),
    "p": real(lambda x: x >= 1),
    "k": integer(lambda x: x >= 1),
    "n": integer(lambda x: x >= 1),
    "threshold": integer(lambda x: x >= 0),
    **dict.fromkeys(("eps", "radius", "alpha"), real(lambda x: 0 < x < math.inf)),
    "s": real(lambda x: 0 < x <= 1),
    "c": real(lambda x: 0 < x <= 1),
    "gamma": real(lambda x: 1 <= x < math.inf),
}
MATRICES = ("V", "basis")


def sites(doc, path=()):
    """(path, domain) of every field, meta key and first array entry of doc."""
    items = list(doc.items()) if isinstance(doc, dict) else [(0, doc[0])] if doc else []
    for key, value in items:
        here = (*path, key)
        if isinstance(key, str):
            # a meta key that nothing reads is dropped, whatever it holds
            domain = DOMAINS[key] if key in DOMAINS or path != ("meta",) else anything
        else:  # a matrix's first column, or a vector's or column's first entry
            domain = never if path[-1] in MATRICES else real(math.isfinite)
        yield here, domain
        if isinstance(value, (dict, list)):
            yield from sites(value, here)


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def quiet(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The artifacts, by name, with the commands that read each, as functions
    of the path of the mutated file."""
    d = tmp_path_factory.mktemp("gate")
    (d / "f3.cnf").write_text(CNF3)
    (d / "f2.cnf").write_text(CNF2)
    f3, f2, out = str(d / "f3.cnf"), str(d / "f2.cnf"), str(d / "out.json")
    steps = [
        ["gadget", "find", "--k", "3", "--p", "3", "--out", str(d / "g3.json")],
        ["gadget", "parity", "--k", "4", "--p", "3", "--out", str(d / "parity.json")],
        ["gadget", "lattice", "--in", str(d / "parity.json"), "--out", str(d / "lattice.json")],
        ["cvpp", "prep", "--n", "4", "--k", "2", "--gadget", str(d / "g3.json"), "--out", str(d / "prep.json")],
        ["cvpp", "query", "--prep", str(d / "prep.json"), "--cnf", f2, "--out", str(d / "lp-query.json")],
        ["cvpp", "inf-prep", "--n", "4", "--k", "3", "--out", str(d / "inf-prep.json")],
        ["cvpp", "query", "--prep", str(d / "inf-prep.json"), "--cnf", f3, "--out", str(d / "inf-query.json")],
        ["reduce", "sat", "--cnf", f3, "--gadget", str(d / "g3.json"), "--out", str(d / "padded.json")],
        ["reduce", "sat", "--cnf", f3, "--gadget", str(d / "g3.json"), "--mode", "gap", "--s", "0.6", "--c", "0.9",
         "--out", str(d / "gap.json")],
    ]
    assert [quiet(argv)[0] for argv in steps] == [0] * len(steps)

    def gadget_readers(k):
        def commands(path):
            sat = ["reduce", "sat", "--cnf", f3, "--gadget", path, "--out", out]
            return [
                ["gadget", "verify", "--in", path],
                ["gadget", "onoff", "--in", path, "--out", out],
                ["gadget", "lattice", "--in", path, "--out", out],
                sat,
                [*sat, "--mode", "gap", "--s", "0.6", "--c", "0.9"],
                ["cvpp", "prep", "--n", "4", "--k", str(k - 1), "--gadget", path, "--out", out],
            ]

        return commands

    def instance_readers(cnf):
        return lambda path: [
            ["oracle", "solve", path, "--out", out],
            ["oracle", "solve", path, "--box=-1..1", "--out", out],
            ["oracle", "validate", "--cnf", cnf, "--instance", path],
        ]

    readers = {
        "g3": gadget_readers(3),
        "parity": gadget_readers(4),
        "lattice": gadget_readers(4),
        "prep": lambda path: [["cvpp", "query", "--prep", path, "--cnf", f2, "--out", out]],
        "lp-query": instance_readers(f2),
        "inf-query": instance_readers(f3),
        "padded": instance_readers(f3),
        "gap": instance_readers(f3),
    }
    return {name: (json.loads((d / f"{name}.json").read_text()), readers[name]) for name in readers}, d


@pytest.mark.parametrize("artifact", ["g3", "parity", "lattice", "prep", "lp-query", "inf-query", "padded", "gap"])
def test_every_bad_value_in_every_field(written, artifact):
    docs, d = written
    doc, commands = docs[artifact]
    path = d / f"bad-{artifact}.json"
    wrong = []
    for site, domain in sites(doc):
        for value in BAD:
            path.write_text(json.dumps(mutated(doc, site, value)))
            for argv in commands(str(path)):
                code, err = quiet(argv)
                if code not in (0, 1, 2, 3) or "Traceback" in err or (code != 2 and not domain(value)):
                    wrong.append((site, value, argv[:2], code, err.strip()[-200:]))
    assert not wrong, f"{len(wrong)} runs: {wrong[:10]}"


def test_sites_cover_every_field_and_meta_key(written):
    docs, _ = written
    found = {name: {site for site, _ in sites(doc)} for name, (doc, _) in docs.items()}
    assert ("gadget", "V", 0, 0) in found["prep"] and ("constraint", "bit") in found["parity"]
    assert {site[1] for site in found["padded"] if site[0] == "meta" and len(site) == 2} == {
        "mode", "threshold", "eps", "alpha"}
    assert {site[1] for site in found["gap"] if site[0] == "meta" and len(site) == 2} == {"mode", "s", "c", "gamma"}
    assert {site[1] for site in found["inf-query"] if site[0] == "meta" and len(site) == 2} == {"mode", "threshold"}
