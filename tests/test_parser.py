"""The command table's parser against the argparse tree it replaced.

`reference_parser` is that tree, kept here as the reference: for the same
argv, `cli.parse_argv` must give the same values and exit code, and the
same error in argparse's words after the same usage line, which the table
prints on one line where argparse wraps it.  Help is compared word by word,
since the table puts every help text at column 24.  One difference is
meant: argparse reads `--name=--` as the value [], the table refuses it."""

import contextlib
import functools
import io
import os
import re
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latgad import cli
from test_cli import readme_command_lines

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def reference_parser():
    import argparse

    top = argparse.ArgumentParser(prog="latgad")
    top.add_argument("--tol-rel", type=float, default=1e-9)
    top.add_argument("--tol-abs", type=float, default=1e-12)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gadget")
    ga = g.add_subparsers(dest="action", required=True)
    find = ga.add_parser("find")
    find.add_argument("--k", type=int, required=True)
    find.add_argument("--p", type=float, required=True)
    find.add_argument("--out")
    par = ga.add_parser("parity")
    par.add_argument("--k", type=int, required=True)
    par.add_argument("--p", type=float, required=True)
    par.add_argument("--bit", type=int, default=0)
    par.add_argument("--out")
    lat = ga.add_parser("lattice")
    lat.add_argument("--in", dest="infile", required=True)
    lat.add_argument("--out")
    oo = ga.add_parser("onoff")
    oo.add_argument("--in", dest="infile", required=True)
    oo.add_argument("--out")
    ver = ga.add_parser("verify")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--box-radius", type=int, default=3)

    r = sub.add_parser("reduce")
    ra = r.add_subparsers(dest="action", required=True)
    rs = ra.add_parser("sat")
    rs.add_argument("--cnf", required=True)
    rs.add_argument("--gadget", required=True)
    rs.add_argument("--mode", choices=("padded", "gap"), default="padded")
    rs.add_argument("--s", type=float)
    rs.add_argument("--c", type=float)
    rs.add_argument("--out")
    rp = ra.add_parser("parity")
    rp.add_argument("--xor", required=True)
    rp.add_argument("--p", type=float, required=True)
    rp.add_argument("--s", type=float)
    rp.add_argument("--c", type=float)
    rp.add_argument("--out")

    pg = sub.add_parser("params")
    pga = pg.add_subparsers(dest="action", required=True)
    gap = pga.add_parser("gap")
    gap.add_argument("--p", type=float, required=True)
    gap.add_argument("--k", type=int, required=True)
    gap.add_argument("--s", type=float, required=True)
    gap.add_argument("--c", type=float, required=True)
    gap.add_argument("--eps", type=float)
    gap.add_argument("--out")

    cv = sub.add_parser("cvpp")
    cva = cv.add_subparsers(dest="action", required=True)
    prep = cva.add_parser("prep")
    prep.add_argument("--n", type=int, required=True)
    prep.add_argument("--k", type=int, required=True)
    prep.add_argument("--gadget", required=True, help="(k+1)-ary isolating gadget JSON")
    prep.add_argument("--out")
    iprep = cva.add_parser("inf-prep")
    iprep.add_argument("--n", type=int, required=True)
    iprep.add_argument("--k", type=int, required=True)
    iprep.add_argument("--out")
    q = cva.add_parser("query")
    q.add_argument("--prep", required=True)
    q.add_argument("--cnf", required=True)
    q.add_argument("--w", type=int)
    q.add_argument("--out")

    o = sub.add_parser("oracle")
    oa = o.add_subparsers(dest="action", required=True)
    solve = oa.add_parser("solve")
    solve.add_argument("instance")
    solve.add_argument("--box", help="per-coordinate integer range, e.g. '-1..2'")
    solve.add_argument("--out")
    val = oa.add_parser("validate")
    val.add_argument("--cnf", required=True)
    val.add_argument("--instance", required=True)
    val.add_argument("--box")

    ident = sub.add_parser("identities")
    ia = ident.add_subparsers(dest="action", required=True)
    skp = ia.add_parser("skp")
    skp.add_argument("--k", type=int, required=True)
    skp.add_argument("--p", type=float, required=True)
    skp.add_argument("--out")
    integral = ia.add_parser("integral")
    integral.add_argument("--n", type=int, required=True)
    integral.add_argument("--m", type=int, required=True)
    integral.add_argument("--p", type=float, required=True)
    integral.add_argument("--out")
    bounds = ia.add_parser("bounds")
    bounds.add_argument("--k", type=int, required=True)
    bounds.add_argument("--p", type=float, required=True)
    bounds.add_argument("--c", type=int, default=0)
    bounds.add_argument("--out")
    ram = ia.add_parser("ramanujan")
    ram.add_argument("--k", type=int, required=True)
    ram.add_argument("--x", type=float, required=True)
    ram.add_argument("--out")
    cp = ia.add_parser("cp-svp")
    cp.add_argument("--p", type=float)
    cp.add_argument("--find-p0", action="store_true")
    cp.add_argument("--grid", help="CSV sweep lo:hi:count")
    cp.add_argument("--out")

    cb = sub.add_parser("cubes")
    cba = cb.add_subparsers(dest="action", required=True)
    cf = cba.add_parser("find")
    cf.add_argument("--in", dest="infile", required=True, help="hex bitstrings, one per line")
    cf.add_argument("--dim", type=int, required=True)
    cf.add_argument("--out")

    cl = sub.add_parser("clauses")
    cla = cl.add_subparsers(dest="action", required=True)
    iso = cla.add_parser("isolate")
    iso.add_argument("--in", dest="infile", required=True)
    iso.add_argument("--k", type=int, required=True)
    iso.add_argument("--out")
    sep = cla.add_parser("separate")
    sep.add_argument("--s-in", dest="close", required=True)
    sep.add_argument("--t-in", dest="away", required=True)
    sep.add_argument("--out")

    bt = sub.add_parser("batch")
    bt.add_argument("--in", dest="infile", help="command lines, one per line (default: stdin)")

    return top


def values(namespace) -> dict:
    # repr tells nan from nan and -0.0 from 0.0
    return {key: repr(value) if isinstance(value, float) else value for key, value in vars(namespace).items()}


def words(text: str) -> str:
    return " ".join(text.split())


def reference(argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, values or None) of the argparse tree on
    argv, on an 80-column terminal, with its help as words and the usage
    line of an error on one line."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return 0, "", "", values(reference_parser().parse_args(argv))
        except SystemExit as stop:
            usage, sep, message = err.getvalue().partition("\nlatgad")
            return stop.code, words(out.getvalue()), words(usage) + sep + message, None


def table(argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, values or None) of cli.parse_argv on
    argv, with its help as words."""
    try:
        return 0, "", "", values(cli.parse_argv(argv))
    except cli.ParseExit as stop:
        return (stop.code, words(stop.text), "", None) if stop.code == 0 else (stop.code, "", stop.text, None)


def prefix_after_command(argv: list[str], expected: tuple) -> bool:
    """Whether argparse's only objection to argv is the top level's prefix
    check on an argument after the command, which the table leaves to the
    level below: argparse refuses an ambiguous top-level prefix and the
    table, reading the same arguments up to the command, does not."""
    return "\nlatgad: error: ambiguous option: " in expected[2] and table(argv) != expected


def test_readme_command_lines():
    lines = readme_command_lines()
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)[1:]
        assert table(argv) == reference(argv), line


def byte_diff_corpus() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import byte_diff
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return [argv for unit in byte_diff.build_corpus(ROOT) for argv in unit["commands"]]


def test_byte_diff_corpus():
    corpus = byte_diff_corpus()
    assert len(corpus) > 1000
    for argv in corpus:
        expected = reference(argv)
        assert table(argv) == expected or prefix_after_command(argv, expected), argv


GLOBAL_NAMES = ["--tol-rel", "--tol-abs"]
VALUES = ["3", "10", "2.5", "-1", "-0.5", "-.5", "-5.", "-1..2", "0..1", "-1e-9", "1e-9", "x", "", "gap",
          "padded", "nan", " 3", "1_0", "-5\n", "a b", "-a b", "g.json", "--", "-", "-h", "--help", "-hh"]
JUNK = ["--", "-", "-h", "--help", "--he", "-hh", "-hx", "-h=", "--help=1", "--nope", "--nope=1", "-x", "-5",
        "--t", "--tol", "--tol-r=1", "--=x", "---k", "--s", "--c"]


def option_tokens(draw, names: list[str]) -> list[str]:
    """One option as the user may write it: its name or a prefix of it,
    then a value as the next argument, after '=', or none."""
    name = draw(st.sampled_from(names))
    name = name[: draw(st.integers(min_value=3, max_value=len(name)))] if draw(st.booleans()) else name
    value = draw(st.sampled_from(VALUES) | st.text(max_size=4))
    form = draw(st.sampled_from(["next", "next", "eq", "none"]))
    return {"next": [name, value], "eq": [f"{name}={value}"], "none": [name]}[form]


@st.composite
def argvs(draw) -> list[str]:
    """Global options, a command and an action (or a misspelling), and then
    the action's options, the positional argument, repeated and global
    options and odd arguments, in any order."""
    key = draw(st.sampled_from(list(cli.COMMANDS)))
    names = [o.name for o in cli.COMMANDS[key][1] if o.name[0] == "-"]
    argv = []
    for _ in range(draw(st.integers(0, 2))):
        argv += option_tokens(draw, GLOBAL_NAMES)
    argv += [word for word in key if word][: draw(st.sampled_from([0, 1, 2, 2, 2, 2]))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["nope", "gadgets", "find", "--"])))
    parts = []
    for opt in cli.COMMANDS[key][1]:
        if opt.name[0] != "-":
            parts.append([draw(st.sampled_from(["inst.json", "-1", "-x", "--", "a b"]))])
        elif opt.required or draw(st.booleans()):
            parts.append(option_tokens(draw, [opt.name]))
    for _ in range(draw(st.integers(0, 3))):
        choice = draw(st.integers(0, 3))
        if choice == 0 and names:
            parts.append(option_tokens(draw, names))
        elif choice == 1:
            parts.append(option_tokens(draw, GLOBAL_NAMES))
        else:
            parts.append([draw(st.sampled_from(JUNK + VALUES))])
    for part in draw(st.permutations(parts)):
        argv += part
    return argv


@settings(max_examples=600, deadline=None)
@given(argvs())
@example(["gadget", "find", "--k", "3", "--p", "2.5", "--k", "4"])
@example(["--tol-r=1e-6", "--tol-abs", "-1", "oracle", "solve", "--out", "o.json", "inst.json", "--box=-1..2"])
@example(["identities", "cp-svp", "--p", "-0.5", "--find", "--g=-1:2:3"])
@example(["--t", "1", "clauses", "separate", "--s", "a", "--t", "b"])
@example(["oracle", "solve", "--", "-x"])
@example(["oracle", "solve", "x", "--", "y"])
def test_matches_argparse(argv):
    parsed = table(argv)[3]
    assert parsed is None or [] not in parsed.values()
    assume(not any(arg.endswith("=--") for arg in argv))
    expected = reference(argv)
    assume(not prefix_after_command(argv, expected))
    assert table(argv) == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gadget", "find", "--k", "3", "--p", "2.5", "--nope"], "latgad: error: unrecognized arguments: --nope"),
        (["gadget", "find", "--k", "3"], "latgad gadget find: error: the following arguments are required: --p"),
        (["gadget", "find", "--k", "x", "--p", "1"], "latgad gadget find: error: argument --k: invalid int value: 'x'"),
        (["gadget", "find", "--k", "3", "--p", "y"], "latgad gadget find: error: argument --p: invalid float value: 'y'"),
        (["reduce", "sat", "--cnf", "f", "--gadget", "g", "--mode", "fast"],
         "latgad reduce sat: error: argument --mode: invalid choice: 'fast' (choose from 'padded', 'gap')"),
        (["oracle", "solve", "i.json", "--box", "-1..2"], "latgad oracle solve: error: argument --box: expected one argument"),
        (["--tol-rel", "-1e-9", "gadget", "find"], "latgad: error: argument --tol-rel: expected one argument"),
        (["gadget", "find", "--k", "3", "--p", "1", "--tol-rel", "1e-6"],
         "latgad: error: unrecognized arguments: --tol-rel 1e-6"),
        (["--tol", "1", "gadget"], "latgad: error: ambiguous option: --tol could match --tol-rel, --tol-abs"),
        (["gadgets"], "latgad: error: argument command: invalid choice: 'gadgets' (choose from 'gadget', 'reduce', "
                      "'params', 'cvpp', 'oracle', 'identities', 'cubes', 'clauses', 'batch')"),
        (["identities", "cp-svp", "--find-p0=1"], "latgad identities cp-svp: error: argument --find-p0: "
                                                  "ignored explicit argument '1'"),
        (["identities", "skp", "--k", "3", "--p", "1", "--out=--"],
         "latgad identities skp: error: argument --out: expected one argument"),
        (["gadget", "find", "--k=--", "--p", "1"], "latgad gadget find: error: argument --k: expected one argument"),
    ],
)
def test_errors_keep_the_argparse_wording(argv, message):
    code, out, err, parsed = table(argv)
    assert (code, out, parsed) == (2, "", None)
    usage, error = err.splitlines()
    assert usage.startswith("usage: latgad") and error == message
    if not any(arg.endswith("=--") for arg in argv):
        assert table(argv) == reference(argv)


def test_top_level_reads_only_up_to_the_command():
    # the top level matches its option prefixes only before the command
    parsed = cli.parse_argv(["clauses", "separate", "--s-in", "s.txt", "--t", "t.txt"])
    assert (parsed.close, parsed.away) == ("s.txt", "t.txt")
    for argv, extras in [
        (["gadget", "find", "--k", "3", "--p", "3", "--tol-rel", "1e-9"], "--tol-rel 1e-9"),
        (["gadget", "find", "--k", "3", "--p", "3", "--to", "1"], "--to 1"),
    ]:
        with pytest.raises(cli.ParseExit) as stop:
            cli.parse_argv(argv)
        assert stop.value.code == 2
        assert stop.value.text.splitlines()[1] == f"latgad: error: unrecognized arguments: {extras}"
    # before the command the prefix check stands
    with pytest.raises(cli.ParseExit) as stop:
        cli.parse_argv(["--tol-rel", "1", "--t", "2", "clauses", "separate", "--s-in", "s", "--t-in", "t"])
    assert stop.value.text.splitlines()[1] == "latgad: error: ambiguous option: --t could match --tol-rel, --tol-abs"


def test_negative_values():
    assert vars(cli.parse_argv(["params", "gap", "--p", "3", "--k", "2", "--s", "-0.5", "--c", "-.5"]))["s"] == -0.5
    assert vars(cli.parse_argv(["oracle", "solve", "--box=-1..2", "-1"]))["instance"] == "-1"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="-0123456789.\n٣a", max_size=6))
def test_negative_number_is_the_argparse_pattern(text):
    arg = "-" + text
    assert cli._negative_number(arg) == bool(re.match(r"^-\d+$|^-\d*\.\d+$", arg))


def test_help_lists_every_command_action_and_option():
    commands = list(dict.fromkeys(command for command, _ in cli.COMMANDS))
    for flag in ("-h", "--help"):
        code, out, err, _ = table([flag])
        assert (code, err) == (0, "") and out == reference([flag])[1]
        assert "{" + ",".join(commands) + "}" in out
        assert all(f" {o.name} {o.dest.upper()}" in out for o in cli.GLOBAL_OPTIONS)
    for command in commands:
        actions = [action for c, action in cli.COMMANDS if c == command]
        code, out, _, _ = table([command, "--help"])
        assert code == 0 and out == reference([command, "--help"])[1]
        if actions != [None]:
            assert "{" + ",".join(actions) + "}" in out
    for key, (_, opts) in cli.COMMANDS.items():
        argv = [word for word in key if word] + ["--help"]
        code, out, _, _ = table(argv)
        assert code == 0 and out == reference(argv)[1]
        with pytest.raises(cli.ParseExit) as stop:
            cli.parse_argv(argv)
        lines = stop.value.text.splitlines()
        assert lines[0].startswith("usage: latgad " + " ".join(argv[:-1]) + " [-h] ")
        for o in opts:
            (line,) = [ln for ln in lines[1:] if ln.split()[:1] == [o.name]]
            if o.help:
                assert line[24:] == o.help and line[:24].strip() == cli._invocation(o)


def test_help_layout():
    # the usage on one line however long, each help text from column 24
    with pytest.raises(cli.ParseExit) as stop:
        cli.parse_argv(["reduce", "sat", "-h"])
    assert stop.value.code == 0 and stop.value.text == (
        "usage: latgad reduce sat [-h] --cnf CNF --gadget GADGET [--mode {padded,gap}] [--s S] [--c C] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --cnf CNF\n"
        "  --gadget GADGET\n"
        "  --mode {padded,gap}\n"
        "  --s S\n"
        "  --c C\n"
        "  --out OUT\n"
    )
    with pytest.raises(cli.ParseExit) as stop:
        cli.parse_argv(["oracle", "solve", "--help"])
    assert stop.value.text.split("\n\n")[1:] == [
        "positional arguments:\n  instance",
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --box BOX             per-coordinate integer range, e.g. '-1..2'\n"
        "  --out OUT\n",
    ]
