"""Command-line entry point.

Data goes to stdout or --out; logs go to stderr.  Exit codes: 0 success or
verification pass, 1 verification failure, 2 usage error, 3 resource limit.

The command table `COMMANDS` is the grammar: the options of each (command,
action), with GLOBAL_OPTIONS before the command.  `parse_argv` reads argv
against it in one pass per level, by the rules of the standard-library
parser tree it replaced (option prefixes, `--name=value`, negative-number
values, `--`), but refuses the `--name=--` that parser read as [], and
matches a level's option prefixes only against the arguments before its
command or action word (`--t` after `clauses separate` is `--t-in`).  The
help and every usage error are built from the table: the usage on one
line, each help text from column 24, and each error in that parser's
words.

Every --out file is written by one function, `_write`: it encodes the
chunks as UTF-8 before opening the file, and writes the bytes with
`os.writev` (so the CLI runs on POSIX systems only).  Text that a process
writes again and again is held encoded: the basis chunks of the last prep
read (`_prep_texts`), which every query against that prep writes.

Every input file is read as bytes and decoded as UTF-8 in one call, the
encoding `_write` writes, whatever the locale; line ends are left as they
are, since every text parser splits lines with `str.splitlines`.

A process keeps one value per kind of input text, each decoded at most
once: the last gadget and the last instance it read or wrote to --out
(`_gadget_text`, `_instance_text`), the last formula it read
(`_formula_text`) and the last prep it read (`_prep_texts`).  What reading
an artifact gives, read-only arrays included, is serialize's to say: a
value written to --out goes in as serialize's read-back of it
(`gadget_read_back`, `instance_read_back`).  `batch` runs many commands in
one process, so that a pipeline's steps share these.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shlex
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import cubes as cubes_mod
from . import gadgets, identities, oracle, reductions, serialize
from .errors import (
    InvalidInputError,
    LatgadError,
    NumericDegeneracyError,
    ResourceLimitError,
    VerificationError,
)
from .formulas import parse_dimacs, parse_xor
from .numeric import Tolerance

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# the most buffers one os.writev takes
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _write(path: str, chunks) -> None:
    """Write chunks, each bytes or a str written as UTF-8, to path: every
    chunk is encoded before the file is opened, the file gets mode 0o666
    less the umask, and the bytes go out in one os.writev per _IOV_MAX
    buffers, resumed where a short write stopped.  The only writer of --out
    files."""
    buffers = [chunk.encode() if isinstance(chunk, str) else chunk for chunk in chunks]
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        i = 0
        while i < len(buffers):
            written = os.writev(fd, buffers[i : i + _IOV_MAX])
            while i < len(buffers) and written >= len(buffers[i]):
                written -= len(buffers[i])
                i += 1
            if written:
                buffers[i] = memoryview(buffers[i])[written:]
    finally:
        os.close(fd)


def _emit(payload: dict, out: str | None) -> None:
    # every chunk is built before the file is opened, so a payload that
    # fails to encode leaves no file
    chunks = serialize.dump_chunks(payload)
    if out:
        _write(out, chunks)
    else:
        sys.stdout.writelines(chunks)


def _bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decoded(path: str, decode):
    """decode(the text of path): its bytes decoded as UTF-8, as `_write`
    writes them; text that is not UTF-8 or not JSON is not a JSON artifact."""
    data = _bytes(path)
    try:
        return decode(data.decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path} is not a JSON artifact: {exc}") from exc


class _LastText:
    """build(text) for the last text looked up or stored, compared by `==` (a
    memcmp, not a hash); a refused text raises and leaves the entry as it was.
    Every slot is listed in `slots`."""

    slots: list[_LastText] = []

    def __init__(self, build):
        self.build, self.text, self.value = build, None, None
        _LastText.slots.append(self)

    def cache_clear(self) -> None:
        self.text = self.value = None

    def __call__(self, text: str):
        if text != self.text:
            self.value, self.text = self.build(text), text
        return self.value

    def seed(self, text: str, read_back) -> None:
        """Make read_back(), the value that reading text gives, the entry for
        text; a value that the read would refuse leaves the entry as it was."""
        try:
            self.value, self.text = read_back(), text
        except InvalidInputError:
            pass


def _emit_through(slot: _LastText, payload: dict, out: str | None, read_back) -> None:
    """_emit of payload; a write to out also seeds slot with read_back(), the
    value that reading out back gives."""
    if not out:
        return _emit(payload, None)
    text = serialize.dumps(payload)
    _write(out, [text])
    slot.seed(text, read_back)


@_LastText
def _prep_texts(text: str):
    """The header, the basis text and the target block texts of the prep
    whose text is `text`, built once for the many queries a process may serve
    on one prep.  The basis chunks are held as UTF-8 bytes, so a query
    writes them to --out as they are; each is encoded in place of its str,
    so the basis is never held twice.  The header's arrays are read-only,
    since every later query shares them, as the reader made the gadget's."""
    art, basis = serialize.cvpp_from_json(json.loads(text))
    basis = list(basis)
    for i, chunk in enumerate(basis):
        basis[i] = chunk.encode()
    blocks = serialize.target_block_texts(art)
    for a in (art.block_columns, art.off_on, blocks[0]):
        a.flags.writeable = False
    return art, tuple(basis), blocks


@_LastText
def _gadget_text(text: str):
    """The gadget whose JSON text is `text`: gadget-build's verify and onoff
    read what its find wrote, and a run's `reduce sat`s read one gadget."""
    return serialize.gadget_from_json(json.loads(text))


def _emit_gadget(g: gadgets.IsolatingGadget, out: str | None) -> None:
    _emit_through(_gadget_text, serialize.gadget_to_json(g), out, lambda: serialize.gadget_read_back(g))


@_LastText
def _instance_text(text: str):
    """The instance whose JSON text is `text`: sat-validate's validate reads
    what its reduce wrote."""
    return serialize.instance_from_json(json.loads(text))


def _emit_instance(inst: reductions.CvpInstance, out: str | None) -> None:
    _emit_through(_instance_text, serialize.instance_to_json(inst), out, lambda: serialize.instance_read_back(inst))


def _read(path: str) -> str:
    """The text of path, its bytes decoded as UTF-8 with line ends as they
    are (every text parser splits lines with str.splitlines); bytes that are
    not UTF-8 are not a text input."""
    try:
        return _bytes(path).decode()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_box(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise InvalidInputError(f"box must look like 'lo..hi', got {text!r}") from exc


def _read_points(path: str):
    """Hex bitstrings, one per line; all lines must have equal width."""
    lines = [ln.strip() for ln in _read(path).splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError(f"no points in {path}")
    width = len(lines[0])
    if any(len(ln) != width for ln in lines):
        raise InvalidInputError("all hex bitstrings must have the same width")
    try:
        return [int(ln, 16) for ln in lines], 4 * width
    except ValueError as exc:
        raise InvalidInputError(f"{path} holds a line that is not a hex bitstring: {exc}") from exc


def _parse_grid(text: str):
    """The --grid sweep 'lo:hi:count' as count evenly spaced values."""
    try:
        lo, hi, count = text.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise InvalidInputError(f"grid must look like 'lo:hi:count' with count >= 0, got {text!r}") from exc


def _is_xor(text: str) -> bool:
    """Whether the problem line reads `p xor`.  Comment lines start with `c`,
    so the first line starting with `p` is the problem line."""
    header = next((ln.split() for ln in text.splitlines() if ln.lstrip().startswith("p")), [])
    return header[:2] == ["p", "xor"]


@_LastText
def _formula_text(text: str):
    """The formula whose text is `text`: a parity formula when the problem
    line reads `p xor`, else DIMACS.  sat-validate's reduce and validate read
    one CNF."""
    return parse_xor(text) if _is_xor(text) else parse_dimacs(text)


def _read_formula(path: str, kind: str | None = None):
    """The formula in path, through the formula cache.  kind "cnf" or "xor"
    is the only format the command reads: text in the other format goes to
    that format's parser, which refuses it as it always has."""
    text = _read(path)
    if kind is not None and _is_xor(text) != (kind == "xor"):
        return (parse_xor if kind == "xor" else parse_dimacs)(text)
    return _formula_text(text)


def _report_exit(report) -> int:
    _emit(report.to_json(), None)
    if not report.passed:
        for cond in report.failures():
            _log(f"FAIL {cond.name}: residual {cond.residual:.3g} witness {cond.witness}")
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gadget(args, tol: Tolerance) -> int:
    if args.action == "find":
        g = gadgets.find_isolating_parallelepiped(args.k, args.p)
        _emit_gadget(g, args.out)
        _log(f"gadget k={g.k} p={g.p} eps={g.eps:.6g}")
        return EXIT_OK
    if args.action == "parity":
        g = gadgets.parity_gadget(args.k, args.p, args.bit)
        _emit_gadget(g, args.out)
        _log(f"parity gadget k={g.k} p={g.p} bit={args.bit} eps={g.eps:.6g}")
        return EXIT_OK
    if args.action == "lattice":
        g = _decoded(args.infile, _gadget_text)
        _emit_gadget(gadgets.to_isolating_lattice(g), args.out)
        return EXIT_OK
    if args.action == "onoff":
        g = _decoded(args.infile, _gadget_text)
        _emit(serialize.onoff_to_json(gadgets.to_on_off(g)), args.out)
        return EXIT_OK
    if args.action == "verify":
        g = _decoded(args.infile, _gadget_text)
        report = gadgets.verify_parallelepiped(g, tol)
        if g.kind == gadgets.KIND_LATTICE:
            lattice = oracle.verify_lattice_condition(g, args.box_radius, tol)
            report = gadgets.VerificationReport(report.conditions + lattice.conditions, tol, report.check)
        return _report_exit(report)
    raise InvalidInputError(f"unknown gadget action {args.action!r}")


def _cmd_reduce(args, tol: Tolerance) -> int:
    if args.action == "sat":
        formula = _read_formula(args.cnf, "cnf")
        gadget = _decoded(args.gadget, _gadget_text)
        if args.mode == "padded":
            inst = reductions.sat_to_cvp(formula, gadget)
            gamma = None
        else:
            if args.s is None or args.c is None:
                raise InvalidInputError("gap mode needs --s and --c")
            lattice = gadgets.to_isolating_lattice(gadget)
            inst, gamma = reductions.csp_to_cvp_gap(formula, [lattice] * formula.m, args.s, args.c)
        _emit_instance(inst, args.out)
        _log(f"instance d={inst.d} n={inst.n} r={inst.radius:.6g}" + (f" gamma={gamma:.6g}" if gamma else ""))
        return EXIT_OK
    if args.action == "parity":
        formula = _read_formula(args.xor, "xor")
        if args.s is None or args.c is None:
            raise InvalidInputError("parity reduction is a gap reduction: needs --s and --c")
        lattice_for = {}
        lattices = []
        for constraint in formula.constraints:
            key = (constraint.arity, constraint.bit)
            if key not in lattice_for:
                lattice_for[key] = gadgets.to_isolating_lattice(
                    gadgets.parity_gadget(constraint.arity, args.p, constraint.bit)
                )
            lattices.append(lattice_for[key])
        inst, gamma = reductions.csp_to_cvp_gap(formula, lattices, args.s, args.c)
        _emit_instance(inst, args.out)
        _log(f"instance d={inst.d} n={inst.n} r={inst.radius:.6g} gamma={gamma:.6g}")
        return EXIT_OK
    raise InvalidInputError(f"unknown reduce action {args.action!r}")


def _cmd_params(args, tol: Tolerance) -> int:
    result = reductions.sat_gap_params(args.p, args.k, args.s, args.c, args.eps)
    payload = {
        "s_prime": serialize.fmt_real(result.s_prime),
        "c_prime": serialize.fmt_real(result.c_prime),
        "gamma_bound": serialize.fmt_real(result.params.gamma_bound),
        "degenerate": result.params.degenerate,
    }
    if result.params.gamma is not None:
        payload["gamma"] = serialize.fmt_real(result.params.gamma)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_cvpp(args, tol: Tolerance) -> int:
    if args.action in ("prep", "inf-prep"):
        onoff = None  # the max-norm prep needs no gadget
        if args.action == "prep":
            onoff = gadgets.to_on_off(_decoded(args.gadget, _gadget_text))
        # the prep file holds the header alone: a query rebuilds the basis text from it
        art = reductions.cvpp_header(args.n, args.k, onoff)
        _emit(serialize.cvpp_to_json(art), args.out)
        _log(f"prep basis {art.d}x{art.n}, {art.M} clause blocks")
        return EXIT_OK
    if args.action == "query":
        art, basis, blocks = _decoded(args.prep, _prep_texts)
        formula = _read_formula(args.cnf, "cnf")
        if args.w is not None:
            # through the constructor, which checks the threshold
            formula = dataclasses.replace(formula, threshold=args.w)
        present, radius = reductions.cvpp_table_query(art, formula)
        threshold = formula.threshold if formula.threshold is not None else formula.m
        meta = {"mode": "cvpp-" + art.mode, "threshold": threshold}
        if art.gadget is not None:
            meta["eps"] = art.gadget.eps
        if not args.out:
            basis = tuple(chunk.decode() for chunk in basis)
        _emit(serialize.cvp_to_json(art.p, basis, serialize.target_text(blocks, present), radius, meta), args.out)
        return EXIT_OK
    raise InvalidInputError(f"unknown cvpp action {args.action!r}")


def _cmd_oracle(args, tol: Tolerance) -> int:
    if args.action == "solve":
        inst = _decoded(args.instance, _instance_text)
        box = _parse_box(args.box) if args.box else (0, 1)
        sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, box, tol)
        _emit(
            {
                "distance": serialize.fmt_real(sol.distance),
                "radius": serialize.fmt_real(inst.radius),
                "within_radius": sol.distance <= tol.ceiling(inst.radius),
                "closest": [list(z) for z in sol.closest],
            },
            args.out,
        )
        return EXIT_OK
    if args.action == "validate":
        inst = _decoded(args.instance, _instance_text)
        formula = _read_formula(args.cnf)
        box = _parse_box(args.box) if args.box else None
        report = oracle.validate_reduction(formula, inst, box, tol)
        return _report_exit(report)
    raise InvalidInputError(f"unknown oracle action {args.action!r}")


def _cmd_identities(args, tol: Tolerance) -> int:
    if args.action == "skp":
        res = identities.s_kp(args.k, args.p)
        _emit(
            {
                "value": serialize.fmt_real(res.value),
                "sign": res.sign,
                "lower_bound": serialize.fmt_real(res.lower_bound),
            },
            args.out,
        )
        return EXIT_OK
    if args.action == "integral":
        direct = identities.direct_alt_sum(args.n, args.m, args.p)
        via_integral = identities.alt_sum_integral(args.n, args.m, args.p)
        _emit(
            {
                "direct": serialize.fmt_real(direct),
                "integral": serialize.fmt_real(via_integral),
                "abs_diff": serialize.fmt_real(abs(direct - via_integral)),
            },
            args.out,
        )
        return EXIT_OK
    if args.action == "bounds":
        rep = identities.non_alt_bound_check(args.k, args.p, args.c)
        payload = {
            "lhs": serialize.fmt_real(rep.lhs),
            "rhs": serialize.fmt_real(rep.rhs),
            "passed": rep.passed,
        }
        if rep.rhs_c1 is not None:
            payload["rhs_c1"] = serialize.fmt_real(rep.rhs_c1)
            payload["passed_c1"] = rep.passed_c1
        _emit(payload, args.out)
        return EXIT_OK if rep.passed else EXIT_FAIL
    if args.action == "ramanujan":
        residual = identities.ramanujan_check(args.k, args.x)
        _emit({"residual": serialize.fmt_real(residual)}, args.out)
        return EXIT_OK
    if args.action == "cp-svp":
        if args.find_p0:
            _emit({"p0": serialize.fmt_real(identities.find_p0())}, args.out)
            return EXIT_OK
        if args.grid:
            ps = _parse_grid(args.grid)
            rows = ["p,W,C"]
            for p in ps:
                const = identities.svp_constants(float(p))
                c_str = serialize.fmt_real(const.C) if const.C is not None else ""
                rows.append(f"{serialize.fmt_real(const.p)},{serialize.fmt_real(const.W)},{c_str}")
            text = "\n".join(rows) + "\n"
            if args.out:
                _write(args.out, [text])
            else:
                sys.stdout.write(text)
            return EXIT_OK
        if args.p is None:
            raise InvalidInputError("cp-svp needs --p, --grid, or --find-p0")
        const = identities.svp_constants(args.p)
        _emit(
            {
                "W": serialize.fmt_real(const.W),
                "C": serialize.fmt_real(const.C) if const.C is not None else None,
                "defined": const.C is not None,
            },
            args.out,
        )
        return EXIT_OK
    raise InvalidInputError(f"unknown identities action {args.action!r}")


def _cmd_cubes(args, tol: Tolerance) -> int:
    points, n = _read_points(args.infile)
    cube = cubes_mod.find_affine_cube(points, args.dim, n)
    if cube is None:
        _emit({"found": False}, args.out)
        return EXIT_FAIL
    width = (n + 3) // 4
    _emit(
        {
            "found": True,
            "base": format(cube.base, f"0{width}x"),
            "directions": [format(d, f"0{width}x") for d in cube.directions],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_clauses(args, tol: Tolerance) -> int:
    if args.action == "isolate":
        points, n = _read_points(args.infile)
        clause = cubes_mod.clause_isolating_one(points, args.k, n)
        _emit({"literals": list(clause.literals)}, args.out)
        return EXIT_OK
    if args.action == "separate":
        close, n1 = _read_points(args.close)
        away, n2 = _read_points(args.away)
        if n1 != n2:
            raise InvalidInputError("point files must use the same width")
        clause = cubes_mod.separating_3cnf(close, away, n1)
        _emit({"literals": list(clause.literals)}, args.out)
        return EXIT_OK
    raise InvalidInputError(f"unknown clauses action {args.action!r}")


def _batch_lines(text: str) -> list[list[str]]:
    """The shlex-split command lines of a batch; blank lines and lines that
    start with `#` are skipped.  Every line is split and checked before any runs."""
    commands = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            raise InvalidInputError(f"batch line {number}: {exc}") from exc
        # the command as dispatch parses it, global options before it
        # included; a line that does not parse runs no batch
        try:
            nested = parse_argv(argv).command == "batch"
        except ParseExit:
            nested = False
        if nested:
            raise InvalidInputError(f"batch line {number}: a batch does not run batch")
        commands.append(argv)
    return commands


def _cmd_batch(args, tol: Tolerance) -> int:
    """Run each command of the batch through dispatch, in order, in this
    process, and write one JSON line per command: its argv, exit code, wall
    seconds and stdout text.  Stderr passes through; the exit code is the
    largest one seen."""
    commands = _batch_lines(_read(args.infile) if args.infile else sys.stdin.read())
    worst = EXIT_OK
    for argv in commands:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = dispatch(argv)
        seconds = time.perf_counter() - t0
        record = {"argv": argv, "exit_code": code, "seconds": seconds, "stdout": out.getvalue()}
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        sys.stdout.flush()
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# the command table and its parser


class _Opt:
    """One entry of the command table: an option `--name VALUE`, converted by
    kind and checked against choices; a flag when kind is bool; the
    positional argument when name has no leading '-'.  The value goes to
    dest, the name without its dashes by default."""

    __slots__ = ("name", "kind", "required", "default", "dest", "choices", "help")

    def __init__(self, name, kind=str, *, required=False, default=None, dest=None, choices=None, help=None):
        self.name, self.kind, self.required, self.choices, self.help = name, kind, required, choices, help
        self.default = False if kind is bool else default
        self.dest = dest or name.lstrip("-").replace("-", "_")


_K = _Opt("--k", int, required=True)
_N = _Opt("--n", int, required=True)
_P = _Opt("--p", float, required=True)
_S, _C = _Opt("--s", float), _Opt("--c", float)
_IN = _Opt("--in", dest="infile", required=True)
_CNF = _Opt("--cnf", required=True)
_OUT = _Opt("--out")

# the options taken before the command
GLOBAL_OPTIONS = (_Opt("--tol-rel", float, default=1e-9), _Opt("--tol-abs", float, default=1e-12))

# The grammar of the CLI: the options of each (command, action), in the
# order usage lines and "required" errors list them; a command without
# actions is keyed (command, None).  Commands and actions are listed in the
# order of their first key.
COMMANDS = {
    ("gadget", "find"): (_K, _P, _OUT),
    ("gadget", "parity"): (_K, _P, _Opt("--bit", int, default=0), _OUT),
    ("gadget", "lattice"): (_IN, _OUT),
    ("gadget", "onoff"): (_IN, _OUT),
    ("gadget", "verify"): (_IN, _Opt("--box-radius", int, default=3)),
    ("reduce", "sat"): (
        _CNF,
        _Opt("--gadget", required=True),
        _Opt("--mode", choices=("padded", "gap"), default="padded"),
        _S,
        _C,
        _OUT,
    ),
    ("reduce", "parity"): (_Opt("--xor", required=True), _P, _S, _C, _OUT),
    ("params", "gap"): (
        _P,
        _K,
        _Opt("--s", float, required=True),
        _Opt("--c", float, required=True),
        _Opt("--eps", float),
        _OUT,
    ),
    ("cvpp", "prep"): (_N, _K, _Opt("--gadget", required=True, help="(k+1)-ary isolating gadget JSON"), _OUT),
    ("cvpp", "inf-prep"): (_N, _K, _OUT),
    ("cvpp", "query"): (_Opt("--prep", required=True), _CNF, _Opt("--w", int), _OUT),
    ("oracle", "solve"): (
        _Opt("instance", required=True),
        _Opt("--box", help="per-coordinate integer range, e.g. '-1..2'"),
        _OUT,
    ),
    ("oracle", "validate"): (_CNF, _Opt("--instance", required=True), _Opt("--box")),
    ("identities", "skp"): (_K, _P, _OUT),
    ("identities", "integral"): (_N, _Opt("--m", int, required=True), _P, _OUT),
    ("identities", "bounds"): (_K, _P, _Opt("--c", int, default=0), _OUT),
    ("identities", "ramanujan"): (_K, _Opt("--x", float, required=True), _OUT),
    ("identities", "cp-svp"): (
        _Opt("--p", float),
        _Opt("--find-p0", bool),
        _Opt("--grid", help="CSV sweep lo:hi:count"),
        _OUT,
    ),
    ("cubes", "find"): (
        _Opt("--in", dest="infile", required=True, help="hex bitstrings, one per line"),
        _Opt("--dim", int, required=True),
        _OUT,
    ),
    ("clauses", "isolate"): (_IN, _K, _OUT),
    ("clauses", "separate"): (
        _Opt("--s-in", dest="close", required=True),
        _Opt("--t-in", dest="away", required=True),
        _OUT,
    ),
    ("batch", None): (_Opt("--in", dest="infile", help="command lines, one per line (default: stdin)"),),
}

_HELP = _Opt("-h, --help", bool, help="show this help message and exit")
# the positional argument that names the command, or the action
_COMMAND, _ACTION = _Opt("command", required=True), _Opt("action", required=True)
_DASHES = "--"  # the mark of the `--` after which every argument is a value

# each command's actions, [None] for a command without actions
_ACTIONS: dict[str, list] = {}
for _key in COMMANDS:
    _ACTIONS.setdefault(_key[0], []).append(_key[1])


class ParseExit(Exception):
    """parse_argv's end without a namespace: help (code 0, text for stdout)
    or a usage error (code 2, text for stderr)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code, self.text = code, text


def _level(words: tuple) -> tuple[tuple, _Opt | None, list | None]:
    """(options, positional argument, names below) of the level that words
    name: the top level (), a command, or a (command, action).  The names
    below are the commands, or the command's actions, that the positional
    argument chooses from; None where it is no command or action."""
    if not words:
        return GLOBAL_OPTIONS, _COMMAND, list(_ACTIONS)
    if len(words) == 1 and _ACTIONS[words[0]] != [None]:
        return (), _ACTION, _ACTIONS[words[0]]
    opts = COMMANDS[words if len(words) == 2 else (words[0], None)]
    return opts, next((o for o in opts if o.name[0] != "-"), None), None


def _negative_number(arg: str) -> bool:
    """Whether arg, which starts with '-', is a negative number as the old
    parser read one: digits, or maybe digits, a '.' and digits, after the
    '-' and before an optional last newline.  Such an argument is a value."""
    body = arg[1:-1] if arg.endswith("\n") else arg[1:]
    whole, dot, frac = body.partition(".")
    return body.isdecimal() or bool(dot) and (not whole or whole.isdecimal()) and frac.isdecimal()


def _option(words: tuple, arg: str, opts: tuple):
    """How the level words, with options opts, reads arg, which starts with
    '-', the old parser's way: None for a value, else (option, option
    string, text after '=' or None), the option None when the level has no
    such option.  An option string wins, else a unique prefix of one."""
    head, eq, text = arg.partition("=")
    text = text if eq else None
    if head == "-h" or head == "--help":
        return _HELP, head, text
    for o in opts:
        if head == o.name:
            return o, head, text
    if len(arg) == 1:
        return None
    if arg[1] == "-":
        hits = [(_HELP, "--help", text)] if "--help".startswith(head) else []
        for o in opts:
            if o.name.startswith(head):
                hits.append((o, o.name, text))
    else:
        # the one one-dash option string, joined to its value as in -hh
        hits = [(_HELP, "-h", arg[2:])] if arg[:2] == "-h" else []
    if len(hits) > 1:
        raise _error(words, f"ambiguous option: {arg} could match {', '.join(name for _, name, _ in hits)}")
    if hits:
        return hits[0]
    if " " in arg or arg[1] != "-" and _negative_number(arg):
        return None
    return None, arg, None


def _takes_next(mark) -> bool:
    """Whether the option that mark (of `_option`) reads takes the next argument as its value."""
    return mark is not None and mark[0] is not None and mark[0].kind is not bool and mark[2] is None


def _value(words: tuple, opt: _Opt, text: str):
    try:
        value = opt.kind(text)
    except (TypeError, ValueError):
        raise _error(words, f"argument {opt.name}: invalid {opt.kind.__name__} value: {text!r}") from None
    if opt.choices is not None and value not in opt.choices:
        choices = ", ".join(map(repr, opt.choices))
        raise _error(words, f"argument {opt.name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _scan(words: tuple, args: list, values: dict) -> list:
    """Parse args at the level words names into values, as the parser
    tree this table replaced did: every argument up to the command or
    action word, if the level takes one, is read first (an ambiguous prefix
    is an error), then options take their values in order and the
    positional argument takes the first value left, a command or an action
    taking every argument after it to the level below.  Returns the
    arguments no level took."""
    opts, positional, below = _level(words)
    wanted = opts if below is None else (*opts, positional)
    for o in wanted:
        values[o.dest] = o.default
    end = args.index("--") if "--" in args else len(args)
    marks = []
    for arg in args[:end]:
        marks.append(_option(words, arg, opts) if arg[:1] == "-" else None)
        if below is not None and marks[-1] is None and not (len(marks) > 1 and _takes_next(marks[-2])):
            break  # a value no option takes: the command or action word, the rest the level below's
    else:
        if end < len(args):
            marks += [_DASHES] + [None] * (len(args) - end - 1)
    extras, seen, i, n = [], set(), 0, len(args)
    while i < n:
        mark = marks[i]
        if mark is None or mark is _DASHES:
            first = i + (mark is _DASHES)  # the value after a leading `--`
            if positional is None or first == n:
                extras.append(args[i])
                i += 1
            elif below is not None:
                name = args[i]
                if name not in below:
                    choices = ", ".join(map(repr, below))
                    raise _error(words, f"argument {positional.name}: invalid choice: {name!r} (choose from {choices})")
                values[positional.dest] = name
                seen.add(positional)
                extras += _scan((*words, name), args[i + 1 :], values)
                break
            else:
                values[positional.dest] = args[first]
                seen.add(positional)
                i = first + 1
                if i < n and marks[i] is _DASHES:  # a `--` right after the value goes with it
                    i += 1
                positional = None
            continue
        opt, name, text = mark
        if opt is None:
            extras.append(args[i])
            i += 1
        elif opt.kind is bool:
            if opt is _HELP and name == "-h":
                # -hh is -h twice
                while text and text[0] == "h":
                    text = text[1:] or None
            if text is not None:
                shown = "-h/--help" if opt is _HELP else name
                raise _error(words, f"argument {shown}: ignored explicit argument {text!r}")
            if opt is _HELP:
                raise ParseExit(EXIT_OK, _help(words))
            values[opt.dest] = True
            seen.add(opt)
            i += 1
        else:
            if text is None:
                if i + 1 == n or marks[i + 1] is not None:
                    raise _error(words, f"argument {name}: expected one argument")
                text = args[i + 1]
                i += 1
            elif text == "--":
                # the old parser dropped a `--` given after '=' and stored []
                raise _error(words, f"argument {name}: expected one argument")
            values[opt.dest] = _value(words, opt, text)
            seen.add(opt)
            i += 1
    missing = [o.name for o in wanted if o.required and o not in seen]
    if missing:
        raise _error(words, f"the following arguments are required: {', '.join(missing)}")
    return extras


def parse_argv(argv) -> SimpleNamespace:
    """The values of argv (without the program name) by their dests: the
    global options, `command`, `action` (but for `batch`) and the action's
    options.  Raises ParseExit for help and for usage errors."""
    values = {}
    extras = _scan((), list(argv), values)
    if extras:
        raise _error((), f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _usage(words: tuple) -> str:
    """The usage line of the level words names, on one line: the options
    after the program, then the positional argument."""
    opts, positional, below = _level(words)
    parts = ["usage: latgad", *words, "[-h]"]
    for o in opts:
        if o.name[0] == "-":
            parts.append(_invocation(o) if o.required else f"[{_invocation(o)}]")
    if below:
        parts += ["{" + ",".join(below) + "}", "..."]
    elif positional is not None:
        parts.append(positional.name)
    return " ".join(parts)


def _invocation(o: _Opt) -> str:
    """An option as usage and help show it: its name, and its value's
    name or choices unless it is a flag."""
    if o.kind is bool:
        return o.name
    return f"{o.name} {{{','.join(o.choices)}}}" if o.choices else f"{o.name} {o.dest.upper()}"


def _help(words: tuple) -> str:
    """The help of the level words names: its usage, its positional
    argument and its options, each with its help text from column 24."""
    opts, positional, below = _level(words)
    blocks = [_usage(words)]
    if positional is not None:
        shown = "{" + ",".join(below) + "}" if below else positional.name
        blocks.append(f"positional arguments:\n  {shown}")
    lines = ["options:"]
    for o in (_HELP, *opts):
        if o.name[0] == "-":
            text = _invocation(o)
            lines.append(f"  {text}" if o.help is None else f"  {text:20}  {o.help}")
    blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _error(words: tuple, message: str) -> ParseExit:
    return ParseExit(EXIT_USAGE, f"{_usage(words)}\n{' '.join(('latgad', *words))}: error: {message}\n")


_HANDLERS = {
    "gadget": _cmd_gadget,
    "reduce": _cmd_reduce,
    "params": _cmd_params,
    "cvpp": _cmd_cvpp,
    "oracle": _cmd_oracle,
    "identities": _cmd_identities,
    "cubes": _cmd_cubes,
    "clauses": _cmd_clauses,
    "batch": _cmd_batch,
}


def dispatch(argv=None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
    except ParseExit as stop:
        (sys.stdout if stop.code == EXIT_OK else sys.stderr).write(stop.text)
        return stop.code
    try:
        return _HANDLERS[args.command](args, Tolerance(rel=args.tol_rel, abs=args.tol_abs))
    except ResourceLimitError as exc:
        _log(f"resource limit: {exc}")
        return EXIT_RESOURCE
    except (VerificationError, NumericDegeneracyError) as exc:
        _log(f"failure: {exc}")
        return EXIT_FAIL
    except InvalidInputError as exc:
        _log(f"usage error: {exc}")
        return EXIT_USAGE
    except LatgadError as exc:
        _log(f"error: {exc}")
        return EXIT_FAIL
    except OSError as exc:
        _log(f"io error: {exc}")
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
