"""Command-line entry point.

Data goes to stdout or --out; logs go to stderr.  Exit codes: 0 success or
verification pass, 1 verification failure, 2 usage error, 3 resource limit.

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

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import os
import shlex
import sys
import time

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
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                nested = build_parser().parse_args(argv).command == "batch"
            except SystemExit:
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
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later dispatch."""
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
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
