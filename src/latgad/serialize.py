"""JSON artifact schemas with byte-stable serialization.

All real numbers travel as decimal strings with 17 significant digits, which
round-trip binary64 exactly and keep output independent of platform float
formatting.  Matrices are stored as lists of columns.  One table, `_FIELDS`,
holds the parser and the domain of every artifact field and instance meta
key, and every reader goes through it: a matrix or vector entry must be
finite, eps, radius and alpha finite and > 0.  Instance meta keeps its mode,
one of `_MODE_KEYS`, and the keys of that mode, typed; any other key is
dropped.  The arrays read are read-only, so a process can share what it
reads; `gadget_read_back` and `instance_read_back` give what reading a
written artifact gives, checking the domain of their arrays only.

Artifacts repeat a few values many times (a CVPP basis of 153 700 entries
holds 19 distinct strings), so vectors and matrices go through a table:
`fmt_real` runs once per distinct binary64 bit pattern and `parse_real` once
per distinct entry.  The formatting table finds the patterns by a sort and
looks each entry up by binary search.  The bytes written and the values read
are the same as formatting and parsing each entry on its own.

Formatted reals need no JSON escaping, so each array of them is joined
(`_joined`) into JSON text, and written arrays are held as tuples of str
chunks alone: `fmt_vector` gives ("[", text, "]"), and `_matrix_text` puts
a matrix's column texts, never joined, between "[[", "],[" and "]]".
`dump_chunks` writes a tuple as it is, without the encoder, which would
escape-check each string.  `_gadget_payload` writes gadgets and on-off
gadgets: one in class form (`gadgets.form_of`), about 30 values at k = 10,
has each class value formatted once.  Its texts are joined from row blocks
(`gadgets.class_blocks`): a column's text over 2^s r consecutive rows
depends only on the popcount of their shared high bits and on the column's
bit there or its low position, so each of those few block texts is one
gather and one join, and each column and target text is one join of its
2^(k - s) block texts.

A CVPP prep stores only its generator: n, k, the mode and, for the finite
norms, the on-off gadget.  A query writes the basis those determine without
building the float matrix: `_basis_text` formats each distinct entry of the
block columns (the gadget's live rows) and their negations once, and joins
each column, runs of zeros included, into its text in `fmt_columns(basis)`.
`target_block_texts` formats the 2 x 2^k target blocks and the tail once,
and `target_text` is a query's only step: it gathers the block texts in
table order and joins them.  The basis and block texts are a function of the
prep alone, so a caller that serves many queries builds them once.  Both are
chunks, so no step copies the whole document.  A tuple may hold bytes, the
UTF-8 of its text: the CLI keeps a prep's basis chunks encoded, and its one
--out writer takes str and bytes chunks alike.
"""

from __future__ import annotations

import json
import math
from itertools import chain, combinations

import numpy as np

from .errors import InvalidInputError, NumericDegeneracyError
from .gadgets import IsolatingGadget, OnOffGadget, carry_form, class_blocks, form_of
from .numeric import pvalue
from .reductions import CvpInstance, CvppArtifacts, cvpp_header

GADGET_SCHEMA = "latgad-gadget-v1"
ONOFF_SCHEMA = "latgad-onoff-v1"
CVP_SCHEMA = "latgad-cvp-v1"
CVPP_SCHEMA = "latgad-cvpp-prep-v2"


def fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def parse_real(s) -> float:
    if isinstance(s, bool):  # JSON true and false are no reals
        raise InvalidInputError(f"bad decimal string {s!r}")
    try:
        return float(s)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad decimal string {s!r}") from exc


def _parse_int(s) -> int:
    """An int, an integral float or a decimal integer string, as an int; a
    boolean or a fractional number is refused rather than truncated."""
    if isinstance(s, bool) or (isinstance(s, float) and not s.is_integer()):
        raise InvalidInputError(f"bad integer {s!r}")
    try:
        return int(s)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad integer {s!r}") from exc


def _fmt_table(a: np.ndarray) -> np.ndarray:
    """fmt_real of every entry of the float array a, as an object array of its
    shape.  Distinct bit patterns, not values, key the table, so -0.0 still
    prints "-0" beside 0.0's "0".  The patterns are found by a sort and
    looked up by binary search: artifacts hold long runs of a few values,
    where that beats np.unique's inverse."""
    bits = np.ascontiguousarray(a, dtype=float).view(np.uint64)
    distinct = np.sort(bits, axis=None)
    first = np.ones(distinct.size, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    table = np.array([fmt_real(x) for x in distinct.view(float)], dtype=object)
    return table[np.searchsorted(distinct, bits)]


def _entries(v) -> list:
    """v itself, which must be a JSON array: a string or an object is not a
    list of entries."""
    if not isinstance(v, list):
        raise InvalidInputError(f"expected a JSON array, got {type(v).__name__}")
    return v


def _parse_table(items: list) -> np.ndarray:
    """parse_real of every entry, run once per distinct entry."""
    try:
        table = {s: parse_real(s) for s in set(items)}
    except TypeError as exc:
        raise InvalidInputError("entries must be decimal strings, not lists or objects") from exc
    # bare JSON 0, 0.0, -0.0 and false are one dict key, as are 1, 1.0 and
    # true: the table would give them one zero's sign, or pass a boolean
    convert = parse_real if 0 in table or 1 in table else table.__getitem__
    return np.fromiter(map(convert, items), float, len(items))


def _joined(strings) -> str:
    """fmt_real strings as the JSON text of the array's entries, without the
    brackets.  fmt_real writes only digits, signs, '.', 'e', "inf" and "nan",
    which need no escaping."""
    return '"' + '","'.join(strings) + '"' if strings else ""


def _matrix_text(columns: list[str]) -> tuple[str, ...]:
    """The JSON text of a matrix, as chunks, from its column texts without
    brackets, each a chunk of its own; no columns give ("[]",)."""
    marks = ["[[", *["],["] * (len(columns) - 1)]
    return (*chain.from_iterable(zip(marks, columns)), "]]") if columns else ("[]",)


def fmt_vector(v) -> tuple[str, ...]:
    return ("[", _joined(_fmt_table(np.asarray(v, dtype=float).ravel()).tolist()), "]")


def parse_vector(v) -> np.ndarray:
    return _parse_table(_entries(v))


def fmt_columns(M) -> tuple[str, ...]:
    return _matrix_text(list(map(_joined, _fmt_table(np.asarray(M, dtype=float).T).tolist())))


def _gadget_texts(g: IsolatingGadget | OnOffGadget) -> list[str]:
    """The JSON text, without brackets, of fmt_vector of each column of g's
    V, then of each target.  Through a class form (`form_of`) each class
    value is formatted and quoted once, each distinct row block of
    `class_blocks` is one gather and one join of them, and each text one
    join of its blocks; any other gadget is formatted in one _fmt_table
    pass."""
    form = form_of(g.V, g.targets, g.form)
    if form is None:
        return list(map(_joined, _fmt_table(np.vstack([np.asarray(g.V, dtype=float).T, *g.targets])).tolist()))
    blocks, t_blocks, columns, t_order = class_blocks(g.k, form.rows.size >> g.k)
    v, *ts = (np.array([f'"{fmt_real(x)}"' for x in a.tolist()], dtype=object) for a in (form.values, *form.targets))
    return _block_joins(v, blocks, columns) + [text for t in ts for text in _block_joins(t, t_blocks, t_order)]


def _block_joins(quoted: np.ndarray, blocks: np.ndarray, order: np.ndarray) -> list[str]:
    """For each row of order, the join of its block texts, block b's text
    being the join of quoted[blocks[b]]."""
    texts = np.array([",".join(block) for block in quoted[blocks].tolist()], dtype=object)
    return [",".join(texts[row].tolist()) for row in order]


def parse_columns(cols) -> np.ndarray:
    cols = [_entries(col) for col in _entries(cols)]
    if not cols:
        raise InvalidInputError("matrix needs at least one column")
    if any(len(col) != len(cols[0]) for col in cols):
        raise InvalidInputError(f"matrix columns differ in length: {sorted({len(col) for col in cols})}")
    # C order, as np.column_stack gave, so the matrix products downstream
    # round as before
    return _parse_table(list(chain.from_iterable(cols))).reshape(len(cols), len(cols[0])).T.copy()


def parse_pnorm(s) -> float:
    """A validated norm exponent from its artifact text: fmt_real's, which
    writes the max norm's math.inf as "inf"."""
    return pvalue(parse_real(s))


_FINITE = (lambda a: np.isfinite(a).all(), "has an entry that is not finite")
_POSITIVE = (lambda x: math.isfinite(x) and x > 0, "must be finite and > 0")

# Every artifact field and instance meta key that a reader computes with: the
# name of its parser, looked up at call time (a wrapper set on this module's
# attribute sees every read), and its domain as a test and the words of the
# refusal.  The constructors check what ties fields together (shapes, k).
_FIELDS = {
    "p": ("parse_pnorm", None, None),
    **dict.fromkeys(("k", "n"), ("_parse_int", None, None)),
    **dict.fromkeys(("V", "basis"), ("parse_columns", *_FINITE)),
    **dict.fromkeys(("t", "t_on", "t_off", "target"), ("parse_vector", *_FINITE)),
    **dict.fromkeys(("eps", "radius", "alpha"), ("parse_real", *_POSITIVE)),
    "threshold": ("_parse_int", lambda w: w >= 0, "must be >= 0"),
    **dict.fromkeys(("s", "c"), ("parse_real", lambda x: 0 < x <= 1, "must lie in (0, 1]")),
    "gamma": ("parse_real", lambda g: math.isfinite(g) and g >= 1, "must be finite and >= 1"),
}

# instance meta: each mode and the keys that something reads from it, in the
# order they are read (oracle validate reads threshold, s, c and gamma; the
# benchmark's checks read eps and alpha)
_MODE_KEYS = {
    "padded": ("threshold", "eps", "alpha"),
    "gap": ("s", "c", "gamma"),
    "cvpp-lp": ("threshold", "eps"),
    "cvpp-inf": ("threshold",),
}


def _field(key: str, value):
    """value of the field key, parsed and held to its domain; arrays come out
    read-only, so a process shares what it reads with every later read of the
    same text.  An array value is a read-back's own, parsed already: only its
    domain is checked."""
    parse, valid, words = _FIELDS[key]
    x = value if isinstance(value, np.ndarray) else globals()[parse](value)
    if valid is not None and not valid(x):
        shown = "" if isinstance(x, np.ndarray) else f", got {x!r}"
        raise InvalidInputError(f"{key} {words}{shown}")
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    return x


def _fields(d, schema: str, *keys: str) -> list:
    """The values of keys in d, which must be a `schema` artifact holding
    every one of them: read by _field where _FIELDS lists the key, else as
    JSON gives them."""
    found = d.get("schema") if isinstance(d, dict) else type(d).__name__
    if found != schema:
        raise InvalidInputError(f"expected schema {schema}, got {found!r}")
    missing = [key for key in keys if key not in d]
    if missing:
        raise InvalidInputError(f"{schema} artifact has no {', '.join(map(repr, missing))}")
    return [_field(key, d[key]) if key in _FIELDS else d[key] for key in keys]


def _checked(**values) -> list:
    """The values, read by _field: what a read-back hands a constructor."""
    return [_field(key, value) for key, value in values.items()]


def _meta_in(meta) -> dict:
    """The instance meta that something reads: mode, one of _MODE_KEYS, and
    the keys of that mode that meta holds, each read by _field.  Every other
    key is dropped, and meta without a mode reads as {}."""
    if not isinstance(meta, dict):
        raise InvalidInputError(f"instance meta must be an object, got {meta!r}")
    if "mode" not in meta:
        return {}
    mode = meta["mode"]
    if not (isinstance(mode, str) and mode in _MODE_KEYS):
        raise InvalidInputError(f"instance meta mode must be one of {', '.join(_MODE_KEYS)}, got {mode!r}")
    out = {"mode": mode}
    for key in _MODE_KEYS[mode]:
        if key in meta:
            out[key] = _field(key, meta[key])
    if not out.get("s", 0) <= out.get("c", 1):
        raise InvalidInputError(f"instance meta needs s <= c, got s={out['s']!r}, c={out['c']!r}")
    return out


# json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False),
# without building an encoder per call: inf and nan are no JSON numbers
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def dump_chunks(obj: dict, end: str = "}\n") -> list[str]:
    """Compact JSON with sorted keys and a final newline (end), as a list of
    strings to write in order.  A top-level tuple value is JSON text already
    encoded, in chunks (an array from fmt_vector, fmt_columns or a writer),
    and is written as is."""
    out = ["{"]
    for i, (key, value) in enumerate(sorted(obj.items())):
        out.append(("," if i else "") + _compact(key) + ":")
        if isinstance(value, tuple):
            out.extend(value)
        else:
            try:
                out.append(_compact(value))
            except ValueError as exc:
                raise NumericDegeneracyError(f"{key} holds a number that is not finite: {exc}") from exc
    out.append(end)
    return out


def dumps(obj: dict) -> str:
    return "".join(dump_chunks(obj))


def _meta_out(meta: dict) -> dict:
    return {key: fmt_real(value) if isinstance(value, (np.floating, float)) else value for key, value in meta.items()}


# ---------------------------------------------------------------------------
# gadgets


def _gadget_payload(g: IsolatingGadget | OnOffGadget, schema: str, *targets: str) -> dict:
    """The fields of a gadget or on-off artifact that both kinds hold, with
    the targets under the keys targets: V's chunks are the column texts of
    `_gadget_texts` themselves."""
    texts = _gadget_texts(g)
    return {
        "schema": schema,
        "p": fmt_real(g.p),
        "k": g.k,
        "V": _matrix_text(texts[: -len(targets)]),
        **{key: ("[", t, "]") for key, t in zip(targets, texts[-len(targets) :])},
        "eps": fmt_real(g.eps),
    }


def gadget_to_json(g: IsolatingGadget) -> dict:
    out = _gadget_payload(g, GADGET_SCHEMA, "t")
    out["kind"] = g.kind
    if g.constraint is not None:
        out["constraint"] = g.constraint
    return out


def gadget_from_json(d: dict) -> IsolatingGadget:
    return carry_form(IsolatingGadget(*_fields(d, GADGET_SCHEMA, "p", "k", "V", "t", "eps", "kind"), d.get("constraint")))


def gadget_read_back(g: IsolatingGadget) -> IsolatingGadget:
    """The gadget that reading the text of gadget_to_json(g) gives, without
    formatting or parsing V and t, which are g's own arrays, made read-only,
    when they are C-ordered float64, and g's class form; meta is dropped."""
    V, t = np.ascontiguousarray(g.V, dtype=float), np.ascontiguousarray(g.t, dtype=float)
    fields = _checked(p=g.p, k=g.k, V=V, t=t, eps=g.eps)
    return carry_form(IsolatingGadget(*fields, g.kind, json.loads(_compact(g.constraint))), g.form)


def onoff_to_json(g: OnOffGadget) -> dict:
    return _gadget_payload(g, ONOFF_SCHEMA, "t_on", "t_off")


def onoff_from_json(d: dict) -> OnOffGadget:
    return carry_form(OnOffGadget(*_fields(d, ONOFF_SCHEMA, "p", "k", "V", "t_on", "t_off", "eps")))


# ---------------------------------------------------------------------------
# instances and preprocessing artifacts


def cvp_to_json(p, basis, target, radius: float, meta: dict) -> dict:
    """The latgad-cvp-v1 payload, with the basis and target already
    formatted: a CVPP query passes the chunks of text built from its prep.
    Takes the parts rather than a CvpInstance so that CVPP queries skip the
    instance's rank check."""
    return {
        "schema": CVP_SCHEMA,
        "p": fmt_real(p),
        "basis": basis,
        "target": target,
        "radius": fmt_real(radius),
        "meta": _meta_out(meta),
    }


def instance_to_json(inst: CvpInstance) -> dict:
    return cvp_to_json(inst.p, fmt_columns(inst.basis), fmt_vector(inst.target), inst.radius, inst.meta)


def instance_from_json(d: dict) -> CvpInstance:
    fields = _fields(d, CVP_SCHEMA, "p", "basis", "target", "radius")
    return CvpInstance(*fields, _meta_in(d.get("meta", {})))


def instance_read_back(inst: CvpInstance) -> CvpInstance:
    """The instance that reading the text of instance_to_json(inst) gives,
    without formatting or parsing the arrays: every binary64 real
    round-trips fmt_real, and the meta keys that are read parse to what
    they hold.  The basis and target are inst's own arrays when they are
    C-ordered float64, made read-only."""
    basis, target = np.ascontiguousarray(inst.basis, dtype=float), np.ascontiguousarray(inst.target, dtype=float)
    fields = _checked(p=inst.p, basis=basis, target=target, radius=inst.radius)
    return CvpInstance(*fields, _meta_in(inst.meta))


def cvpp_to_json(art: CvppArtifacts) -> dict:
    out = {"schema": CVPP_SCHEMA, "mode": art.mode, "n": art.n, "k": art.k}
    if art.gadget is not None:
        out["gadget"] = tuple(dump_chunks(onoff_to_json(art.gadget), "}"))
    return out


def _basis_text(art: CvppArtifacts) -> tuple[str, ...]:
    """The JSON text of fmt_columns(art.basis), built from the header, as
    chunks: one per column, and the brackets and commas between them.

    Over the variable sets in table order, column v holds block B_s where v
    is the set's s-th variable, else a run of zeros; B_s is the 2^k mask
    blocks of column s of `block_columns`, negated where mask bit k-1-s is
    set.  The column of the diagonal block follows."""
    k, rows = art.k, art.block_rows
    # every entry formatted, each distinct value once: the columns of V, the
    # columns of -V, then 0 and the diagonal
    V = art.block_columns.T.ravel()
    text = _fmt_table(np.concatenate([V, -V, [0.0, art.diagonal]])).tolist()
    # column s of V and of -V as JSON text, without brackets
    signed = [[_joined(text[(h * k + s) * rows : (h * k + s + 1) * rows]) for h in (0, 1)] for s in range(k)]
    blocks = [",".join(signed[s][(mask >> (k - 1 - s)) & 1] for mask in range(2**k)) for s in range(k)]
    zero, diagonal = text[-2:]
    zeros = _joined([zero] * (2**k * rows))
    columns = [[zeros] * math.comb(art.n, k) for _ in range(art.n)]
    for i, varset in enumerate(combinations(range(art.n), k)):
        for s, v in enumerate(varset):
            columns[v][i] = blocks[s]
    texts = []
    for v, pieces in enumerate(columns):
        tail = [zero] * art.n
        tail[v] = diagonal
        texts.append(",".join([*pieces, _joined(tail)]))
    return _matrix_text(texts)


def target_block_texts(art: CvppArtifacts) -> tuple[np.ndarray, str]:
    """The text a query's target is joined from: each of the 2 x 2^k target
    blocks as JSON text without brackets, in an object array indexed by
    present * 2^k + mask, and the text of the n tail entries.  Every entry
    is formatted once."""
    rows = art.block_rows
    text = _fmt_table(np.append(art.target_blocks, art.target_tail)).tolist()
    tail = text.pop()
    blocks = np.array([_joined(text[i : i + rows]) for i in range(0, len(text), rows)], dtype=object)
    return blocks, _joined([tail] * art.n)


def target_text(block_texts: tuple[np.ndarray, str], present: np.ndarray) -> tuple[str, ...]:
    """The JSON text of fmt_vector(art.target(present)), as chunks, from
    art's target_block_texts: the block of each table entry in table order,
    then the tail.  Nothing is formatted."""
    blocks, tail = block_texts
    masks = blocks.size // 2
    entries = blocks[present * masks + np.arange(present.size) % masks].tolist()
    return ("[", ",".join([*entries, tail]), "]")


def cvpp_from_json(d: dict) -> tuple[CvppArtifacts, tuple[str, ...]]:
    """The prep's header as CvppArtifacts without a float basis, and the
    basis as the chunks of the JSON text of fmt_columns(basis): queries write
    the basis and compute only with the header."""
    n, k, mode = _fields(d, CVPP_SCHEMA, "n", "k", "mode")
    if mode == "lp":
        if d.get("gadget") is None:
            raise InvalidInputError("lp preprocessing needs its on-off gadget")
        gadget = onoff_from_json(d["gadget"])
    elif mode == "inf":
        if "gadget" in d:
            raise InvalidInputError("inf preprocessing takes no gadget")
        gadget = None
    else:
        raise InvalidInputError(f"unknown preprocessing mode {mode!r}")
    art = cvpp_header(n, k, gadget)
    return art, _basis_text(art)
