"""JSON artifact schemas with byte-stable serialization.

All real numbers travel as decimal strings with 17 significant digits, which
round-trip binary64 exactly and keep output independent of platform float
formatting.  Matrices are stored as lists of columns.

Artifacts repeat a few values many times (a CVPP basis of 153 700 entries
holds 19 distinct strings), so vectors and matrices go through a table:
`fmt_real` runs once per distinct binary64 bit pattern and `parse_real` once
per distinct entry.  The bytes written and the values read are the same as
formatting and parsing each entry on its own.

A CVPP query writes the prep's basis unchanged, so it never builds the float
matrix: `canon_columns` validates the columns as `parse_columns` does and maps
each distinct entry to its canonical string `fmt_real(parse_real(s))` once,
giving the columns' JSON text as a `JsonText`.  `dumps` writes a top-level
`JsonText` value as is, so the bytes are those of parsing the basis and
formatting it again.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import InvalidInputError
from .gadgets import IsolatingGadget, OnOffGadget
from .numeric import PNorm
from .reductions import CvpInstance, CvppArtifacts

GADGET_SCHEMA = "latgad-gadget-v1"
ONOFF_SCHEMA = "latgad-onoff-v1"
CVP_SCHEMA = "latgad-cvp-v1"
CVPP_SCHEMA = "latgad-cvpp-prep-v1"


def fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def parse_real(s) -> float:
    try:
        return float(s)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad decimal string {s!r}") from exc


def _parse_int(s) -> int:
    try:
        return int(s)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad integer {s!r}") from exc


def _fmt_table(a: np.ndarray) -> np.ndarray:
    """fmt_real of every entry of the float array a, as an object array of its
    shape.  Distinct bit patterns, not values, key the table, so -0.0 still
    prints "-0" beside 0.0's "0"."""
    a = np.ascontiguousarray(a, dtype=float)
    bits, inverse = np.unique(a.view(np.uint64).ravel(), return_inverse=True)
    table = np.array([fmt_real(x) for x in bits.view(float)], dtype=object)
    return table[inverse].reshape(a.shape)


class JsonText(str):
    """A JSON value already encoded, which `dumps` writes as is."""


def _entries(v) -> list:
    """v itself, which must be a JSON array: a string or an object is not a
    list of entries."""
    if not isinstance(v, list):
        raise InvalidInputError(f"expected a JSON array, got {type(v).__name__}")
    return v


def _tabled(convert, items):
    """A function equal to convert on every entry of items that runs convert
    once per distinct entry."""
    try:
        table = {s: convert(s) for s in set(items)}
    except TypeError as exc:
        raise InvalidInputError("entries must be decimal strings, not lists or objects") from exc
    if 0 in table:
        # a bare JSON number 0, 0.0, -0.0 or false: these are one dict key, so
        # the table would hand one zero's sign to all of them
        return convert
    return table.__getitem__


def _parse_table(items: list) -> np.ndarray:
    """parse_real of every entry, run once per distinct entry."""
    return np.fromiter(map(_tabled(parse_real, items), items), float, len(items))


def fmt_vector(v) -> list[str]:
    return _fmt_table(np.asarray(v, dtype=float).ravel()).tolist()


def parse_vector(v) -> np.ndarray:
    return _parse_table(_entries(v))


def fmt_columns(M) -> list[list[str]]:
    return _fmt_table(np.asarray(M, dtype=float).T).tolist()


def _columns(cols) -> list[list]:
    """cols as a list of equally long lists of entries."""
    cols = [_entries(col) for col in _entries(cols)]
    if not cols:
        raise InvalidInputError("matrix needs at least one column")
    if any(len(col) != len(cols[0]) for col in cols):
        raise InvalidInputError(f"matrix columns differ in length: {sorted({len(col) for col in cols})}")
    return cols


def parse_columns(cols) -> np.ndarray:
    cols = _columns(cols)
    # C order, as np.column_stack gave, so the matrix products downstream
    # round as before
    return _parse_table(list(chain.from_iterable(cols))).reshape(len(cols), len(cols[0])).T.copy()


def _canon_entry(s) -> str:
    return json.dumps(fmt_real(parse_real(s)))


def _canon_text(cols: list[list]) -> JsonText:
    """canon_columns of columns that _columns has already checked."""
    canon = _tabled(_canon_entry, chain.from_iterable(cols))
    return JsonText("[" + ",".join("[" + ",".join(map(canon, col)) + "]" for col in cols) + "]")


def canon_columns(cols) -> JsonText:
    """The JSON text of fmt_columns(parse_columns(cols)), with fmt_real and
    parse_real run once per distinct entry and no float matrix built."""
    return _canon_text(_columns(cols))


def fmt_pnorm(p) -> str:
    q = p.p if isinstance(p, PNorm) else float(p)
    return "inf" if math.isinf(q) else fmt_real(q)


def parse_pnorm(s) -> PNorm:
    if s == "inf":
        return PNorm.infinity()
    return PNorm(parse_real(s))


def _check(d, schema: str, *keys: str) -> None:
    """d must be a `schema` artifact holding every key in keys."""
    found = d.get("schema") if isinstance(d, dict) else type(d).__name__
    if found != schema:
        raise InvalidInputError(f"expected schema {schema}, got {found!r}")
    missing = [key for key in keys if key not in d]
    if missing:
        raise InvalidInputError(f"{schema} artifact has no {', '.join(map(repr, missing))}")


# json.dumps(obj, sort_keys=True, separators=(",", ":")), without building an
# encoder per call
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps(obj: dict) -> str:
    """Compact JSON with sorted keys and a final newline.  A top-level
    JsonText value is written as is."""
    fields = (
        _compact(key) + ":" + (value if isinstance(value, JsonText) else _compact(value))
        for key, value in sorted(obj.items())
    )
    return "{" + ",".join(fields) + "}\n"


def _meta_out(meta: dict) -> dict:
    out = {}
    for key, value in meta.items():
        if isinstance(value, (np.floating, float)):
            out[key] = fmt_real(value)
        elif isinstance(value, tuple):
            out[key] = [fmt_real(v) if isinstance(v, (float, np.floating)) else v for v in value]
        elif isinstance(value, (np.integer,)):
            out[key] = int(value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# gadgets


def gadget_to_json(g: IsolatingGadget) -> dict:
    out = {
        "schema": GADGET_SCHEMA,
        "p": fmt_pnorm(g.p),
        "k": g.k,
        "kind": g.kind,
        "V": fmt_columns(g.V),
        "t": fmt_vector(g.t),
        "eps": fmt_real(g.eps),
    }
    if g.constraint is not None:
        out["constraint"] = g.constraint
    return out


def gadget_from_json(d: dict) -> IsolatingGadget:
    _check(d, GADGET_SCHEMA, "p", "k", "V", "t", "eps", "kind")
    return IsolatingGadget(
        p=parse_pnorm(d["p"]).p,
        k=_parse_int(d["k"]),
        V=parse_columns(d["V"]),
        t=parse_vector(d["t"]),
        eps=parse_real(d["eps"]),
        kind=d["kind"],
        constraint=d.get("constraint"),
    )


def onoff_to_json(g: OnOffGadget) -> dict:
    return {
        "schema": ONOFF_SCHEMA,
        "p": fmt_pnorm(g.p),
        "k": g.k,
        "V": fmt_columns(g.V),
        "t_on": fmt_vector(g.t_on),
        "t_off": fmt_vector(g.t_off),
        "eps": fmt_real(g.eps),
    }


def onoff_from_json(d: dict) -> OnOffGadget:
    _check(d, ONOFF_SCHEMA, "p", "k", "V", "t_on", "t_off", "eps")
    return OnOffGadget(
        p=parse_pnorm(d["p"]).p,
        k=_parse_int(d["k"]),
        V=parse_columns(d["V"]),
        t_on=parse_vector(d["t_on"]),
        t_off=parse_vector(d["t_off"]),
        eps=parse_real(d["eps"]),
    )


# ---------------------------------------------------------------------------
# instances and preprocessing artifacts


def cvp_to_json(p, basis, target, radius: float, meta: dict) -> dict:
    """The latgad-cvp-v1 payload, with the basis already formatted: a CVPP
    query passes its prep's canonical basis text.  Takes the parts rather
    than a CvpInstance so that CVPP queries skip the instance's rank check."""
    return {
        "schema": CVP_SCHEMA,
        "p": fmt_pnorm(p),
        "basis": basis,
        "target": fmt_vector(target),
        "radius": fmt_real(radius),
        "meta": _meta_out(meta),
    }


def instance_to_json(inst: CvpInstance) -> dict:
    return cvp_to_json(inst.p, fmt_columns(inst.basis), inst.target, inst.radius, inst.meta)


def instance_from_json(d: dict) -> CvpInstance:
    _check(d, CVP_SCHEMA, "p", "basis", "target", "radius")
    meta = dict(d.get("meta", {}))
    for key in ("eps", "alpha", "gamma", "s", "c"):
        if key in meta and isinstance(meta[key], str):
            meta[key] = parse_real(meta[key])
    return CvpInstance(
        p=parse_pnorm(d["p"]),
        basis=parse_columns(d["basis"]),
        target=parse_vector(d["target"]),
        radius=parse_real(d["radius"]),
        meta=meta,
    )


def cvpp_to_json(art: CvppArtifacts) -> dict:
    return {
        "schema": CVPP_SCHEMA,
        "mode": art.mode,
        "n": art.n,
        "k": art.k,
        "block_rows": art.block_rows,
        "basis": fmt_columns(art.basis),
        "gadget": onoff_to_json(art.gadget) if art.gadget is not None else None,
        "alpha": fmt_real(art.alpha) if art.alpha is not None else None,
    }


def cvpp_from_json(d: dict) -> tuple[CvppArtifacts, JsonText]:
    """The prep's header as CvppArtifacts without a basis, and the basis as
    canonical JSON text: queries copy the basis and read only its shape.
    The header must agree with itself and with the basis's shape."""
    _check(d, CVPP_SCHEMA, "n", "k", "mode", "basis", "block_rows")
    n, k, mode, rows = _parse_int(d["n"]), _parse_int(d["k"]), d["mode"], _parse_int(d["block_rows"])
    gadget = onoff_from_json(d["gadget"]) if d.get("gadget") else None
    alpha = parse_real(d["alpha"]) if d.get("alpha") is not None else None
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got n={n}, k={k}")
    if mode == "lp":
        if gadget is None or alpha is None:
            raise InvalidInputError("lp preprocessing needs its on-off gadget and alpha")
        if gadget.k != k:
            raise InvalidInputError(f"gadget arity {gadget.k} does not match k={k}")
        block_rows = gadget.d
    elif mode == "inf":
        block_rows = 1
    else:
        raise InvalidInputError(f"unknown preprocessing mode {mode!r}")
    if rows != block_rows:
        raise InvalidInputError(f"block_rows is {rows}, {mode} blocks have {block_rows} rows")
    art = CvppArtifacts(n=n, k=k, mode=mode, basis=None, block_rows=block_rows, gadget=gadget, alpha=alpha)
    cols = _columns(d["basis"])
    if (len(cols[0]), len(cols)) != (art.d, n):
        raise InvalidInputError(
            f"prep basis is {len(cols[0])}x{len(cols)}, header gives M*block_rows + n = {art.d} rows and n = {n} columns"
        )
    return art, _canon_text(cols)
