"""JSON artifact schemas with byte-stable serialization.

All real numbers travel as decimal strings with 17 significant digits, which
round-trip binary64 exactly and keep output independent of platform float
formatting.  Matrices are stored as lists of columns.
"""

from __future__ import annotations

import json
import math

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


def fmt_vector(v) -> list[str]:
    return [fmt_real(x) for x in np.asarray(v, dtype=float).ravel()]


def parse_vector(v) -> np.ndarray:
    return np.array([parse_real(x) for x in v], dtype=float)


def fmt_columns(M) -> list[list[str]]:
    M = np.asarray(M, dtype=float)
    return [fmt_vector(M[:, j]) for j in range(M.shape[1])]


def parse_columns(cols) -> np.ndarray:
    if not cols:
        raise InvalidInputError("matrix needs at least one column")
    return np.column_stack([parse_vector(col) for col in cols])


def fmt_pnorm(p) -> str:
    q = p.p if isinstance(p, PNorm) else float(p)
    return "inf" if math.isinf(q) else fmt_real(q)


def parse_pnorm(s) -> PNorm:
    if s == "inf":
        return PNorm.infinity()
    return PNorm(parse_real(s))


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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
    if d.get("schema") != GADGET_SCHEMA:
        raise InvalidInputError(f"expected schema {GADGET_SCHEMA}, got {d.get('schema')!r}")
    return IsolatingGadget(
        p=parse_pnorm(d["p"]).p,
        k=int(d["k"]),
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
    if d.get("schema") != ONOFF_SCHEMA:
        raise InvalidInputError(f"expected schema {ONOFF_SCHEMA}, got {d.get('schema')!r}")
    return OnOffGadget(
        p=parse_pnorm(d["p"]).p,
        k=int(d["k"]),
        V=parse_columns(d["V"]),
        t_on=parse_vector(d["t_on"]),
        t_off=parse_vector(d["t_off"]),
        eps=parse_real(d["eps"]),
    )


# ---------------------------------------------------------------------------
# instances and preprocessing artifacts


def cvp_to_json(p, basis, target, radius: float, meta: dict) -> dict:
    """The latgad-cvp-v1 payload.  Takes the parts rather than a CvpInstance
    so that CVPP queries skip the instance's rank check."""
    return {
        "schema": CVP_SCHEMA,
        "p": fmt_pnorm(p),
        "basis": fmt_columns(basis),
        "target": fmt_vector(target),
        "radius": fmt_real(radius),
        "meta": _meta_out(meta),
    }


def instance_to_json(inst: CvpInstance) -> dict:
    return cvp_to_json(inst.p, inst.basis, inst.target, inst.radius, inst.meta)


def instance_from_json(d: dict) -> CvpInstance:
    if d.get("schema") != CVP_SCHEMA:
        raise InvalidInputError(f"expected schema {CVP_SCHEMA}, got {d.get('schema')!r}")
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
    out = {
        "schema": CVPP_SCHEMA,
        "mode": art.mode,
        "n": art.n,
        "k": art.k,
        "block_rows": art.block_rows,
        "basis": fmt_columns(art.basis),
        "gadget": onoff_to_json(art.gadget) if art.gadget is not None else None,
        "alpha": fmt_real(art.alpha) if art.alpha is not None else None,
    }
    return out


def cvpp_from_json(d: dict) -> CvppArtifacts:
    if d.get("schema") != CVPP_SCHEMA:
        raise InvalidInputError(f"expected schema {CVPP_SCHEMA}, got {d.get('schema')!r}")
    gadget = onoff_from_json(d["gadget"]) if d.get("gadget") else None
    return CvppArtifacts(
        n=int(d["n"]),
        k=int(d["k"]),
        mode=d["mode"],
        basis=parse_columns(d["basis"]),
        block_rows=int(d["block_rows"]),
        gadget=gadget,
        alpha=parse_real(d["alpha"]) if d.get("alpha") is not None else None,
    )
