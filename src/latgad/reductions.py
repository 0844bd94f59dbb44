"""Compile boolean formulas into closest-vector instances.

Padded mode stacks one gadget block per clause, scaled by w^(1/p) for a
clause of weight w, plus a scaled identity block that forces closest vectors
to be boolean; gap mode stacks isolating-lattice blocks with no padding and
yields a promise instance with an explicit approximation factor.
Preprocessing mode builds one basis per (n, k) that covers every possible
k-clause and serves any number of query formulas.  All three keep only each
gadget's live rows: a row that is zero in V and in every target adds
|0 - 0|^p = 0 at every point, so dropping it leaves every distance as it is.

All three place blocks by one rule, `_place_literals`: column s of the
gadget goes on the variable of the constraint's s-th literal, and a negative
literal negates it and subtracts it from the target.  A parity constraint's
variables are positive literals; gadget columns past the arity stay unused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidInputError, ResourceLimitError, UnsupportedParametersError
from .formulas import Clause, CspFormula
from .gadgets import KIND_LATTICE, IsolatingGadget, OnOffGadget
from .numeric import DEFAULT_TOL, column_rank, finite_float, finite_pvalue, pvalue, sin_half_pi

MAX_BASIS_ENTRIES = 5 * 10**7
# Smallest relative distance gap that sat_to_cvp leaves between assignments
# one satisfied weight unit apart: a few times the default verification tie
# band, and far above the float rounding of the stacked sums.
MIN_WEIGHT_SEPARATION = 4 * DEFAULT_TOL.rel


@dataclass(eq=False)
class CvpInstance:
    """Norm exponent p (math.inf for the max norm), basis B (d x n), target
    t, decision radius r, and provenance metadata."""

    p: float
    basis: np.ndarray
    target: np.ndarray
    radius: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        self.target = np.asarray(self.target, dtype=float).ravel()
        self.p = pvalue(self.p)
        if self.basis.ndim != 2 or self.basis.shape[0] != self.target.size:
            raise InvalidInputError("basis and target dimensions disagree")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidInputError(f"radius must be finite and > 0, got {self.radius!r}")
        if column_rank(self.basis) != self.basis.shape[1]:
            raise InvalidInputError("basis must have full column rank")

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def d(self) -> int:
        return self.basis.shape[0]


def _cap_basis(d: int, n: int) -> None:
    """Refuse a d x n basis of more than MAX_BASIS_ENTRIES entries, before
    anything of that size is allocated."""
    if d * n > MAX_BASIS_ENTRIES:
        raise ResourceLimitError(f"basis of {d}x{n} entries exceeds cap {MAX_BASIS_ENTRIES}")


def _live_rows(V: np.ndarray, *targets: np.ndarray) -> tuple[np.ndarray, ...]:
    """V and the targets without the rows that are zero in all of them."""
    live = np.any(V != 0, axis=1)
    for t in targets:
        live |= t != 0
    return (V[live], *(t[live] for t in targets))


def _place_literals(V: np.ndarray, t: np.ndarray, literals: np.ndarray, blocks: np.ndarray, targets: np.ndarray):
    """Fill the blocks (m x d x n, zero on entry) and targets (m x d) of the
    m constraints whose literals, padded with 0, are the rows of literals:
    one step per gadget column, so a repeated variable sums in literal order."""
    targets[:] = t
    for s in range(literals.shape[1]):
        (used,) = np.nonzero(literals[:, s])
        lit = literals[used, s]
        col = V[:, s]
        blocks[used, :, np.abs(lit) - 1] += np.where(lit > 0, 1.0, -1.0)[:, None] * col
        targets[used[lit < 0]] -= col


def _literal_matrix(constraints: list, width: int) -> np.ndarray:
    """The constraints' literals, one row each, padded with 0 to width."""
    literals = np.zeros((len(constraints), width), dtype=np.int64)
    for j, constraint in enumerate(constraints):
        lits = constraint.literals if isinstance(constraint, Clause) else constraint.variables
        literals[j, : len(lits)] = lits
    return literals


def max_padded_weight(n: int, p, eps: float) -> float:
    """Largest total weight that sat_to_cvp compiles over n variables.

    One unit of satisfied weight moves distance^p by (1+eps)^p - 1, out of a
    radius^p of at most (n+1) W_total (1+eps)^p, so it moves the distance by
    about that share over p.  The total stays below the point where that
    share falls under MIN_WEIGHT_SEPARATION.
    """
    q = finite_pvalue(p)
    grow = (1.0 + eps) ** q
    return (grow - 1.0) / (MIN_WEIGHT_SEPARATION * q * (n + 1) * grow)


def sat_to_cvp(formula: CspFormula, gadget: IsolatingGadget) -> CvpInstance:
    """Exact reduction: distance <= r over boolean coordinates iff some
    assignment satisfies weight at least W (W defaults to the total weight,
    i.e. plain satisfiability).

    A clause of weight w is one block and target scaled by w^(1/p), which
    adds w ||Bx - t||_p^p.  A total weight above max_padded_weight is
    refused: assignments one weight unit apart would lie closer together
    than verification can tell apart.  Clause arity up to the gadget arity is
    allowed; shorter clauses leave the remaining gadget columns unused.  The
    gadget's close level must be the plain clause's: an isolating gadget, or
    one whose constraint is the clause with no negated position.
    """
    q = finite_pvalue(gadget.p)
    if not all(isinstance(c, Clause) for c in formula.constraints):
        raise InvalidInputError("sat_to_cvp takes clause formulas; use the gap path for parity")
    level = gadget.constraint
    if level is not None and (level["type"] != "clause" or level.get("negated")):
        raise InvalidInputError(f"sat_to_cvp needs a gadget whose close level is the plain clause's, got {level}")
    worst = max((c.arity for c in formula.constraints), default=0)
    if worst > gadget.k:
        raise InvalidInputError(f"clause arity {worst} exceeds gadget arity {gadget.k}")
    n = formula.n
    eps = gadget.eps
    total = formula.total_weight()
    limit = finite_float(lambda: max_padded_weight(n, q, eps), f"(1 + eps)^p at p={q:g}")
    if total > limit:
        raise ResourceLimitError(
            f"total weight exceeds {math.floor(limit)} at n={n}, p={q:g}, eps={eps:.3g}: "
            "assignments one weight unit apart would be too close to tell apart"
        )
    W = formula.threshold if formula.threshold is not None else total
    # the empty formula keeps a positive identity scale: every boolean point
    # then sits at distance exactly r = n^(1/p) alpha (trivially satisfiable)
    alpha = max(total, 1) ** (1.0 / q) * (1.0 + eps)
    V, gadget_t = _live_rows(gadget.V, gadget.t)
    kept = [i for i in range(formula.m) if formula.weight_of(i) != 0]
    # one d x n block and target per kept clause, then the padding; each
    # block is scaled after it is summed
    d, rows = gadget_t.size, len(kept) * gadget_t.size
    _cap_basis(rows + n, n)
    basis, target = np.zeros((rows + n, n)), np.empty(rows + n)
    blocks, targets = basis[:rows].reshape(len(kept), d, n), target[:rows].reshape(len(kept), d)
    _place_literals(V, gadget_t, _literal_matrix([formula.constraints[i] for i in kept], worst), blocks, targets)
    scales = np.array([formula.weight_of(i) ** (1.0 / q) for i in kept])
    blocks *= scales[:, None, None]
    targets *= scales[:, None]
    basis[rows + np.arange(n), np.arange(n)] = 2.0 * alpha
    target[rows:] = alpha
    radius = finite_float(
        lambda: (W + (total - W) * (1.0 + eps) ** q + n * alpha**q) ** (1.0 / q), f"the radius at p={q:g}"
    )
    return CvpInstance(
        p=q,
        basis=basis,
        target=target,
        radius=radius,
        meta={"mode": "padded", "threshold": W, "eps": eps, "alpha": alpha},
    )


def csp_to_cvp_gap(
    formula: CspFormula, lattices: list[IsolatingGadget], s: float, c: float
) -> tuple[CvpInstance, float]:
    """Gap reduction from a constraint formula with per-constraint isolating
    lattices: value >= c implies distance <= r, value < s implies distance
    > gamma * r, with gamma^p = (1 - s(1 - 1/(1+eps)^p)) / (1 - c(1 - 1/(1+eps)^p)).

    The smallest gadget eps is used when they differ.  Unused variables are
    rejected (the stacked basis would lose full column rank).
    """
    if not 0 < s <= c <= 1:
        raise InvalidInputError(f"need 0 < s <= c <= 1, got s={s}, c={c}")
    if formula.weights is not None:
        raise InvalidInputError("gap reduction takes unweighted formulas")
    if formula.m == 0:
        raise InvalidInputError("formula has no constraints")
    if len(lattices) != formula.m:
        raise InvalidInputError("one isolating lattice per constraint required")
    if any(g.kind != KIND_LATTICE for g in lattices):
        raise InvalidInputError("gap reduction needs isolating-lattice gadgets")
    q = finite_pvalue(lattices[0].p)
    if any(abs(finite_pvalue(g.p) - q) > 1e-12 for g in lattices):
        raise InvalidInputError("all gadgets must share the norm exponent")
    eps = min(g.eps for g in lattices)
    if eps <= 0:
        raise InvalidInputError("gap reduction is vacuous with eps = 0")
    used = set().union(*(constraint.variables for constraint in formula.constraints))
    if used != set(range(1, formula.n + 1)):
        missing = sorted(set(range(1, formula.n + 1)) - used)
        raise InvalidInputError(f"variables never used (basis would be rank deficient): {missing}")
    for constraint, gadget in zip(formula.constraints, lattices):
        if isinstance(constraint, Clause) and constraint.arity > gadget.k:
            raise InvalidInputError("clause arity exceeds its gadget arity")
        if not isinstance(constraint, Clause) and constraint.arity != gadget.k:
            raise InvalidInputError("parity constraint arity must match its gadget arity")

    # the constraints that share a lattice object (gadgets hash by identity)
    # are placed together, then their rows are scattered in constraint order
    n, m = formula.n, formula.m
    literals = _literal_matrix(formula.constraints, max(g.k for g in lattices))
    live = {gadget: _live_rows(gadget.V, gadget.t) for gadget in dict.fromkeys(lattices)}
    sizes = np.array([live[gadget][1].size for gadget in lattices])
    starts = np.cumsum(sizes) - sizes
    _cap_basis(sizes.sum(), n)
    basis, target = np.empty((sizes.sum(), n)), np.empty(sizes.sum())
    for gadget, (V, t) in live.items():
        members = [i for i, other in enumerate(lattices) if other is gadget]
        blocks, targets = np.zeros((len(members), t.size, n)), np.empty((len(members), t.size))
        _place_literals(V, t, literals[members, : V.shape[1]], blocks, targets)
        rows = (starts[members][:, None] + np.arange(t.size)).ravel()
        basis[rows], target[rows] = blocks.reshape(-1, n), targets.ravel()

    grow = (1.0 + eps) ** q
    radius = ((grow - c * (grow - 1.0)) * m) ** (1.0 / q)
    gamma = gamma_from_eps(q, eps, s, c)
    inst = CvpInstance(
        p=q,
        basis=basis,
        target=target,
        radius=radius,
        meta={"mode": "gap", "s": s, "c": c, "gamma": gamma},
    )
    return inst, gamma


# ---------------------------------------------------------------------------
# gap parameter calculators


@dataclass(frozen=True)
class GapParams:
    """Closed-form lower bound on the approximation factor, with the sharper
    value implied by an actual gadget gap when one is supplied."""

    gamma_bound: float
    degenerate: bool
    gamma: float | None = None


def gamma_from_eps(p, eps: float, s: float, c: float) -> float:
    """The gap factor a gadget of gap eps gives; eps must be finite and > 0,
    the domain the artifact readers apply."""
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidInputError(f"eps must be finite and > 0, got {eps!r}")
    q = finite_pvalue(p)
    grow = finite_float(lambda: (1.0 + eps) ** q, f"(1 + eps)^p at p={q:g}")
    shrink = 1.0 - 1.0 / grow
    return ((1.0 - s * shrink) / (1.0 - c * shrink)) ** (1.0 / q)


def parity_gap_params(p, k: int, s: float, c: float, eps: float | None = None) -> GapParams:
    """Approximation-factor bound of the parity gap reduction:
    gamma >= 1 + (c - s) |sin(pi p/2)| / (4 p^3 k) * (2p / (e^2 pi^2 k))^((p+1)/2).

    Even integer p zeroes the sine and is reported as degenerate (bound 1).
    """
    q = finite_pvalue(p)
    if not (isinstance(k, (int, np.integer)) and k > max(2, q)):
        raise InvalidInputError(f"need integer k > max(2, p), got k={k}, p={q}")
    if not 0.5 < s <= c < 1:
        raise InvalidInputError(f"need 1/2 < s <= c < 1, got s={s}, c={c}")
    sine = abs(sin_half_pi(q))
    bound = 1.0 + (c - s) * sine / (4.0 * q**3 * k) * (
        2.0 * q / (math.e**2 * math.pi**2 * k)
    ) ** ((q + 1.0) / 2.0)
    degenerate = sine == 0.0
    gamma = gamma_from_eps(q, eps, s, c) if eps is not None else None
    return GapParams(gamma_bound=bound, degenerate=degenerate, gamma=gamma)


@dataclass(frozen=True)
class SatGapParams:
    s_prime: float
    c_prime: float
    params: GapParams


def sat_gap_params(p, k: int, s: float, c: float, eps: float | None = None) -> SatGapParams:
    """Chain the clause-to-parity promise map s' = 2^(k-1)/(2^k - 1) * s
    (likewise c') into the parity gap bound."""
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise InvalidInputError(f"need integer k >= 2, got {k!r}")
    if not 1.0 - 2.0**-k < s <= c <= 1.0:
        raise InvalidInputError(f"need 1 - 2^-k < s <= c <= 1, got s={s}, c={c}")
    factor = 2.0 ** (k - 1) / (2.0**k - 1.0)
    s_prime, c_prime = factor * s, factor * c
    return SatGapParams(s_prime=s_prime, c_prime=c_prime, params=parity_gap_params(p, k, s_prime, c_prime, eps))


# ---------------------------------------------------------------------------
# preprocessing-based reductions


def _comb_rank(varset: tuple[int, ...], n: int, k: int) -> int:
    """Lexicographic rank of a sorted k-subset of {1..n}: C(n, k) - 1 less
    the subsets after it.  Those agree with it before some position pos and
    from pos on hold any k - pos of the n - varset[pos] variables above
    varset[pos]: C(n - varset[pos], k - pos) subsets for each pos.  (The
    hockey-stick identity telescopes the count of skipped subsets to this.)"""
    rank = math.comb(n, k) - 1
    for pos, v in enumerate(varset):
        rank -= math.comb(n - v, k - pos)
    return rank


@dataclass(eq=False)
class CvppArtifacts:
    """Fixed preprocessing basis covering all M = 2^k C(n, k) possible
    k-clauses on n variables, in lexicographic (variable set, polarity mask)
    order, plus the data needed to shape query targets.

    The basis is a pure function of the header: clause block (varset, mask)
    writes column s of `block_columns`, negated when mask bit k-1-s is set,
    into the column of the set's s-th variable, and `diagonal` times I_n
    follows.  A query's target takes, per clause, the off or on row of
    `off_on` shifted by the mask's negated columns, and `target_tail` n
    times.  `cvpp_header` fills these for either norm; a loaded prep holds
    no float `basis`."""

    n: int
    k: int
    p: float  # math.inf for the max norm
    block_columns: np.ndarray  # block_rows x k: the on-off gadget's live rows
    off_on: np.ndarray  # 2 x block_rows: the off target, then the on target
    target_tail: float
    gadget: OnOffGadget | None = None
    basis: np.ndarray | None = None

    @property
    def mode(self) -> str:
        return "inf" if math.isinf(self.p) else "lp"

    @property
    def M(self) -> int:
        return 2**self.k * math.comb(self.n, self.k)

    @property
    def diagonal(self) -> float:
        """The diagonal block's entry, twice the target's tail: a boolean
        coordinate x then adds |2 tail x - tail| = tail."""
        return 2.0 * self.target_tail

    @property
    def block_rows(self) -> int:
        return self.block_columns.shape[0]

    @property
    def d(self) -> int:
        return self.M * self.block_rows + self.n

    @property
    def target_blocks(self) -> np.ndarray:
        """The 2 x 2^k x block_rows target blocks of a query: entry
        [present, mask] is the block of a clause that is absent (0) or present
        (1), with that polarity mask.  It is row `present` of `off_on` minus
        the sum of the mask's negated columns of `block_columns`."""
        k = self.k
        V = self.block_columns
        mask_shift = np.array(
            [V[:, [s for s in range(k) if (mask >> (k - 1 - s)) & 1]].sum(axis=1) for mask in range(2**k)]
        )
        return self.off_on[:, None, :] - mask_shift[None, :, :]

    def target(self, present: np.ndarray) -> np.ndarray:
        """The query target of the table entries marked present: entry i
        takes block target_blocks[present[i], i % 2^k], and target_tail
        follows n times."""
        M, rows = self.M, self.block_rows
        target = np.empty(self.d)
        target[: M * rows].reshape(M, rows)[:] = self.target_blocks[present.astype(np.intp), np.arange(M) % 2**self.k]
        target[M * rows :] = self.target_tail
        return target

    def clause_position(self, clause: Clause) -> tuple[int, int]:
        """(table index, polarity mask) of a clause with k distinct variables;
        the gadget column order is the sorted variable order."""
        if clause.arity != self.k:
            raise InvalidInputError(f"table holds {self.k}-clauses, got arity {clause.arity}")
        pairs = sorted((abs(lit), lit < 0) for lit in clause.literals)
        varset = tuple(v for v, _ in pairs)
        if len(set(varset)) != self.k:
            raise InvalidInputError(f"clause repeats variables, not in table: {clause.literals}")
        if varset[-1] > self.n:
            raise InvalidInputError(f"clause variable {varset[-1]} exceeds n={self.n}")
        mask = 0
        for _, neg in pairs:
            mask = (mask << 1) | int(neg)
        return _comb_rank(varset, self.n, self.k) * 2**self.k + mask, mask

    def present(self, formula: CspFormula) -> np.ndarray:
        """Which of the M table entries the formula's clauses occupy."""
        if formula.n != self.n:
            raise InvalidInputError(f"formula has n={formula.n}, table was built for n={self.n}")
        present = np.zeros(self.M, dtype=bool)
        for clause in formula.constraints:
            if not isinstance(clause, Clause):
                raise InvalidInputError("preprocessing reduction takes clause formulas")
            pos, _ = self.clause_position(clause)
            if present[pos]:
                raise InvalidInputError(f"duplicate clause in query formula: {clause.literals}")
            present[pos] = True
        return present


def cvpp_header(n: int, k: int, gadget: OnOffGadget | None) -> CvppArtifacts:
    """The prep of an on-off gadget of arity k, or the max-norm prep when
    gadget is None, without its basis.  Refuses k outside 1..n, and a basis
    of more than MAX_BASIS_ENTRIES entries before anything is built.

    For lp a clause block is the gadget's V with its t_off and t_on, on the
    rows that are nonzero in one of them (a gadget with none is refused),
    and the diagonal block is 2 alpha I_n against target alpha,
    alpha = M^(1/p) (1 + eps).  For the max norm it is one row of ones with
    targets k/2 and (k+1)/2, and k I_n against k/2."""
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got n={n}, k={k}")
    if gadget is not None and gadget.k != k:
        raise InvalidInputError(f"gadget arity {gadget.k} does not match k={k}")
    if n * n > MAX_BASIS_ENTRIES:
        # the basis has more than n rows; spares C(n, k) for a huge n
        raise ResourceLimitError(f"basis of more than {n}x{n} entries exceeds cap {MAX_BASIS_ENTRIES}")
    if gadget is None:
        p, columns, off_on, tail = math.inf, np.ones((1, k)), np.array([[k / 2], [(k + 1) / 2]]), k / 2
    else:
        p = finite_pvalue(gadget.p)
        columns, t_off, t_on = _live_rows(gadget.V, gadget.t_off, gadget.t_on)
        if not t_on.size:
            raise InvalidInputError("on-off gadget has no nonzero row")
        off_on = np.stack([t_off, t_on])
    M = 2**k * math.comb(n, k)
    _cap_basis(M * columns.shape[0] + n, n)
    if gadget is not None:
        tail = M ** (1.0 / p) * (1.0 + gadget.eps)
    return CvppArtifacts(n=n, k=k, p=p, block_columns=columns, off_on=off_on, target_tail=tail, gadget=gadget)


def _with_basis(art: CvppArtifacts) -> CvppArtifacts:
    """art with its float basis filled in: entry (varset, mask) of the table
    is the clause on varset whose s-th literal is negated where mask bit
    k-1-s is set."""
    n, k, M, rows = art.n, art.k, art.M, art.block_rows
    varsets = np.array(list(combinations(range(1, n + 1), k)), dtype=np.int64)
    signs = 1 - 2 * ((np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1)
    literals = (varsets[:, None, :] * signs).reshape(M, k)
    art.basis = np.zeros((art.d, n))
    art.basis[M * rows :] = art.diagonal * np.eye(n)
    blocks = art.basis[: M * rows].reshape(M, rows, n)
    _place_literals(art.block_columns, art.off_on[0], literals, blocks, np.empty((M, rows)))
    return art


def cvpp_preprocess(n: int, k: int, gadget: OnOffGadget | None) -> CvppArtifacts:
    """The prep of cvpp_header with its float basis: one block per possible
    k-clause plus the diagonal block."""
    return _with_basis(cvpp_header(n, k, gadget))


def cvpp_table_query(artifacts: CvppArtifacts, formula: CspFormula) -> tuple[np.ndarray, float]:
    """(present, radius) for one formula against the fixed basis, in the
    prep's own norm: which table entries its clauses occupy, and the
    decision radius.

    For the max norm the radius is k/2, which some point reaches iff the
    formula is satisfiable; that norm takes plain satisfiability only."""
    inf = artifacts.mode == "inf"
    if inf and (formula.weights is not None or formula.threshold is not None):
        raise UnsupportedParametersError("max-norm preprocessing handles plain satisfiability only")
    if formula.weights is not None:
        raise UnsupportedParametersError(
            "weighted formulas are not expressible against a fixed clause table"
        )
    present = artifacts.present(formula)
    if inf:
        return present, artifacts.k / 2
    q = artifacts.p
    M, m = artifacts.M, formula.m
    W = formula.threshold if formula.threshold is not None else m
    radius = finite_float(
        lambda: ((M - (m - W)) + (m - W) * (1.0 + artifacts.gadget.eps) ** q + artifacts.n * artifacts.target_tail**q)
        ** (1.0 / q),
        f"the radius at p={q:g}",
    )
    return present, radius


def cvpp_query(artifacts: CvppArtifacts, formula: CspFormula) -> tuple[np.ndarray, float]:
    """Target and radius for one formula against the fixed basis, in the
    prep's own norm: present clauses point at the on target, absent ones at
    the off target, both shifted by the clause's negated columns."""
    present, radius = cvpp_table_query(artifacts, formula)
    return artifacts.target(present), radius
