"""Identity candidates as term trees, their evaluation, and verdicts.

An identity candidate is an expression tree over numbered variables with
products, derivations, the six derived products, the star operator, scalar
multiples and sums.  Evaluating the tree on distinct free generators and
testing the normal form for zero decides whether the candidate vanishes in
every differential perm algebra: any assignment of values extends to an
endomorphism of the free algebra commuting with all the operations, so the
generator substitution is the universal one (this is itself a tested
property, not an act of faith).

One memoised traversal evaluates a tree in both contexts.  It computes
D^k of a node's value, with the six derived products read as signed
products from ``DERIVED_PRODUCTS``, an associator as its two derived
products, and a sum by bilinearity: its products that share the operation
and a structurally equal left operand are evaluated as one product whose
right operand is the weighted sum of theirs, so a sum of right-nested
products is evaluated along its prefix tree.  That weighted sum is divided
by its first nonzero coefficient when this is a rational (or a constant of
Q[δ]), and the product is scaled by it, so a sum and its scalar multiples
are one memo entry: in a standard identity the operand that follows the
prefix (x_i, x_j) is the negative of the one that follows (x_j, x_i).  The
memo is keyed by the frozen node itself, so equal subtrees are evaluated
once however they were built; each node caches its hash, so a lookup does
not walk the subtree again.  In the ordinary context D^k derives the
memoised D^(k-1) normal form.  In a δ context D^k is pushed through the
syntactic product structure with the rule D(uv) = δ(D(u)v + uD(v)), which
is the Leibniz rule at δ = 1, and bottoms out at generator leaves; there a
zero normal form over Q[δ] certifies the identity in every perm algebra
with a δ-derivation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Mapping, Union

from .algebra import (
    CTX_DELTA,
    CTX_Q,
    AlgebraError,
    BRACKETS,
    Context,
    DeltaPoly,
    DELTA,
    DERIVED_PRODUCTS,
    DiffPermPoly,
    LinearCombination,
    Monomial,
    Rational,
    Scalar,
    _coerce_scalar,
)


class NonMultilinearError(AlgebraError):
    """The expansion of an identity candidate is not multilinear."""


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


class Expr:
    """Base node; arithmetic operators build trees, nothing is evaluated.

    A node's hash is computed from its fields once and kept in the ``_hash``
    slot, which is not a field, so hashing a node does not walk its
    subtree again."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = self._field_hash()
            object.__setattr__(self, "_hash", h)
            return h

    def __add__(self, other: "Expr") -> "Expr":
        terms = []
        for e in (self, other):
            terms.extend(e.terms if isinstance(e, Sum) else (e,))
        return Sum(tuple(terms))

    def __sub__(self, other: "Expr") -> "Expr":
        return self + Scale(-1, other)

    def __mul__(self, other: "Expr") -> "Expr":
        return Mul(self, other)

    def __neg__(self) -> "Expr":
        return Scale(-1, self)


def _node(cls):
    """A frozen, slotted dataclass node whose hash is cached by ``Expr``."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = Expr.__hash__
    return cls


@_node
class Var(Expr):
    index: int


@_node
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@_node
class Der(Expr):
    body: Expr
    axis: int = 1


@_node
class DerOp(Expr):
    tag: str
    lhs: Expr
    rhs: Expr


@_node
class Star(Expr):
    body: Expr


@_node
class Scale(Expr):
    coeff: Union[int, Fraction, DeltaPoly]
    body: Expr


@_node
class Sum(Expr):
    terms: tuple[Expr, ...]


@_node
class Assoc(Expr):
    """Associator (a, b, c) = (a · b) · c - a · (b · c) of a derived product."""

    tag: str
    a: Expr
    b: Expr
    c: Expr


@_node
class Bracket(DerOp):
    """Readability alias for a bracket-like derived product: it evaluates as
    the ``DerOp`` it extends and differs from it only in how it prints."""


def v(i: int) -> Var:
    return Var(i)


def used_vars(e: Expr) -> set[int]:
    """Indices of the variables ``e`` uses.  Each node object is visited
    once, however often the tree shares it."""
    out: set[int] = set()
    seen: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            out.add(node.index)
        elif isinstance(node, (Mul, DerOp)):
            stack += (node.lhs, node.rhs)
        elif isinstance(node, (Der, Star, Scale)):
            stack.append(node.body)
        elif isinstance(node, Sum):
            stack.extend(node.terms)
        elif isinstance(node, Assoc):
            stack += (node.a, node.b, node.c)
        else:
            raise AlgebraError(f"not an expression node: {node!r}")
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _check_subst(subst: Mapping[int, DiffPermPoly], ctx: Context):
    for i, p in subst.items():
        if p.ctx != ctx:
            raise AlgebraError(f"substitution for x{i} is from context {p.ctx}, "
                               f"expected {ctx}")


def _linear_terms(node: Expr, ctx: Context) -> list[tuple[Scalar, Expr]]:
    """Flatten nested Sum/Scale wrappers into (coefficient, term) pairs, in
    tree order."""
    out = []
    stack: list[tuple[Scalar, Expr]] = [(1, node)]
    while stack:
        c, n = stack.pop()
        if isinstance(n, Sum):
            stack.extend((c, t) for t in reversed(n.terms))
        elif isinstance(n, Scale):
            stack.append((c * _coerce_scalar(n.coeff, ctx), n.body))
        else:
            out.append((c, n))
    return out


def _inverse(c: Scalar) -> Rational | None:
    """1/c when ``c`` is a nonzero rational or a nonzero constant of Q[δ],
    else None; an integer for the units ±1."""
    if isinstance(c, DeltaPoly):
        if len(c.coeffs) != 1:
            return None
        c = c.coeffs[0]
    if not c:
        return None
    return c if c == 1 or c == -1 else 1 / Fraction(c)


def _evaluate(e: Expr, subst: Mapping[int, DiffPermPoly],
              ctx: Context) -> DiffPermPoly:
    """D^0 of ``e`` through ``rec(node, k)``, which is D^k of the node's
    value, memoised on the frozen node and k.  In the ordinary context D^k
    for k > 0 derives the memoised D^(k-1) normal form; in a δ context it is
    pushed down to the generators by the δ-rule."""
    _check_subst(subst, ctx)
    cache: dict[Expr, dict[int, DiffPermPoly]] = {}
    delta_pows = [DeltaPoly.const(1), DELTA]

    def spread(lhs: Expr, i: int, rhs: Expr, j: int, k: int) -> DiffPermPoly:
        """k δ-derivations crossing the product D^i(lhs) D^j(rhs):
        δ^k Σ_r C(k, r) D^(i+r)(lhs) D^(j+k-r)(rhs)."""
        if k == 0:
            return rec(lhs, i) * rec(rhs, j)
        val = DiffPermPoly.zero(ctx)
        for r in range(k + 1):
            term = rec(lhs, i + r) * rec(rhs, j + k - r)
            val = val + term.scale(comb(k, r))
        while len(delta_pows) <= k:
            delta_pows.append(delta_pows[-1] * DELTA)
        return val.scale(delta_pows[k])

    def combine(node: Expr, k: int) -> DiffPermPoly:
        """D^k of a linear combination, by bilinearity: its products that
        share the operation and a structurally equal left operand are
        evaluated as one product whose right operand is the weighted sum of
        theirs, divided by its first nonzero coefficient when that is a
        rational or a constant of Q[δ], so a sum and its scalar multiples
        share one memo entry."""
        terms: list[tuple[Scalar, Expr]] = []
        groups: dict[tuple, list[tuple[Scalar, Expr]]] = {}
        for c, t in _linear_terms(node, ctx):
            if isinstance(t, (DerOp, Mul)):
                key = (getattr(t, "tag", None), t.lhs)
                groups.setdefault(key, []).append((c, t))
            else:
                terms.append((c, t))
        for (tag, lhs), members in groups.items():
            if len(members) == 1:
                terms.extend(members)
                continue
            lead = next((c for c, _ in members if c), 1)
            inv = _inverse(lead)
            if inv is None:
                lead = inv = 1
            rhs = Sum(tuple(t.rhs if c == lead else Scale(c * inv, t.rhs)
                            for c, t in members))
            terms.append((lead, Mul(lhs, rhs) if tag is None
                          else DerOp(tag, lhs, rhs)))
        acc: dict[Monomial, Scalar] = {}
        get = acc.get
        for c, t in terms:
            for m, x in rec(t, k).terms.items():
                acc[m] = get(m, 0) + (x if c == 1 else c * x)
        return DiffPermPoly(ctx, acc)

    def rec(node: Expr, k: int) -> DiffPermPoly:
        memo = cache.setdefault(node, {})
        got = memo.get(k)
        if got is not None:
            return got
        if isinstance(node, Der) and node.axis == 1:
            val = rec(node.body, k + 1)
        elif k and not ctx.delta:
            val = rec(node, k - 1).derive()
        elif isinstance(node, Var):
            if node.index not in subst:
                raise AlgebraError(f"unbound variable x{node.index}")
            val = subst[node.index]
            if k:
                if len(val.terms) != 1:
                    raise AlgebraError("ambiguous δ-derivation: derivative of a "
                                       "non-monomial substitution")
                (m, c), = val.terms.items()
                if m.degree != 1:
                    raise AlgebraError("ambiguous δ-derivation: derivative of a "
                                       "flattened product")
                val = DiffPermPoly(ctx, {Monomial((), m.last.derived(0, k)): c},
                                   _owned=True)
        elif isinstance(node, Der):
            if ctx.delta:
                raise AlgebraError("δ evaluation is single-derivation")
            val = rec(node.body, 0).derive(node.axis)
        elif isinstance(node, Mul):
            val = spread(node.lhs, 0, node.rhs, 0, k)
        elif isinstance(node, DerOp):
            if ctx.arity != 1:
                raise AlgebraError("derived products require a single derivation")
            summands = DERIVED_PRODUCTS.get(node.tag)
            if summands is None:
                raise AlgebraError(f"unknown derived product tag: {node.tag!r}")
            val = None
            for sign, swap, left_derived in summands:
                u, w = (node.rhs, node.lhs) if swap else (node.lhs, node.rhs)
                t = spread(u, int(left_derived), w, int(not left_derived), k)
                if sign < 0:
                    t = -t
                val = t if val is None else val + t
        elif isinstance(node, Assoc):
            tag, a, b, c = node.tag, node.a, node.b, node.c
            val = rec(DerOp(tag, DerOp(tag, a, b), c)
                      - DerOp(tag, a, DerOp(tag, b, c)), k)
        elif isinstance(node, Star):
            if ctx.delta:
                raise AlgebraError("star is not defined in a δ context")
            val = rec(node.body, 0).star()
        elif isinstance(node, (Scale, Sum)):
            val = combine(node, k)
        else:
            raise AlgebraError(f"not an expression node: {node!r}")
        memo[k] = val
        return val

    return rec(e, 0)


def eval_expr(e: Expr, subst: Mapping[int, DiffPermPoly],
              ctx: Context = CTX_Q) -> DiffPermPoly:
    """Structural evaluation with the ordinary derivation.

    Every variable must be bound; derived products and star require a
    single-derivation rational context.  A sum is expanded by bilinearity
    along the prefix tree of its products, and equal subtrees are evaluated
    once however they were built (see the module docstring).
    """
    if ctx.delta:
        raise AlgebraError("δ context: use eval_delta")
    return _evaluate(e, subst, ctx)


def eval_delta(e: Expr, subst: Mapping[int, DiffPermPoly],
               ctx: Context = CTX_DELTA) -> DiffPermPoly:
    """Evaluation with the δ-scaled Leibniz rule D(uv) = δ(D(u)v + uD(v)).

    Derivations are pushed through the syntactic product structure of the
    tree down to the generators (see the module docstring).  Substituting
    anything other than a scalar multiple of a single generator under a
    derivation is rejected: the rule does not act on flattened monomials.
    """
    if not ctx.delta:
        raise AlgebraError("eval_delta requires a δ context")
    if ctx.arity != 1:
        raise AlgebraError("δ evaluation is single-derivation")
    return _evaluate(e, subst, ctx)


# ---------------------------------------------------------------------------
# verdicts and identity checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of an identity check; a surviving term witnesses failure."""

    is_identity: bool
    witness: tuple[Monomial, Scalar] | None = None


def eval_on_generators(e: Expr, ctx: Context = CTX_Q,
                       variables: set[int] | None = None) -> DiffPermPoly:
    """``e`` evaluated on distinct free generators, x_i for each variable
    x_i it uses (``variables``, when the caller has them already), with the
    δ-parametric rule in a δ context and the ordinary derivation otherwise."""
    if variables is None:
        variables = used_vars(e)
    subst = {i: DiffPermPoly.generator(i, 0, ctx) for i in variables}
    return eval_delta(e, subst, ctx) if ctx.delta else eval_expr(e, subst, ctx)


def check_identity(e: Expr, nvars: int | None = None,
                   ctx: Context = CTX_Q) -> Verdict:
    """Decide whether ``e = 0`` holds identically, by substituting distinct
    generators for x1..x_nvars and expanding; ``nvars`` defaults to the
    largest variable index in ``e``.

    The candidate must be multilinear: each monomial of the expansion has to
    contain each of the variables exactly once.  Non-multilinear candidates
    are rejected rather than multilinearized.
    """
    vs = used_vars(e)
    top = max(vs, default=0)
    if nvars is None:
        nvars = top
    elif top > nvars:
        raise AlgebraError(f"expression uses x{top} beyond arity {nvars}")
    # in sorted order, so an error names the least offending monomial
    terms = eval_on_generators(e, ctx, vs).sorted_terms()
    for m, _ in terms:
        seen = tuple(sorted(s.var for s in m.factors))
        if seen != tuple(range(1, nvars + 1)):
            raise NonMultilinearError(
                f"expansion is not multilinear in x1..x{nvars}: "
                f"monomial variables {seen}")
    return Verdict(not terms, terms[0] if terms else None)


# ---------------------------------------------------------------------------
# formal vector fields (coefficients times formal derivations)
# ---------------------------------------------------------------------------


class FormalVectorField(LinearCombination):
    """Sum of coefficient polynomials attached to formal derivation slots:
    a linear combination keyed by the slot index 1..arity of ``ctx``."""

    __slots__ = ()
    ctx = LinearCombination.space  # the space slot, under its name here
    _MISMATCH = "vector field coefficient context mismatch"

    @classmethod
    def make(cls, pairs: list[tuple[DiffPermPoly, int]],
             ctx: Context) -> "FormalVectorField":
        acc: dict[int, DiffPermPoly] = {}
        for coeff, idx in pairs:
            if coeff.ctx != ctx:
                raise AlgebraError(cls._MISMATCH)
            if not 1 <= idx <= ctx.arity:
                raise AlgebraError("derivation index out of range")
            acc[idx] = acc[idx] + coeff if idx in acc else coeff
        return cls(ctx, acc)


def _vf_bracket(summands, X, Y) -> FormalVectorField:
    """The bracket of ``summands`` (from ``BRACKETS``), bilinearly."""
    pairs = []
    for i, a in X.terms.items():
        for j, b in Y.terms.items():
            for sign, v_left, v_derived in summands:
                u, t = (a.derive(j), b) if v_derived else (a, b.derive(i))
                p = u * t if v_left else t * u
                pairs.append((p if sign > 0 else -p, i if v_derived else j))
    return FormalVectorField.make(pairs, X.ctx)


def vf_leibniz_bracket(X: FormalVectorField,
                       Y: FormalVectorField) -> FormalVectorField:
    """[a D_i, b D_j] = D_j(a) b D_i - a D_i(b) D_j, extended bilinearly."""
    return _vf_bracket(BRACKETS["leibniz"], X, Y)


def vf_prec(X: FormalVectorField, Y: FormalVectorField) -> FormalVectorField:
    """(a D_i) prec (b D_j) = (a D_i(b)) D_j, extended bilinearly."""
    return _vf_bracket(BRACKETS["prec"], X, Y)


# ---------------------------------------------------------------------------
# built-in identity suites
# ---------------------------------------------------------------------------


def _perm_sign(perm: tuple[int, ...]) -> int:
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def standard_identity(tag: str, n: int) -> Expr:
    """Standard identity of degree n for a bracket: the alternating sum over
    permutations of the first n-1 arguments of the right-nested products

        x_{s(1)} . (x_{s(2)} . ( ... . (x_{s(n-1)} . x_n)))

    with the innermost argument fixed.  Each bracketed summand expands into
    up to n! monomials of n factors.  Each suffix subtree is built once and
    shared.  The evaluation memo is structural and would find equal copies
    too; sharing saves hashing them and holding them (checking std9 peaks at
    66 MB shared, 122 MB unshared)."""
    memo: dict[tuple[int, ...], Expr] = {}

    def chain(rest: tuple[int, ...]) -> Expr:
        got = memo.get(rest)
        if got is None:
            if len(rest) == 1:
                got = Var(rest[0])
            else:
                got = DerOp(tag, Var(rest[0]), chain(rest[1:]))
            memo[rest] = got
        return got

    terms = []
    for perm in itertools.permutations(range(1, n)):
        e = chain(perm + (n,))
        s = _perm_sign(perm)
        terms.append(e if s == 1 else Scale(-1, e))
    return Sum(tuple(terms))


def _tortken_loz() -> Expr:
    a, b, c, d = v(1), v(2), v(3), v(4)
    t = "loz"
    return (DerOp(t, DerOp(t, a, b), DerOp(t, c, d))
            - DerOp(t, DerOp(t, a, d), DerOp(t, b, c))
            + DerOp(t, Assoc(t, a, b, c), d)
            - DerOp(t, Assoc(t, a, d, c), b))


def _degree5_loz() -> Expr:
    a, b, c, d, e = v(1), v(2), v(3), v(4), v(5)
    t = "loz"

    def chain(*args: Expr) -> Expr:
        out = args[0]
        for nxt in args[1:]:
            out = DerOp(t, out, nxt)
        return out

    return (Scale(2, chain(b, a, c, d, e)) - chain(b, a, c, e, d)
            + Scale(-2, chain(b, a, d, c, e)) + chain(b, a, d, e, c)
            - chain(c, a, b, d, e) + chain(c, a, b, e, d)
            + chain(c, a, d, e, b) - chain(c, a, e, b, d)
            + chain(d, a, b, c, e) - chain(d, a, b, e, c)
            - chain(d, a, c, e, b) + chain(d, a, e, b, c)
            + chain(e, a, b, c, d) - chain(e, a, b, d, c))


def _tortken_di_1() -> Expr:
    a, b, c, d = v(1), v(2), v(3), v(4)
    t = "bullet"
    return (DerOp(t, DerOp(t, a, b), DerOp(t, c, d))
            - DerOp(t, DerOp(t, c, b), DerOp(t, a, d))
            + DerOp(t, Assoc(t, a, b, c), d)
            + DerOp(t, b, DerOp(t, a, DerOp(t, c, d))
                    - DerOp(t, c, DerOp(t, a, d))))


def _tortken_di_2() -> Expr:
    a, b, c, d = v(1), v(2), v(3), v(4)
    t = "bullet"
    return (DerOp(t, DerOp(t, a, b), DerOp(t, c, d))
            - DerOp(t, DerOp(t, a, c), DerOp(t, b, d))
            - DerOp(t, b, Assoc(t, a, c, d))
            + DerOp(t, c, Assoc(t, a, b, d)))


def _jacobi(tag: str) -> Expr:
    a, b, c = v(1), v(2), v(3)
    return (DerOp(tag, DerOp(tag, a, b), c)
            + DerOp(tag, DerOp(tag, b, c), a)
            + DerOp(tag, DerOp(tag, c, a), b))


def _delta_leibniz() -> Expr:
    a, b, c = v(1), v(2), v(3)
    t = "circ"
    return (DerOp(t, DerOp(t, a, b), c)
            - DerOp(t, a, DerOp(t, b, c))
            + DerOp(t, b, DerOp(t, a, c)))


def _delta_transposed() -> Expr:
    # (δ+1) x {y,z} = {xy, z} + {y, xz} with {a,b} = D(a)b - aD(b)
    xv, yv, zv = v(1), v(2), v(3)
    br = DerOp("circ", yv, zv)
    lhs_core = Mul(xv, br)
    return (Scale(DELTA, lhs_core) + lhs_core
            - DerOp("circ", Mul(xv, yv), zv)
            - DerOp("circ", yv, Mul(xv, zv)))


def _w_formal_case(kind: str) -> Verdict:
    """Left Leibniz law or pre-Lie associator symmetry for formal vector
    fields with free-generator coefficients, over all 27 derivation-index
    triples in a three-derivation context."""
    ctx = Context(3, False)
    a = DiffPermPoly.generator(1, (0, 0, 0), ctx)
    b = DiffPermPoly.generator(2, (0, 0, 0), ctx)
    c = DiffPermPoly.generator(3, (0, 0, 0), ctx)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                X = FormalVectorField.make([(a, i)], ctx)
                Y = FormalVectorField.make([(b, j)], ctx)
                Z = FormalVectorField.make([(c, k)], ctx)
                if kind == "leibniz":
                    lhs = vf_leibniz_bracket(vf_leibniz_bracket(X, Y), Z)
                    rhs = (vf_leibniz_bracket(X, vf_leibniz_bracket(Y, Z))
                           - vf_leibniz_bracket(Y, vf_leibniz_bracket(X, Z)))
                else:
                    axy = vf_prec(vf_prec(X, Y), Z) - vf_prec(X, vf_prec(Y, Z))
                    ayx = vf_prec(vf_prec(Y, X), Z) - vf_prec(Y, vf_prec(X, Z))
                    lhs, rhs = axy, ayx
                diff = lhs - rhs
                if not diff.is_zero():
                    # witness: the least term at the lowest nonzero slot
                    least = diff.terms[min(diff.terms)].sorted_terms()[0]
                    return Verdict(False, least)
    return Verdict(True, None)


@dataclass(frozen=True)
class SuiteCase:
    name: str
    expected: bool
    nvars: int = 0
    expr: Expr | None = None
    ctx: Context = CTX_Q
    runner: Callable[[], Verdict] | None = None

    def run(self) -> Verdict:
        if self.runner is not None:
            return self.runner()
        return check_identity(self.expr, self.nvars, self.ctx)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    expected: bool
    verdict: Verdict

    @property
    def ok(self) -> bool:
        return self.verdict.is_identity == self.expected


# Suite id -> builder of its cases, built on request.
_SUITES: dict[str, Callable[[], list[SuiteCase]]] = {
    "a": lambda: [
        SuiteCase("loz-commutative", True, 2,
                  DerOp("loz", v(1), v(2)) - DerOp("loz", v(2), v(1))),
        SuiteCase("loz-tortken", True, 4, _tortken_loz()),
        SuiteCase("loz-degree5", True, 5, _degree5_loz()),
    ],
    "b": lambda: [
        SuiteCase("bullet-left-comm", True, 3,
                  DerOp("bullet", DerOp("bullet", v(1), v(2)), v(3))
                  - DerOp("bullet", DerOp("bullet", v(2), v(1)), v(3))),
        SuiteCase("bullet-tortken-di-1", True, 4, _tortken_di_1()),
        SuiteCase("bullet-tortken-di-2", True, 4, _tortken_di_2()),
    ],
    "c": lambda: [
        SuiteCase("diamond-anticomm", True, 2,
                  DerOp("diamond", v(1), v(2)) + DerOp("diamond", v(2), v(1))),
        SuiteCase("diamond-jacobi", True, 3, _jacobi("diamond")),
        SuiteCase("diamond-std6", True, 6, standard_identity("diamond", 6)),
        SuiteCase("diamond-std5", False, 5, standard_identity("diamond", 5)),
    ],
    "d": lambda: [
        SuiteCase("prec-pre-lie", True, 3,
                  Assoc("prec", v(1), v(2), v(3))
                  - Assoc("prec", v(2), v(1), v(3))),
    ],
    "e": lambda: [SuiteCase("delta-leibniz", True, 3, _delta_leibniz(),
                            ctx=CTX_DELTA)],
    "f": lambda: [SuiteCase("delta-transposed", True, 3, _delta_transposed(),
                            ctx=CTX_DELTA)],
    "g": lambda: [SuiteCase("formal-W-leibniz", True,
                            runner=lambda: _w_formal_case("leibniz"))],
    "h": lambda: [SuiteCase("formal-W-pre-lie", True,
                            runner=lambda: _w_formal_case("prelie"))],
}
SUITE_IDS = tuple(_SUITES)


def suite_cases(suite_id: str) -> list[SuiteCase]:
    build = _SUITES.get(suite_id)
    if build is None:
        raise AlgebraError(f"unknown suite: {suite_id!r}")
    return build()


def run_suite(suite_id: str) -> list[SuiteResult]:
    return [SuiteResult(c.name, c.expected, c.run())
            for c in suite_cases(suite_id)]
