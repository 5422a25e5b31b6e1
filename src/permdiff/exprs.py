"""Identity candidates as term trees, read from and printed in the
expression grammar, their evaluation, and verdicts; the built-in suites are
written in that grammar.

An identity candidate is an expression tree over numbered variables with
products, derivations, the six derived products, the star operator, scalar
multiples and sums.  Evaluating the tree on distinct free generators and
testing the normal form for zero decides whether the candidate vanishes in
every differential perm algebra: any assignment of values extends to an
endomorphism of the free algebra commuting with all the operations, so the
generator substitution is the universal one (this is itself a tested
property, not an act of faith).  The generators are bound as the evaluation
meets the variables, so one walk finds the variables and evaluates the tree,
and a candidate's arity is its largest variable evaluated.

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
memo is keyed by ``(node, k)``, so equal subtrees are evaluated once however
they were built; each node caches its hash, so a lookup does not walk the
subtree again.  The walk keeps its pending nodes on a list, not on the
Python stack, so only the parser bounds nesting (``MAX_NESTING``).  In the
ordinary context D^k derives the memoised D^(k-1) normal form.  In a δ
context D^k is pushed through the syntactic product structure with the rule
D(uv) = δ(D(u)v + uD(v)), which is the Leibniz rule at δ = 1, and bottoms
out at generator leaves; there a zero normal form over Q[δ] certifies the
identity in every perm algebra with a δ-derivation.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple

from .algebra import (
    CTX_DELTA,
    CTX_Q,
    AlgebraError,
    BRACKETS,
    Context,
    DeltaPoly,
    DELTA,
    DERIVED_PRODUCT_TAGS,
    DERIVED_PRODUCTS,
    DiffPermPoly,
    LinearCombination,
    Monomial,
    Rational,
    Scalar,
    _coerce_scalar,
    _frozen,
    format_scalar,
)


class NonMultilinearError(AlgebraError):
    """The expansion of an identity candidate is not multilinear."""


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


_set = object.__setattr__  # a node's own __setattr__ refuses


class Expr:
    """Base node; arithmetic operators build trees, nothing is evaluated.

    A node is immutable.  Its class names its fields, its slots, in
    ``_fields``; a node is made from their values in that order and equals
    a node of the same class with equal fields.  Its hash is computed from
    its fields when it is made and kept in the ``_hash`` slot, which is not
    a field.  Its operands are made first, so hashing a node reads their
    slots and never walks its subtree, however deep a tree is built."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        fields = self._fields
        i = len(values)
        if i != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields")
        _set(self, "_hash", hash(values))
        while i:  # a while loop makes no iterator: nodes are made often
            i -= 1
            _set(self, fields[i], values[i])

    __setattr__ = __delattr__ = _frozen

    def __hash__(self) -> int:
        return self._hash

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # one field: its value alone

    def __eq__(self, other):
        if self is other:  # a shared operand is equal without a walk
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __repr__(self) -> str:
        return (type(self).__name__ + "(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")")

    def __reduce__(self):
        # copied and unpickled nodes are made again, so they hash too
        return type(self), tuple(getattr(self, f) for f in self._fields)

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


class Var(Expr):
    __slots__ = _fields = ("index",)


class Mul(Expr):
    __slots__ = _fields = ("lhs", "rhs")


class Der(Expr):
    __slots__ = _fields = ("body",)


class DerOp(Expr):
    __slots__ = _fields = ("tag", "lhs", "rhs")


class Star(Expr):
    __slots__ = _fields = ("body",)


class Scale(Expr):
    __slots__ = _fields = ("coeff", "body")  # coeff: int, Fraction, DeltaPoly


class Sum(Expr):
    __slots__ = _fields = ("terms",)  # a tuple of nodes


class Assoc(Expr):
    """Associator (a, b, c) = (a · b) · c - a · (b · c) of a derived product."""

    __slots__ = _fields = ("tag", "a", "b", "c")


class Bracket(DerOp):
    """Readability alias for a bracket-like derived product: it evaluates as
    the ``DerOp`` it extends and differs from it only in how it prints."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# One token after optional blanks: a number, a name, an operator, any other
# character, which no rule accepts, or "" at the end of the text.
_TOKEN = re.compile(r"[ \t]*([0-9]+(?:/[0-9]+)?|[A-Za-z][A-Za-z0-9_]*"
                    r"|[-+*(),]|\Z|.)", re.S)
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_STARTS = _DIGITS | _LETTERS | frozenset("+-*(),")  # first chars of tokens

# The call forms of the grammar: name -> (node class, operand count).  A
# derived product is tagged with its own name; assoc and bracket are tagged
# with the product passed to the parser.
CALL_FORMS = {"d": (Der, 1), "star": (Star, 1),
              **dict.fromkeys(DERIVED_PRODUCT_TAGS, (DerOp, 2)),
              "assoc": (Assoc, 3), "bracket": (Bracket, 2)}

# The most parentheses, bare or of a call form, open at once in one line.
# The parser spends at most 3 Python frames per level; ``pretty`` spends none.
MAX_NESTING = 256


class _Parser:
    """Recursive descent over the tokens of one line.  Columns are found
    again only when an error is raised.

    Every node is made by ``node``, through a table local to the parser, so
    equal subtrees of the line are one object.  A key holds the node class,
    its scalar (a tag, a variable index or a coefficient) and its operands'
    identities, so ``Bracket`` and ``DerOp`` nodes stay apart."""

    def __init__(self, text: str, line: int, product: str | None):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.pos = 0
        self.line = line
        self.product = product
        self.depth = 0  # parentheses open
        self.nodes: dict[tuple, Expr] = {}

    def node(self, key: tuple, cls, *args) -> Expr:
        """The one node ``cls(*args)`` of this parse with the given key."""
        got = self.nodes.get(key)
        if got is None:
            got = self.nodes[key] = cls(*args)
        return got

    def scale(self, c, body: Expr) -> Expr:
        return self.node((Scale, c, id(body)), Scale, c, body)

    def negate(self, node: Expr) -> Expr:
        """Fold a leading minus into a rational scalar coefficient."""
        if isinstance(node, Scale) and not isinstance(node.coeff, DeltaPoly):
            c = -node.coeff
            return node.body if c == 1 else self.scale(c, node.body)
        return self.scale(-1, node)

    def error(self, message: str) -> ParseError:
        """The error at the next token; a character outside the grammar
        anywhere in the line is reported instead, as the first error."""
        matches = list(_TOKEN.finditer(self.text))
        for m in matches:
            if m[1] and m[1][0] not in _STARTS:
                return ParseError(f"unexpected character {m[1]!r}",
                                  self.line, m.start(1) + 1)
        return ParseError(message, self.line, matches[self.pos].start(1) + 1)

    def expect_op(self, op: str) -> None:
        if self.toks[self.pos] != op:
            raise self.error(f"expected {op!r}")
        self.pos += 1

    def open(self) -> None:
        """Consume the '(' or call name of one more level of nesting."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        self.pos += 1

    def integer(self, digits: str) -> int:
        """The value of ASCII digits in the next token; more digits than the
        interpreter converts are a parse error."""
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"number of {len(digits)} digits is too long"
                             ) from None

    def parse_expr(self) -> Expr:
        toks = self.toks
        t = toks[self.pos]
        if t == "+" or t == "-":
            self.pos += 1
        node = self.parse_term()
        if t == "-":
            node = self.negate(node)
        t = toks[self.pos]
        if t != "+" and t != "-":
            return node
        terms = [node]
        while t == "+" or t == "-":
            self.pos += 1
            nxt = self.parse_term()
            terms.append(nxt if t == "+" else self.negate(nxt))
            t = toks[self.pos]
        return self.node((Sum, *map(id, terms)), Sum, tuple(terms))

    def parse_term(self) -> Expr:
        """Factors joined by '*': the generator factors multiplied from the
        left, scaled by the product of the scalar factors unless it is 1."""
        toks = self.toks
        node = coeff = None
        while True:
            t = toks[self.pos]
            if t[:1] in _DIGITS:
                num, _, den = t.partition("/")
                num, den = self.integer(num), self.integer(den or "1")
                if den == 0:
                    raise self.error("zero denominator")
                c = Fraction(num, den)
            elif t == "delta":
                c = DELTA
            else:
                nxt = self.parse_atom()
                if node is None:
                    node = nxt
                else:
                    node = self.node((Mul, id(node), id(nxt)), Mul, node, nxt)
                c = None
            if c is not None:
                self.pos += 1
                coeff = c if coeff is None else coeff * c
            if toks[self.pos] != "*":
                break
            self.pos += 1
        if node is None:
            raise self.error("term has no generator factor")
        if isinstance(coeff, DeltaPoly) and coeff.degree < 1:
            # a zero multiple of delta has no δ term: it is read as the
            # rational 0, which it equals and hashes as, so the evaluation
            # memo cannot take one for the other
            coeff = Fraction(coeff.coeffs[0] if coeff.coeffs else 0)
        if coeff is not None and coeff != 1:
            node = self.scale(coeff if isinstance(coeff, DeltaPoly)
                              else _as_int(coeff), node)
        return node

    def parse_atom(self) -> Expr:
        t = self.toks[self.pos]
        if t == "(":
            self.open()
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        if t[:1] == "x" and t[1:].isdigit():
            idx = self.integer(t[1:])
            if idx < 1:
                raise self.error("variable index must be >= 1")
            self.pos += 1
            return self.node((Var, idx), Var, idx)
        form = CALL_FORMS.get(t)
        if form is None:
            raise self.error("expected factor" if t[:1] not in _LETTERS
                             else f"unknown operation name {t!r}")
        cls, arity = form
        tag = None
        if hasattr(cls, "tag"):  # a derived product, assoc or bracket
            tag = t if cls is DerOp else self.product
            if tag is None:
                raise self.error(f"{t}(...) needs --product")
        self.open()
        self.expect_op("(")
        ops = [self.parse_expr()]
        for _ in range(arity - 1):
            self.expect_op(",")
            ops.append(self.parse_expr())
        self.expect_op(")")
        self.depth -= 1
        args = ops if tag is None else [tag, *ops]
        return self.node((cls, tag, *map(id, ops)), cls, *args)


def _as_int(c: Fraction):
    return int(c) if isinstance(c, Fraction) and c.denominator == 1 else c


def parse_expr(text: str, product: str | None = None, line: int = 1) -> Expr:
    """Parse one expression of the grammar::

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := rational | 'delta' | var | 'd(' expr ')' | 'star(' expr ')'
                | opname '(' expr ',' expr ')'
                | 'assoc(' expr ',' expr ',' expr ')' | 'bracket(' expr ',' expr ')'
                | '(' expr ')'
        var    := 'x' digits        rational := digits ['/' digits]
        opname := prec | succ | loz | bullet | diamond | circ

    Digits are ASCII ``0-9`` and names ASCII ``[A-Za-z][A-Za-z0-9_]*``;
    blanks and tabs separate tokens, and any other character is a syntax
    error, as is nesting deeper than ``MAX_NESTING``.  ``assoc`` and
    ``bracket`` use ``product`` (``--product`` on the command line).
    Unbound variables are an evaluation-time error, not a parse error."""
    parser = _Parser(text, line, product)
    node = parser.parse_expr()
    if parser.toks[parser.pos]:
        raise parser.error("trailing input")
    return node


# The inverse of the grammar's call forms: node class -> (call name, operand
# fields).  A DerOp prints as its tag.
_PRINTED_FORMS = {
    cls: (None if cls is DerOp else name,
          [f for f in cls._fields if f != "tag"][:arity])
    for name, (cls, arity) in CALL_FORMS.items()}


def _coeff_text(c) -> str:
    if isinstance(c, DeltaPoly):
        nonzero = [k for k, v in enumerate(c.coeffs) if v]
        if nonzero == [1] and c.coeffs[1] == 1:
            return "delta"
        raise AlgebraError("only the bare delta scalar is printable; "
                           "spell other delta coefficients as sums")
    return format_scalar(c)


def _negative(e: Expr) -> bool:
    """A scaled tree whose rational coefficient prints with a minus."""
    return (isinstance(e, Scale) and not isinstance(e.coeff, DeltaPoly)
            and e.coeff < 0)


def pretty(e: Expr, _prec: int = 0) -> str:
    """Render a tree in the expression grammar.  A parsed tree prints text
    that parses back to the same tree; a tree built in library code prints
    text whose parse has the same value.  A sum parenthesises itself at
    ``_prec`` 1, as a term or factor of something else.

    Printing does not recurse, so a tree of any depth prints: one stack
    holds, in reverse order, the text still to write and the nodes still to
    print, each node with its ``_prec``."""
    out: list[str] = []
    names: dict[int, str] = {}  # each variable's text, shared by its uses
    todo: list = [(e, _prec)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        e, prec = item
        if isinstance(e, Var):
            out.append(names.setdefault(e.index, f"x{e.index}"))
            continue
        form = _PRINTED_FORMS.get(type(e))
        if form is not None:
            name, operands = form
            parts = [f"{name or e.tag}("]
            for f in operands:
                parts += ((getattr(e, f), 0), ", ")
            parts[-1] = ")"
        elif isinstance(e, Mul):
            # a product of left operands prints flat; a scaled factor, or a
            # product as the right operand, is parenthesised
            lhs, rhs = e.lhs, e.rhs
            parts = (["(", (lhs, 0), ")"] if isinstance(lhs, Scale)
                     else [(lhs, 1)])
            parts += ((" * ", "(", (rhs, 0), ")")
                      if isinstance(rhs, (Scale, Mul)) else (" * ", (rhs, 1)))
        elif isinstance(e, Scale):
            parts = [f"{_coeff_text(e.coeff)} * "]
            parts += (("(", (e.body, 1), ")")
                      if isinstance(e.body, (Mul, Scale)) else ((e.body, 1),))
        elif isinstance(e, Sum) and e.terms:  # an empty sum has no text
            parts = ["("] if prec > 0 else []
            first = len(parts)
            for t in e.terms:
                sign = " + "
                if _negative(t):
                    sign = " - "
                    t = Scale(-t.coeff, t.body) if t.coeff != -1 else t.body
                # "x2 - -3 * x4" does not parse: a term still negative once
                # its sign is taken (-1 times a negative multiple) is
                # parenthesised
                parts += ((sign, "(", (t, 1), ")") if _negative(t)
                          else (sign, (t, 1)))
            parts[first] = parts[first].strip(" +")  # a first term: "" or "-"
            if prec > 0:
                parts.append(")")
        else:
            raise AlgebraError(f"not printable: {e!r}")
        todo.extend(reversed(parts))
    return "".join(out)


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
    """D^0 of ``e``.  ``value(node, k)`` is a generator of D^k of the node's
    value: it yields each ``(child, j)`` it needs and is sent back D^j of the
    child.  A loop keeps the pending generators on a list, so nesting costs
    no Python frames, and memoises each value by ``(node, k)``.  In the
    ordinary context D^k for k > 0 derives the memoised D^(k-1) normal form;
    in a δ context it is pushed down to the generators by the δ-rule."""
    _check_subst(subst, ctx)
    memo: dict[tuple[Expr, int], DiffPermPoly] = {}
    delta_pows = [DeltaPoly.const(1), DELTA]

    def spread(lhs: Expr, i: int, rhs: Expr, j: int, k: int):
        """k δ-derivations crossing the product D^i(lhs) D^j(rhs):
        δ^k Σ_r C(k, r) D^(i+r)(lhs) D^(j+k-r)(rhs)."""
        if k == 0:
            return (yield lhs, i) * (yield rhs, j)
        val = DiffPermPoly.zero(ctx)
        for r in range(k + 1):
            term = (yield lhs, i + r) * (yield rhs, j + k - r)
            val = val + term.scale(comb(k, r))
        while len(delta_pows) <= k:
            delta_pows.append(delta_pows[-1] * DELTA)
        return val.scale(delta_pows[k])

    def combine(node: Expr, k: int):
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
            for m, x in (yield t, k).terms.items():
                acc[m] = get(m, 0) + (x if c == 1 else c * x)
        return DiffPermPoly(ctx, acc)

    def value(node: Expr, k: int):
        if isinstance(node, Der):
            val = yield node.body, k + 1
        elif k and not ctx.delta:
            val = (yield node, k - 1).derive()
        elif isinstance(node, Var):
            try:
                val = subst[node.index]
            except KeyError:
                raise AlgebraError(f"unbound variable x{node.index}"
                                   ) from None
            if k:
                if len(val.terms) != 1:
                    raise AlgebraError("ambiguous δ-derivation: derivative of a "
                                       "non-monomial substitution")
                (m, c), = val.terms.items()
                if m.degree != 1:
                    raise AlgebraError("ambiguous δ-derivation: derivative of a "
                                       "flattened product")
                val = DiffPermPoly(ctx, {Monomial((), m.last.derived(0, k)): c})
        elif isinstance(node, Mul):
            val = yield from spread(node.lhs, 0, node.rhs, 0, k)
        elif isinstance(node, DerOp):
            if ctx.arity != 1:
                raise AlgebraError("derived products require a single derivation")
            summands = DERIVED_PRODUCTS.get(node.tag)
            if summands is None:
                raise AlgebraError(f"unknown derived product tag: {node.tag!r}")
            val = None
            for sign, swap, left_derived in summands:
                u, w = (node.rhs, node.lhs) if swap else (node.lhs, node.rhs)
                t = yield from spread(u, int(left_derived), w,
                                      int(not left_derived), k)
                if sign < 0:
                    t = -t
                val = t if val is None else val + t
        elif isinstance(node, Assoc):
            tag, a, b, c = node.tag, node.a, node.b, node.c
            val = ((yield DerOp(tag, DerOp(tag, a, b), c), k)
                   - (yield DerOp(tag, a, DerOp(tag, b, c)), k))
        elif isinstance(node, Star):
            if ctx.delta:
                raise AlgebraError("star is not defined in a δ context")
            val = (yield node.body, 0).star()
        elif isinstance(node, (Scale, Sum)):
            val = yield from combine(node, k)
        else:
            raise AlgebraError(f"not an expression node: {node!r}")
        return val

    stack = [((e, 0), value(e, 0))]
    got = None
    while stack:
        key, gen = stack[-1]
        try:
            child = gen.send(got)
        except StopIteration as done:
            got = memo[key] = done.value
            stack.pop()
        else:
            got = memo.get(child)
            if got is None:
                stack.append((child, value(*child)))
    return got


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


class Verdict(NamedTuple):
    """Outcome of an identity check; a surviving term witnesses failure."""

    is_identity: bool
    witness: tuple[Monomial, Scalar] | None = None


class _Generators(dict):
    """The substitution of distinct free generators: x_i of ``ctx`` is made
    and bound the first time an evaluation reads index i, so after one
    evaluation the keys are the variables of the tree."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: Context):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, i: int) -> DiffPermPoly:
        g = self[i] = DiffPermPoly.generator(i, 0, self.ctx)
        return g

    def evaluate(self, e: Expr) -> DiffPermPoly:
        """``e`` on these generators, with the δ-parametric rule in a δ
        context and the ordinary derivation otherwise."""
        evaluate = eval_delta if self.ctx.delta else eval_expr
        return evaluate(e, self, self.ctx)


def eval_on_generators(e: Expr, ctx: Context = CTX_Q) -> DiffPermPoly:
    """``e`` evaluated on distinct free generators, x_i for each variable
    x_i it uses."""
    return _Generators(ctx).evaluate(e)


def check_identity(e: Expr, *, ctx: Context = CTX_Q) -> Verdict:
    """Decide whether ``e = 0`` holds identically, by evaluating it on
    distinct free generators; its arity n is the largest variable index
    evaluated.

    The candidate must be multilinear: each monomial of the expansion has to
    contain each of x1..xn exactly once.  Non-multilinear candidates are
    rejected rather than multilinearized.
    """
    gens = _Generators(ctx)
    # in sorted order, so an error names the least offending monomial
    terms = gens.evaluate(e).sorted_terms()
    n = max(gens, default=0)
    want = tuple(range(1, n + 1))
    for m, _ in terms:
        seen = tuple(sorted(s.var for s in m.factors))
        if seen != want:
            raise NonMultilinearError(
                f"expansion is not multilinear in x1..x{n}: "
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


def _w_formal_case(kind: str) -> Verdict:
    """Left Leibniz law or pre-Lie associator symmetry for formal vector
    fields with free-generator coefficients, over all 27 derivation-index
    triples in a three-derivation context.  That algebra maps to P_n with
    D_1..D_3 sent to any Euler derivations, so these are the laws of the
    Witt algebras of ``witt`` for every n."""
    ctx = Context(3, False)
    a = DiffPermPoly.generator(1, (0, 0, 0), ctx)
    b = DiffPermPoly.generator(2, (0, 0, 0), ctx)
    c = DiffPermPoly.generator(3, (0, 0, 0), ctx)
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        X = FormalVectorField.make([(a, i)], ctx)
        Y = FormalVectorField.make([(b, j)], ctx)
        Z = FormalVectorField.make([(c, k)], ctx)
        if kind == "leibniz":
            lhs = vf_leibniz_bracket(vf_leibniz_bracket(X, Y), Z)
            rhs = (vf_leibniz_bracket(X, vf_leibniz_bracket(Y, Z))
                   - vf_leibniz_bracket(Y, vf_leibniz_bracket(X, Z)))
        else:  # the associators of (X, Y, Z) and (Y, X, Z)
            lhs = vf_prec(vf_prec(X, Y), Z) - vf_prec(X, vf_prec(Y, Z))
            rhs = vf_prec(vf_prec(Y, X), Z) - vf_prec(Y, vf_prec(X, Z))
        diff = lhs - rhs
        if not diff.is_zero():
            # witness: the least term at the lowest nonzero slot
            least = diff.terms[min(diff.terms)].sorted_terms()[0]
            return Verdict(False, least)
    return Verdict(True, None)


class SuiteCase(NamedTuple):
    name: str
    expected: bool
    expr: Expr | None = None
    ctx: Context = CTX_Q
    runner: Callable[[], Verdict] | None = None

    def run(self) -> Verdict:
        if self.runner is not None:
            return self.runner()
        return check_identity(self.expr, ctx=self.ctx)


class SuiteResult(NamedTuple):
    name: str
    expected: bool
    verdict: Verdict

    @property
    def ok(self) -> bool:
        return self.verdict.is_identity == self.expected


SUITE_IDS = ("a", "b", "c", "d", "e", "f", "g", "h")

# The identities of suites a-f, in the expression grammar: suite id, case
# name, the product that assoc(...) reads, the evaluation context and the
# text, one line as ``check --file`` reads it.  Each holds in x1..xn, for
# its largest variable xn.
_IDENTITIES = (
    ("a", "loz-commutative", None, CTX_Q, "loz(x1, x2) - loz(x2, x1)"),
    ("a", "loz-tortken", "loz", CTX_Q, "loz(loz(x1, x2), loz(x3, x4)) - loz(loz(x1, x4), loz(x2, x3)) + loz(assoc(x1, x2, x3), x4) - loz(assoc(x1, x4, x3), x2)"),
    ("a", "loz-degree5", None, CTX_Q, "2 * loz(loz(loz(loz(x2, x1), x3), x4), x5) - loz(loz(loz(loz(x2, x1), x3), x5), x4) - 2 * loz(loz(loz(loz(x2, x1), x4), x3), x5) + loz(loz(loz(loz(x2, x1), x4), x5), x3) - loz(loz(loz(loz(x3, x1), x2), x4), x5) + loz(loz(loz(loz(x3, x1), x2), x5), x4) + loz(loz(loz(loz(x3, x1), x4), x5), x2) - loz(loz(loz(loz(x3, x1), x5), x2), x4) + loz(loz(loz(loz(x4, x1), x2), x3), x5) - loz(loz(loz(loz(x4, x1), x2), x5), x3) - loz(loz(loz(loz(x4, x1), x3), x5), x2) + loz(loz(loz(loz(x4, x1), x5), x2), x3) + loz(loz(loz(loz(x5, x1), x2), x3), x4) - loz(loz(loz(loz(x5, x1), x2), x4), x3)"),
    ("b", "bullet-left-comm", None, CTX_Q, "bullet(bullet(x1, x2), x3) - bullet(bullet(x2, x1), x3)"),
    ("b", "bullet-tortken-di-1", "bullet", CTX_Q, "bullet(bullet(x1, x2), bullet(x3, x4)) - bullet(bullet(x3, x2), bullet(x1, x4)) + bullet(assoc(x1, x2, x3), x4) + bullet(x2, bullet(x1, bullet(x3, x4)) - bullet(x3, bullet(x1, x4)))"),
    ("b", "bullet-tortken-di-2", "bullet", CTX_Q, "bullet(bullet(x1, x2), bullet(x3, x4)) - bullet(bullet(x1, x3), bullet(x2, x4)) - bullet(x2, assoc(x1, x3, x4)) + bullet(x3, assoc(x1, x2, x4))"),
    ("c", "diamond-anticomm", None, CTX_Q, "diamond(x1, x2) + diamond(x2, x1)"),
    ("c", "diamond-jacobi", None, CTX_Q, "diamond(diamond(x1, x2), x3) + diamond(diamond(x2, x3), x1) + diamond(diamond(x3, x1), x2)"),
    ("d", "prec-pre-lie", "prec", CTX_Q, "assoc(x1, x2, x3) - assoc(x2, x1, x3)"),
    ("e", "delta-leibniz", None, CTX_DELTA, "circ(circ(x1, x2), x3) - circ(x1, circ(x2, x3)) + circ(x2, circ(x1, x3))"),
    # (δ+1) x {y, z} = {xy, z} + {y, xz} for {a, b} = circ(a, b)
    ("f", "delta-transposed", None, CTX_DELTA, "delta * (x1 * circ(x2, x3)) + x1 * circ(x2, x3) - circ(x1 * x2, x3) - circ(x2, x1 * x3)"),
)

# The cases built by code, after the identities of their suite.
_BUILT: dict[str, Callable[[], list[SuiteCase]]] = {
    "c": lambda: [
        SuiteCase("diamond-std6", True, standard_identity("diamond", 6)),
        SuiteCase("diamond-std5", False, standard_identity("diamond", 5)),
    ],
    "g": lambda: [SuiteCase("formal-W-leibniz", True,
                            runner=lambda: _w_formal_case("leibniz"))],
    "h": lambda: [SuiteCase("formal-W-pre-lie", True,
                            runner=lambda: _w_formal_case("prelie"))],
}


def suite_cases(suite_id: str) -> list[SuiteCase]:
    """The cases of one suite, parsed or built on request."""
    if suite_id not in SUITE_IDS:
        raise AlgebraError(f"unknown suite: {suite_id!r}")
    cases = []
    for sid, name, product, ctx, text in _IDENTITIES:
        if sid == suite_id:
            cases.append(SuiteCase(name, True, parse_expr(text, product),
                                   ctx))
    return cases + _BUILT.get(suite_id, list)()


def run_suite(suite_id: str) -> list[SuiteResult]:
    return [SuiteResult(c.name, c.expected, c.run())
            for c in suite_cases(suite_id)]
