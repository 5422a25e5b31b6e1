"""Witt-type Lie and Leibniz algebras over a tensor perm algebra.

From the polynomial algebra k[x_1..x_n] one builds the perm algebra
P_n = k[x_1..x_n] (x) span(x_1..x_n) with product
(u x x_r) (v x x_s) = (u v x_r) x x_s, carrying the commuting Euler-type
derivations D_i(u x x_j) = (x_i d/dx_i u) x x_j + [i = j] u x x_i.  The
direct sum of n copies of P_n, one per derivation slot, carries

  * a Lie bracket      [a D_i, b D_j]   = a D_i(b) D_j - b D_j(a) D_i,
  * a Leibniz bracket  [a D_i, b D_j]_o = D_j(a) b D_i - a D_i(b) D_j.

One kernel computes both, and prec: on each slot pattern it is a
``BracketRule`` of targets with coefficients affine in the exponents, made
from the signed summands in ``algebra.BRACKETS``.  The embedded rules for
n = 1 and n = 2 hold the same integer data, refused when made unless well
formed, and ``verify_tables`` compares the two as data.  Left Leibniz and
prec's associator symmetry, so Jacobi, hold for every n: suites g and h
check them over the free differential perm algebra with three commuting
derivations, which maps to P_n with D_1..D_3 sent to any D_i, D_j, D_k, and
there the kernel is the ``BRACKETS`` formula.
"""

from __future__ import annotations

import functools
import itertools
from operator import add, mul
from typing import NamedTuple

from .algebra import (BRACKETS, AlgebraError, LinearCombination, Rational,
                      _frozen)


class WBasis(NamedTuple):
    """Basis element (x^e (x) x_alpha) D_i of the Witt-type algebra."""

    e: tuple[int, ...]
    alpha: int
    i: int


class WittElement(LinearCombination):
    """Element of the Witt-type algebra: a linear combination of ``WBasis``
    elements, tensor coefficients on derivation slots; immutable by
    convention."""

    __slots__ = ()
    n = LinearCombination.space  # the space slot, under its name here
    _MISMATCH = "Witt algebra dimension mismatch"

    @classmethod
    def basis(cls, n: int, e: tuple[int, ...], alpha: int, i: int) -> "WittElement":
        if (len(e) != n or not (_is_slot(alpha, n) and _is_slot(i, n))
                or not all(type(x) is int and x >= 0 for x in e)):
            raise AlgebraError("bad Witt basis data")
        return cls(n, {WBasis(tuple(e), alpha, i): 1})

    def __repr__(self):
        return f"<WittElement n={self.n} {self.terms}>"


def _bracket(kind: str, v: WittElement, w: WittElement) -> WittElement:
    """The bracket ``kind`` (a key of ``BRACKETS``), bilinearly: each pair
    of basis terms reads the kernel rule on its slot pattern."""
    v._check(w)
    acc: dict[WBasis, Rational] = {}
    for (e, alpha, i), c1 in v.terms.items():
        for (f, beta, j), c2 in w.terms.items():
            rule = _kernel(kind, v.n, (alpha, i), (beta, j))
            for key, c in rule.expected_terms(e, f).items():
                acc[key] = acc.get(key, 0) + c * c1 * c2
    return WittElement(v.n, acc)


def lie_bracket(v: WittElement, w: WittElement) -> WittElement:
    """[v, w] = v prec w - w prec v, antisymmetric by construction."""
    return _bracket("lie", v, w)


def leibniz_bracket(v: WittElement, w: WittElement) -> WittElement:
    """[a D_i, b D_j]_o = D_j(a) b D_i - a D_i(b) D_j; not antisymmetric."""
    return _bracket("leibniz", v, w)


# ---------------------------------------------------------------------------
# embedded coefficient rules for n = 1 and n = 2
# ---------------------------------------------------------------------------

# A rule is the bracket on one slot pattern, for all left exponents e1 and
# right exponents e2.  A target (form, direction, alpha, i) is c0 + cm.e1 +
# cp.e2, form = (c0, *cm, *cp), times x^(e1 + e2 + unit(direction)) (x)
# x_alpha D_i.  For n = 2 a form reads (c0, cm, cn, cp, cq) on exponents
# (m, n) and (p, q), and x and y stand for the slots 1 and 2.

_X, _Y = 1, 2


def _is_slot(k, n: int) -> bool:
    return type(k) is int and 1 <= k <= n


class BracketRule:
    """Block ``block`` of table ``table`` ("lie" or "leibniz"; "prec" only
    in a kernel rule) in rank ``n``: the bracket on the slot pattern
    (alpha, i) = ``left``, (beta, j) = ``right`` as ``targets`` ((form,
    direction, alpha, i), ...).  Immutable; ``replace`` makes a copy,
    checked as a new rule is.  ``forms`` sums the forms per target
    (direction, alpha, i), zero sums dropped: distinct targets reach
    distinct basis elements, so two rules with equal sums give equal
    brackets at every exponent."""

    __slots__ = ("n", "table", "block", "left", "right", "targets", "forms")

    def __init__(self, n: int, table: str, block: str, left: tuple[int, int],
                 right: tuple[int, int], targets: tuple):
        """Accept only integer forms on slots 1..n, so each one is affine."""
        if not (type(n) is int and type(targets) is tuple
                and all(_is_slot(k, n) for k in (*left, *right))
                and all(type(t) is tuple and len(t) == 4
                        and type(t[0]) is tuple and len(t[0]) == 1 + 2 * n
                        and all(type(c) is int for c in t[0])
                        and all(_is_slot(k, n) for k in t[1:])
                        for t in targets)):
            raise AlgebraError("bad Witt basis data")
        acc: dict[tuple, tuple] = {}
        for form, *target in targets:
            key = tuple(target)
            acc[key] = tuple(map(add, acc.get(key, (0,) * len(form)), form))
        forms = {k: f for k, f in acc.items() if any(f)}
        for name, value in zip(self.__slots__, (n, table, block, left, right,
                                                targets, forms)):
            object.__setattr__(self, name, value)

    __setattr__ = __delattr__ = _frozen

    def replace(self, **changes) -> "BracketRule":
        return BracketRule(**{f: getattr(self, f) for f in self.__slots__[:-1]}
                           | changes)

    def expected_terms(self, e1: tuple[int, ...],
                       e2: tuple[int, ...]) -> dict[WBasis, Rational]:
        """The nonzero coefficients of the bracket the rule gives for
        exponents e1 and e2, by basis element."""
        e, g = (*e1, *e2), tuple(map(add, e1, e2))
        out: dict[WBasis, Rational] = {}
        for (d, alpha, i), f in self.forms.items():
            c = f[0] + sum(map(mul, f[1:], e))
            if c:
                out[WBasis((*g[:d - 1], g[d - 1] + 1, *g[d:]), alpha, i)] = c
        return out


@functools.lru_cache(maxsize=1024)
def _kernel(kind: str, n: int, left: tuple[int, int],
            right: tuple[int, int]) -> BracketRule:
    """The bracket ``kind`` on the slot pattern (alpha, i), (beta, j) as a
    rule, one target per summand of ``BRACKETS[kind]``: D_j scales a by
    [alpha = j] + e1_j and D_i scales b by [beta = i] + e2_i; the product
    takes one more x at its first factor's direction and the tensor slot of
    its second factor."""
    (alpha, i), (beta, j) = left, right
    targets = []
    for sign, v_left, v_derived in BRACKETS[kind]:
        form = [0] * (1 + 2 * n)
        form[0] = sign * (alpha == j if v_derived else beta == i)
        form[j if v_derived else n + i] = sign
        targets.append((tuple(form), alpha if v_left else beta,
                        beta if v_left else alpha, i if v_derived else j))
    return BracketRule(n, kind, "kernel", left, right, tuple(targets))


def _rules(n: int, table: str, *rows) -> tuple[BracketRule, ...]:
    """One rule per (block, left, right, *targets) row."""
    return tuple(BracketRule(n, table, block, left, right, tuple(targets))
                 for block, left, right, *targets in rows)


W1_RULES = _rules(1, "lie", ("n=1", (1, 1), (1, 1), ((0, -1, 1), 1, 1, 1)))

# Lie table for n = 2.  The two entries marked "skew-consistent" repair the
# tensor direction of one target each: as printed alongside the other block
# entries they would contradict the antisymmetry of the bracket, which also
# pins the four remaining (alpha y / beta x) derivation combinations below.
W2_LIE_RULES = _rules(
    2, "lie",
    # block (i): both derivation slots x
    ("i", (_X, _X), (_X, _X), ((0, -1, 0, 1, 0), _X, _X, _X)),
    ("i", (_X, _X), (_Y, _X),
     ((0, 0, 0, 1, 0), _X, _Y, _X), ((-1, -1, 0, 0, 0), _Y, _X, _X)),
    ("i", (_Y, _X), (_X, _X),   # skew-consistent
     ((1, 0, 0, 1, 0), _Y, _X, _X), ((0, -1, 0, 0, 0), _X, _Y, _X)),
    ("i", (_Y, _X), (_Y, _X), ((0, -1, 0, 1, 0), _Y, _Y, _X)),
    # block (ii): both derivation slots y
    ("ii", (_X, _Y), (_X, _Y), ((0, 0, -1, 0, 1), _X, _X, _Y)),
    ("ii", (_X, _Y), (_Y, _Y),
     ((1, 0, 0, 0, 1), _X, _Y, _Y), ((0, 0, -1, 0, 0), _Y, _X, _Y)),
    ("ii", (_Y, _Y), (_X, _Y),   # skew-consistent
     ((0, 0, 0, 0, 1), _Y, _X, _Y), ((-1, 0, -1, 0, 0), _X, _Y, _Y)),
    ("ii", (_Y, _Y), (_Y, _Y), ((0, 0, -1, 0, 1), _Y, _Y, _Y)),
    # block (iii): left slot x, right slot y
    ("iii", (_X, _X), (_X, _Y),
     ((1, 0, 0, 1, 0), _X, _X, _Y), ((0, 0, -1, 0, 0), _X, _X, _X)),
    ("iii", (_X, _X), (_Y, _Y),
     ((0, 0, 0, 1, 0), _X, _Y, _Y), ((0, 0, -1, 0, 0), _Y, _X, _X)),
    ("iii", (_Y, _X), (_X, _Y),
     ((1, 0, 0, 1, 0), _Y, _X, _Y), ((-1, 0, -1, 0, 0), _X, _Y, _X)),
    ("iii", (_Y, _X), (_Y, _Y),
     ((0, 0, 0, 1, 0), _Y, _Y, _Y), ((-1, 0, -1, 0, 0), _Y, _Y, _X)),
    # block (iii-skew): left slot y, right slot x, forced by antisymmetry
    ("iii-skew", (_X, _Y), (_X, _X),
     ((0, 0, 0, 0, 1), _X, _X, _X), ((-1, -1, 0, 0, 0), _X, _X, _Y)),
    ("iii-skew", (_Y, _Y), (_X, _X),
     ((0, 0, 0, 0, 1), _Y, _X, _X), ((0, -1, 0, 0, 0), _X, _Y, _Y)),
    ("iii-skew", (_X, _Y), (_Y, _X),
     ((1, 0, 0, 0, 1), _X, _Y, _X), ((-1, -1, 0, 0, 0), _Y, _X, _Y)),
    ("iii-skew", (_Y, _Y), (_Y, _X),
     ((1, 0, 0, 0, 1), _Y, _Y, _X), ((0, -1, 0, 0, 0), _Y, _Y, _Y)),
)

W2_LEIBNIZ_RULES = _rules(
    2, "leibniz",
    # block (a): left tensor direction x
    ("a", (_X, _X), (_X, _X), ((0, 1, 0, -1, 0), _X, _X, _X)),
    ("a", (_X, _X), (_X, _Y),
     ((0, 0, 1, 0, 0), _X, _X, _X), ((-1, 0, 0, -1, 0), _X, _X, _Y)),
    ("a", (_X, _Y), (_X, _X),
     ((1, 1, 0, 0, 0), _X, _X, _Y), ((0, 0, 0, 0, -1), _X, _X, _X)),
    ("a", (_X, _Y), (_X, _Y), ((0, 0, 1, 0, -1), _X, _X, _Y)),
    ("a", (_X, _X), (_Y, _X), ((1, 1, 0, -1, 0), _X, _Y, _X)),
    ("a", (_X, _X), (_Y, _Y),
     ((0, 0, 1, 0, 0), _X, _Y, _X), ((0, 0, 0, -1, 0), _X, _Y, _Y)),
    ("a", (_X, _Y), (_Y, _X),
     ((1, 1, 0, 0, 0), _X, _Y, _Y), ((-1, 0, 0, 0, -1), _X, _Y, _X)),
    ("a", (_X, _Y), (_Y, _Y), ((-1, 0, 1, 0, -1), _X, _Y, _Y)),
    # block (b): left tensor direction y
    ("b", (_Y, _X), (_X, _X), ((-1, 1, 0, -1, 0), _Y, _X, _X)),
    ("b", (_Y, _X), (_X, _Y),
     ((1, 0, 1, 0, 0), _Y, _X, _X), ((-1, 0, 0, -1, 0), _Y, _X, _Y)),
    ("b", (_Y, _Y), (_X, _X),
     ((0, 1, 0, 0, 0), _Y, _X, _Y), ((0, 0, 0, 0, -1), _Y, _X, _X)),
    ("b", (_Y, _Y), (_X, _Y), ((1, 0, 1, 0, -1), _Y, _X, _Y)),
    ("b", (_Y, _X), (_Y, _X), ((0, 1, 0, -1, 0), _Y, _Y, _X)),
    ("b", (_Y, _X), (_Y, _Y),
     ((1, 0, 1, 0, 0), _Y, _Y, _X), ((0, 0, 0, -1, 0), _Y, _Y, _Y)),
    ("b", (_Y, _Y), (_Y, _X),
     ((0, 1, 0, 0, 0), _Y, _Y, _Y), ((-1, 0, 0, 0, -1), _Y, _Y, _X)),
    ("b", (_Y, _Y), (_Y, _Y), ((0, 0, 1, 0, -1), _Y, _Y, _Y)),
)


# ---------------------------------------------------------------------------
# tables and verification
# ---------------------------------------------------------------------------


def _slot_name(n: int, idx: int) -> str:
    return ("x", "y")[idx - 1] if n == 2 else str(idx)


def _name(n: int, exps: str, alpha: int, i: int) -> str:
    return f"E[{exps};{_slot_name(n, alpha)},{_slot_name(n, i)}]"


#: the largest exponent bound ``structure_table`` accepts: the rank-two Lie
#: table at 12 has 28561 entries per slot pattern, 272 MB of JSON
MAX_TABLE_BOUND = 12


def table_patterns(n: int, kind: str) -> list[tuple]:
    """(block rank, left, right) slot patterns of a table, in table order:
    blocks in the order the rules first list them, patterns sorted within."""
    if n not in (1, 2):
        raise AlgebraError("structure tables cover n = 1 and n = 2 only")
    if kind not in ("lie", "leibniz"):
        raise AlgebraError(f"unknown table kind: {kind!r}")
    # the one rank-one pattern serves both brackets
    rules = W1_RULES if n == 1 else (
        W2_LIE_RULES if kind == "lie" else W2_LEIBNIZ_RULES)
    block_rank: dict[str, int] = {}
    for rule in rules:
        block_rank.setdefault(rule.block, len(block_rank))
    return sorted((block_rank[r.block], r.left, r.right) for r in rules)


def structure_table(n: int, kind: str, bound: int) -> dict:
    """Explicit bracket values for all basis pairs with exponents up to
    ``bound``, for stable diffs ordered by block (in rule order), then
    (left, right) slot pattern, then exponents.
    Entries carry the kernel's results; for n = 1 and n = 2 they coincide
    with the embedded coefficient rules (see ``verify_tables``).

    The arguments are checked here, but ``"entries"`` is a single-pass
    generator that computes each entry as it is read, so a writer holds
    one entry at a time; there are ``len(table_patterns(n, kind)) *
    (bound + 1) ** (2 * n)`` of them.  An entry is ``(left, right,
    result)``: two ``WBasis`` and the nonzero terms of their bracket as
    ``(WBasis, int)`` pairs in basis order; ``basis_doc`` gives the JSON
    object of a basis element.
    """
    patterns = table_patterns(n, kind)
    if not 0 <= bound <= MAX_TABLE_BOUND:
        raise AlgebraError(f"bound must be in 0..{MAX_TABLE_BOUND}")
    return {"n": n, "kind": kind, "bound": bound,
            "entries": _table_entries(n, kind, patterns, bound)}


def basis_doc(n: int, b: WBasis) -> dict:
    """The JSON object of a basis element in a structure table."""
    return {"e": list(b.e), "alpha": _slot_name(n, b.alpha),
            "i": _slot_name(n, b.i)}


def _table_entries(n: int, kind: str, patterns, bound: int):
    """The entries of ``structure_table``, a row (slot pattern and left
    exponents e1) at a time, in closed form.  Basis elements are read from
    a grid of all exponents e below side = 2 * bound + 2, at place
    weights . e, so places are in basis order.  A row's targets are the
    kernel rule's ``forms``: target (d, alpha, i) reaches the basis element
    at place e1 + unit(d) + e2, so adding e2 keeps their order.  Each
    target's coefficient is evaluated over the whole e2 box at once."""
    box = list(itertools.product(range(bound + 1), repeat=n))
    side = 2 * bound + 2
    weights = [side ** (n - k) for k in range(1, n + 1)]
    offsets = [sum(map(mul, weights, e2)) for e2 in box]
    grid = {}
    for alpha, i in itertools.product(range(1, n + 1), repeat=2):
        grid[alpha, i] = [WBasis(e, alpha, i)
                          for e in itertools.product(range(side), repeat=n)]
    for _, left, right in patterns:
        forms = _kernel(kind, n, left, right).forms
        targets = sorted((weights[d - 1], alpha, i, f[0], f[1:n + 1],
                          [sum(map(mul, f[n + 1:], e2)) for e2 in box])
                         for (d, alpha, i), f in forms.items())
        lefts, rights = grid[left], grid[right]
        for e1 in box:
            at, cols = sum(map(mul, weights, e1)), []
            for unit, alpha, i, c0, cm, values in targets:
                bases, start = grid[alpha, i], at + unit
                c0 += sum(map(mul, cm, e1))
                cols.append(([bases[start + o] for o in offsets],
                             [c0 + v for v in values]))
            for k, o in enumerate(offsets):
                yield lefts[at], rights[o], [(b[k], c[k]) for b, c in cols
                                             if c[k]]


class RuleCheck(NamedTuple):
    table: str
    block: str
    left: str
    right: str
    checked: int
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches


class TableVerification(NamedTuple):
    bound: int
    rules: list[RuleCheck]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rules)

    @property
    def total_checks(self) -> int:
        return sum(r.checked for r in self.rules)


def _format_witt(terms: dict[WBasis, Rational], n: int) -> str:
    return " + ".join(f"{c}*{_name(n, ','.join(map(str, e)), alpha, i)}"
                      for (e, alpha, i), c in sorted(terms.items())) or "0"


def verify_tables(bound: int = 3) -> TableVerification:
    """Check every embedded coefficient rule against the kernel's rule on
    its slot pattern, over the (bound + 1) ** (2 n) exponent pairs of the
    box 0..bound.  Where the summed forms agree (``BracketRule.forms``)
    every pair agrees, in the box and beyond, and nothing is evaluated;
    where they differ both rules are evaluated at every pair, and each pair
    whose term dicts differ is a mismatch."""
    if bound < 0:
        raise AlgebraError("bound must be at least 0")
    out = []
    for rule in W1_RULES + W2_LIE_RULES + W2_LEIBNIZ_RULES:
        n = rule.n
        left_exps, right_exps = ("m", "p") if n == 1 else ("m,n", "p,q")
        kernel = _kernel(rule.table, n, rule.left, rule.right)
        chk = RuleCheck(rule.table, rule.block, _name(n, left_exps, *rule.left),
                        _name(n, right_exps, *rule.right),
                        (bound + 1) ** (2 * n), [])
        if rule.forms != kernel.forms:
            box = list(itertools.product(range(bound + 1), repeat=n))
            for e1, e2 in itertools.product(box, box):
                got = kernel.expected_terms(e1, e2)
                want = rule.expected_terms(e1, e2)
                if got != want:
                    chk.mismatches.append({
                        "at": [*e1, *e2],
                        "computed": _format_witt(got, n),
                        "expected": _format_witt(want, n)})
        out.append(chk)
    return TableVerification(bound, out)
