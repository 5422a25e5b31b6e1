"""Oracles and shorthands that only the tests call.

The command line never reaches these, so they live beside the tests that
check the library against them:

  * ``decompose``: the paper's split of a multilinear f along x_k into the
    coefficients of its derivative orders, which the tests compare with the
    coefficient formulas of ``reduction.h0`` and ``reduction.h_step``;
  * ``subs`` and ``specialize_delta``: Q[δ] coefficients evaluated at a
    rational δ, the bridge between the δ-parametric and the ordinary
    evaluation;
  * ``witt_prec``: the prec product of Witt elements, from the bracket
    kernel's own rule data;
  * ``annihilator_test``: membership of the right annihilator, which the
    reduction decides on the multiset normal form it computes anyway;
  * ``rename_vars``: generators substituted for generators, with which the
    tests restate ``reduction.h0`` and the swap of y and z in a step;
  * ``span_basis`` and ``rank``: the exact span of a list of polynomials,
    against which the modular rank of the dimension proof is checked;
  * ``smallest_pivot_rank``: the dimension proof's first modular rank, with
    another pivot order and prime, against which the proof's reports are
    checked;
  * ``encode``, ``decode``, ``digits`` and ``leads``: between polynomials
    and the integer-coded families of the dimension proof, which never
    forms a polynomial, and the proof's checks 1 and 3 on polynomials;
  * ``prime_rows`` and ``prime_rank``: the prime product rows and their
    rank, which the proof took before it took the star rank in their place;
  * ``x`` and ``v``: a generator of the rational context and a variable
    leaf of an expression tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator

from permdiff import spans, witt
from permdiff.algebra import (
    CTX_Q,
    AlgebraError,
    Context,
    DeltaPoly,
    DiffPermPoly,
    Monomial,
    Rational,
    Scalar,
    Symbol,
    is_multilinear,
    multiset_normal_form,
)
from permdiff.exprs import Var
from permdiff.spans import SpanBasis, _Failed


# ---------------------------------------------------------------------------
# decomposition along one variable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """f = sum_s g_s x_k^{(s)} + sum_s x_k^{(s)} p_s, coefficients in the
    remaining variables, s running from 0 to the top order n of x_k."""

    var: int
    n: int
    g: tuple[DiffPermPoly, ...]
    p: tuple[DiffPermPoly, ...]

    def reassemble(self) -> DiffPermPoly:
        ctx = self.g[0].ctx
        out = DiffPermPoly.zero(ctx)
        for s in range(self.n + 1):
            xs = DiffPermPoly.generator(self.var, s, ctx)
            out = out + self.g[s] * xs + xs * self.p[s]
        return out


def decompose(f: DiffPermPoly, k: int) -> Decomposition:
    """Route each monomial by the position of its x_k factor: final factor
    to the g side, otherwise (after moving it to the front, which the perm
    law allows) to the p side."""
    if f.is_zero():
        raise AlgebraError("cannot decompose the zero polynomial")
    if not is_multilinear(f):
        raise AlgebraError("decompose requires a multilinear polynomial")
    ctx = f.ctx
    if len(f.variables()) < 2:
        raise AlgebraError("decompose requires at least two variables")
    gacc: dict[int, dict[Monomial, Scalar]] = {}
    pacc: dict[int, dict[Monomial, Scalar]] = {}
    n = 0
    for m, c in f.terms.items():
        if m.last.var == k:
            s = sum(m.last.dord)
            rest = Monomial(m.left[:-1], m.left[-1])
            side = gacc
        else:
            hits = [i for i, sym in enumerate(m.left) if sym.var == k]
            if not hits:
                raise AlgebraError(f"variable x{k} missing from a monomial")
            i = hits[0]
            s = sum(m.left[i].dord)
            rest = Monomial(m.left[:i] + m.left[i + 1:], m.last)
            side = pacc
        n = max(n, s)
        acc = side.setdefault(s, {})
        acc[rest] = acc.get(rest, 0) + c
    g = tuple(DiffPermPoly(ctx, gacc.get(s, {})) for s in range(n + 1))
    p = tuple(DiffPermPoly(ctx, pacc.get(s, {})) for s in range(n + 1))
    return Decomposition(k, n, g, p)


# ---------------------------------------------------------------------------
# δ at a rational value
# ---------------------------------------------------------------------------


def subs(poly: DeltaPoly, value):
    """Evaluate at a concrete rational value of delta."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * value + c
    return acc


def specialize_delta(p: DiffPermPoly, value: Rational = 1) -> DiffPermPoly:
    """Evaluate Q[δ] coefficients at a rational value, landing in the
    plain-rational context of the same arity."""
    if not p.ctx.delta:
        return p
    ctx = Context(p.ctx.arity, False)
    return DiffPermPoly(ctx, {m: subs(c, value) if isinstance(c, DeltaPoly)
                              else c for m, c in p.terms.items()})


# ---------------------------------------------------------------------------
# Witt elements
# ---------------------------------------------------------------------------


def witt_prec(v: witt.WittElement, w: witt.WittElement) -> witt.WittElement:
    """(a D_i) prec (b D_j) = (a D_i(b)) D_j, extended bilinearly."""
    return witt._bracket("prec", v, w)


# ---------------------------------------------------------------------------
# the right annihilator
# ---------------------------------------------------------------------------


def annihilator_test(p: DiffPermPoly) -> bool:
    """Right-annihilator membership: p q = 0 for every q iff the multiset
    normal form of p is zero, since a right product sorts every factor of p
    into its left part and so only remembers p's factor multisets."""
    return multiset_normal_form(p).is_zero()


# ---------------------------------------------------------------------------
# renaming generators
# ---------------------------------------------------------------------------


def rename_vars(p: DiffPermPoly, mapping: dict[int, int]) -> DiffPermPoly:
    """Substitution of generators for generators (derivative orders kept)."""
    image = {s: Symbol(mapping[s.var], s.dord) if s.var in mapping else s
             for s in {s for m in p.terms for s in m.factors}}
    acc: dict[Monomial, Scalar] = {}
    for m, c in p.terms.items():
        key = Monomial(tuple(sorted([image[s] for s in m.left])),
                       image[m.last])
        acc[key] = acc.get(key, 0) + c
    return DiffPermPoly(p.ctx, acc)


# ---------------------------------------------------------------------------
# exact spans
# ---------------------------------------------------------------------------


def span_basis(elems: Iterable[DiffPermPoly]) -> SpanBasis:
    """The exact span of ``elems``, added in order."""
    elems = list(elems)
    basis = SpanBasis(elems[0].ctx if elems else CTX_Q)
    for p in elems:
        basis.add(p)
    return basis


def rank(elems: Iterable[DiffPermPoly]) -> int:
    """Dimension of the linear span, by exact elimination."""
    return span_basis(elems).rank


def smallest_pivot_rank(rows: Iterable[dict[int, Rational]],
                        stop: int | None = None) -> int:
    """``spans.modular_rank`` as first written: each row pivots on its
    smallest column, modulo 2^61 - 1."""
    p = (1 << 61) - 1
    pivots: dict[int, dict[int, int]] = {}
    rows = iter(rows)
    while len(pivots) != stop and (row := next(rows, None)) is not None:
        denom = lcm(*(Fraction(v).denominator for v in row.values()))
        r = {}
        for c, v in row.items():
            v = int(v * denom) % p
            if v:
                r[c] = v
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in r.items()}
                break
            f = r[lead]
            for c, v in prow.items():
                w = (r.get(c, 0) - f * v) % p
                if w:
                    r[c] = w
                else:
                    del r[c]
    return len(pivots)


# ---------------------------------------------------------------------------
# coded families of the dimension proof
# ---------------------------------------------------------------------------


def encode(family: list[DiffPermPoly], k: int) -> list[list[tuple]]:
    """Each polynomial's terms as the dimension proof codes them: (digits,
    last variable, coefficient), in term order.  The digit of xi is the sum
    of order + 1 over its factors, its order + 1 on a multilinear term and
    0 where xi is absent, for x1..xk and any variable past xk; the code of
    a product term is the sum of its factors' codes, so is this."""
    out = []
    for p in family:
        terms = []
        for m, c in p.terms.items():
            ds = [0] * max(k, *(s.var for s in m.factors))
            for s in m.factors:
                ds[s.var - 1] += s.order + 1
            terms.append((tuple(ds), m.last.var, c))
        out.append(terms)
    return out


def decode(family: list[list[tuple]]) -> list[DiffPermPoly]:
    """The polynomials of a coded family, each keeping its terms' order; a
    digit 0 is an absent variable."""
    out = []
    for terms in family:
        acc: dict[Monomial, Scalar] = {}
        for ds, last, c in terms:
            left = tuple(Symbol(v, (d - 1,)) for v, d in enumerate(ds, 1)
                         if d and v != last)
            m = Monomial(left, Symbol(last, (ds[last - 1] - 1,)))
            acc[m] = acc.get(m, 0) + c
        out.append(DiffPermPoly(CTX_Q, acc))
    return out


def digits(family: list[DiffPermPoly], j: int, radix: int
           ) -> list[list[tuple]]:
    """Check 1 of the dimension proof on polynomials, the operands of level
    j + 1 on x1..xj: ``encode(family, j)``, or ``spans._Failed`` when a term
    is not multilinear on exactly x1..xj, is not of weight -1 or has a digit
    outside 1..radix-1."""
    failed = _Failed(f"degree {j + 1}: check 1")
    for p in family:
        for m in p.terms:
            ds = [0] * j
            for s in m.factors:
                d = s.order + 1
                if not (0 < s.var <= j and 0 < d < radix) or ds[s.var - 1]:
                    raise failed
                ds[s.var - 1] = d
            if len(m.factors) != j or sum(ds) != 2 * j - 1:
                raise failed
    return encode(family, j)


def prime_rows(k: int) -> Iterator[dict[int, Rational]]:
    """Every product row ab of the prime proof of degree k, stage by stage
    as ``spans._level`` reads the star rows, over the columns of
    ``spans._family(k, False)``: a and b are the prime families of the
    degrees below (x1 in degree 1) on complementary variables.  A term's
    code is its digits in base k plus k^k times its last variable, so a
    term of ab has the sum of its factors' codes."""
    top = k ** k
    families = {1: [[((1,), 1, 1)]]}
    families.update((j, spans._family(j, False)[1]) for j in range(2, k))

    def moved(family, subset, top):
        place = [k ** (v - 1) for v in subset]
        return [[(sum(map(mul, ds, place)) + top * subset[last - 1], c)
                 for ds, last, c in terms] for terms in family]

    place = [k ** i for i in range(k)]
    cols = {sum(map(mul, ds, place)) + top * last: col
            for col, (ds, last) in enumerate(spans._family(k, False)[0])}
    for smaller in range(1, k // 2 + 1):
        for left, right in spans._splits(k, "bullet", smaller):
            rights = moved(families[len(right)], right, top)
            for a in moved(families[len(left)], left, 0):
                for b in rights:
                    acc: dict[int, Rational] = {}
                    for ca, va in a:
                        for cb, vb in b:
                            acc[ca + cb] = acc.get(ca + cb, 0) + va * vb
                    yield {cols[code]: c for code, c in acc.items() if c}


def prime_rank(k: int) -> int:
    """The rank modulo ``spans.MODULUS`` of every prime row of degree k."""
    return spans.modular_rank(prime_rows(k))


def lead_order(m: Monomial) -> tuple:
    """The order of check 3 on the monomials of one multilinear degree: the
    last factor's derivative order, then the digits (order + 1 of each
    variable) and the last variable, as the proof compares codes."""
    (ds, last, _), = encode([DiffPermPoly(CTX_Q, {m: 1})], 0)[0]
    return ds[last - 1], ds, last


def leads(family: list[DiffPermPoly]) -> list[Monomial]:
    """The leads of the family's elements, none of which is zero, in the
    order of check 3 (``lead_order``)."""
    return [max(p.terms, key=lead_order) for p in family]


# ---------------------------------------------------------------------------
# shorthands
# ---------------------------------------------------------------------------


def x(var: int, order: int = 0) -> DiffPermPoly:
    """Shorthand generator in the default rational single-derivation context."""
    return DiffPermPoly.generator(var, order, CTX_Q)


v = Var
