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
  * ``span_basis`` and ``rank``: the exact span of a list of polynomials,
    against which the modular rank of the dimension proof is checked;
  * ``smallest_pivot_rank``: the dimension proof's first modular rank, with
    another pivot order and prime, against which the proof's reports are
    checked;
  * ``x`` and ``v``: a generator of the rational context and a variable
    leaf of an expression tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from permdiff import witt
from permdiff.algebra import (
    CTX_Q,
    AlgebraError,
    Context,
    DeltaPoly,
    DiffPermPoly,
    Monomial,
    Rational,
    Scalar,
    is_multilinear,
)
from permdiff.exprs import Var
from permdiff.spans import SpanBasis


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
# shorthands
# ---------------------------------------------------------------------------


def x(var: int, order: int = 0) -> DiffPermPoly:
    """Shorthand generator in the default rational single-derivation context."""
    return DiffPermPoly.generator(var, order, CTX_Q)


v = Var
