"""From a nontrivial multilinear identity to a derivative-only consequence.

Any multilinear identity f = 0 that does not already lie in the right
annihilator of the free algebra forces an identity of the form
a_1' a_2' ... a_m' = 0.  The constructive pipeline (``reduce_identity``):

  * pick the pass variable x_k from the multiset normal form of f, its
    class modulo the right annihilator: the variable of top derivative
    order, the larger index on ties;
  * antisymmetrize over two fresh variables y, z (``h0``) and multiply by a
    fresh u on the right, which kills the order-zero part;
  * repeatedly lower the top derivative order with fresh variables t_i
    (``h_step``), then one final substitution leaves
    n! * c_n * t_1' ... t_n' * y z u,  where c_n is the top coefficient;
    recurse on c_n with the derived factors kept as inert context;
  * once a single monomial remains, substitute a -> a' on its underived
    factors.

Each step of a pass is one sweep over the terms, in closed form.  In a
pass (i) every term of h ends in the underived u, (ii) y and z occur once
each in its left part, and (iii) h changes sign when y and z are swapped:
``h0`` builds (iii) and each step keeps it, the sweep checks (i) and (ii).
So h[u -> t u] = t h and h[y -> y t] = t h + L_y(h), where L_y replaces
the left factor y^(s) by  sum_{j<s} C(s, j) y^(j) t^(s-j); the final
substitution is L_y(h), a step L_y(h) + L_z(h), and no term built cancels.

Every intermediate polynomial is recorded in a trace whose steps can be
replayed exactly with the public algebra operations.  The pipeline never
splits f along x_k into the coefficients of its derivative orders; the
tests check the coefficient formulas of ``h0`` and ``h_step`` against that
split of the paper, ``decompose`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count
from math import comb
from typing import NamedTuple
from .algebra import (
    CTX_Q,
    AlgebraError,
    DiffPermPoly,
    Monomial,
    Scalar,
    Symbol,
    is_multilinear,
    multiset_normal_form,
    rename_vars,
)

OUTCOME_DERIVATIVE_ONLY = "derivative_only"
OUTCOME_RIGHT_ANNIHILATOR = "right_annihilator"


# ---------------------------------------------------------------------------
# the pipeline steps
# ---------------------------------------------------------------------------


def h0(f: DiffPermPoly, k: int, y: int | None = None,
       z: int | None = None) -> DiffPermPoly:
    """f with x_k renamed to y, times z, minus the same with y and z swapped.

    Expands to  sum_s c_s (y^{(s)} z - z^{(s)} y) + c_0 (y z - z y)  with
    c_s = g_s + p_s from the decomposition; the trailing c_0 part dies after
    a right multiplication by a fresh generator.
    """
    if f.is_zero():
        raise AlgebraError("h0 of the zero polynomial")
    if all(s.var != k for m in f.terms for s in m.factors):
        raise AlgebraError(f"variable x{k} does not occur")
    top = f.max_var()
    if y is None:
        y = top + 1
    if z is None:
        z = max(top, y) + 1
    gy = DiffPermPoly.generator(y, 0, f.ctx)
    gz = DiffPermPoly.generator(z, 0, f.ctx)
    return rename_vars(f, {k: y}) * gz - rename_vars(f, {k: z}) * gy


def h_step(h: DiffPermPoly, t: int,
           roles: tuple[int, int, int]) -> DiffPermPoly:
    """One derivative-order-lowering step with a fresh variable t, for
    roles = (y, z, u):

        h(y t, z) u - h(y, z) t u - h(z t, y) u + h(z, y) t u

    that is A - (A with y and z swapped) for A = h[y -> y t] - h[u -> t u].
    The top index drops by one and the new leading coefficient is the old
    one times (top index) * t'.

    It is L_y(h) + L_z(h) (module docstring) when (i) every term of h ends
    in the underived u, (ii) has y and z once each on its left, and (iii) h
    changes sign when y and z swap, as ``h0`` and each step make it.
    """
    return _lower(h, t, roles)


def _lower(h: DiffPermPoly, t: int, roles: tuple[int, ...]) -> DiffPermPoly:
    """The sum of L_v(h) over the roles v before the last, u, in one sweep:
    ``h_step`` for roles (y, z, u), and h[y -> y t] - h[u -> t u], the
    closing substitution of a pass, for (y, u).  A t among the roles, a
    term not ending in u alone, or one without a single v on its left,
    raises ``AlgebraError``."""
    if h.ctx != CTX_Q:
        raise AlgebraError("reduction steps need the context CTX_Q")
    if t in roles:
        raise AlgebraError(f"x{t} is a role, not a fresh variable")
    *vs, u = roles
    last = Symbol(u, (0,))
    pieces: dict[Symbol, list] = {}  # v^(s) -> its lowered pairs, C(s, j)
    acc: dict[Monomial, Scalar] = {}
    for m, c in h.terms.items():
        L = m.left
        i = bisect_left(L, (u,))
        if m.last != last or bisect_left(L, (u + 1,), i) != i:
            raise AlgebraError(f"unexpected shape: a term not ending in x{u}")
        for v in vs:
            i = bisect_left(L, (v,))
            if bisect_left(L, (v + 1,), i) != i + 1:
                raise AlgebraError(f"unexpected shape: x{v} not once on left")
            got = pieces.get(L[i])
            if got is None:
                s = L[i].dord[0]
                got = pieces[L[i]] = [((Symbol(v, (j,)), Symbol(t, (s - j,))),
                                       comb(s, j)) for j in range(s)]
            rest = L[:i] + L[i + 1:]
            for ab, w in got:
                key = Monomial(tuple(sorted(rest + ab)), last)
                acc[key] = acc.get(key, 0) + w * c
    return DiffPermPoly(CTX_Q, acc)


# ---------------------------------------------------------------------------
# full reduction
# ---------------------------------------------------------------------------


class TraceStep(NamedTuple):
    name: str
    rule: dict
    poly: DiffPermPoly


class ReductionResult(NamedTuple):
    outcome: str
    m: int | None
    certificate: DiffPermPoly | None
    trace: list[TraceStep]


def _strip_factors(poly: DiffPermPoly, strip: list[Symbol], last_var: int
                   ) -> DiffPermPoly | Scalar:
    """Remove one occurrence of each symbol of ``strip`` plus the final
    underived ``last_var`` factor from every monomial; the remainder comes
    back in multiset normal form, or as a bare nonzero scalar when nothing
    is left.  Any other shape raises ``AlgebraError``."""
    shape = "unexpected shape: cannot extract the top coefficient"
    acc: dict[Monomial | None, Scalar] = {}  # None: nothing is left
    for m, c in poly.terms.items():
        if m.last.var != last_var or any(m.last.dord):
            raise AlgebraError(shape)
        fs = list(m.left)
        for s in strip:
            try:
                fs.remove(s)
            except ValueError:
                raise AlgebraError(shape) from None
        fs.sort()
        key = Monomial(tuple(fs[:-1]), fs[-1]) if fs else None
        acc[key] = acc.get(key, 0) + c
    scalar_part = acc.pop(None, None)
    rest = DiffPermPoly(poly.ctx, acc)
    if scalar_part is None:
        return rest
    if rest or not scalar_part:
        raise AlgebraError(shape)
    return scalar_part


def reduce_identity(f: DiffPermPoly) -> ReductionResult:
    """Run the reduction pipeline on a multilinear identity.

    Returns either the right-annihilator verdict or a derivative-only
    certificate: a single monomial, every factor derived exactly once, with
    a nonzero coefficient, together with the full step trace.
    """
    if f.is_zero():
        raise AlgebraError("reduce: zero polynomial")
    if f.ctx != CTX_Q:
        raise AlgebraError("reduce: expected the rational single-derivation "
                           "context")
    if not is_multilinear(f):
        raise AlgebraError("reduce: input is not multilinear")
    trace = [TraceStep("input", {"op": "input"}, f)]
    cls = multiset_normal_form(f)  # f's class modulo the right annihilator
    if cls.is_zero():
        return ReductionResult(OUTCOME_RIGHT_ANNIHILATOR, None, None, trace)

    current = f
    inert: list[Symbol] = []
    fresh = f.max_var()
    for passes in count():
        # The pass variable has the top derivative order in the class of
        # ``current``, ties broken by the larger index; measured on that
        # class, the extracted top coefficient survives the right
        # multiplication.
        n, k = max((s.order, s.var) for m in cls.terms for s in m.factors)
        if len(cls.terms) == 1 and n <= 1 and (passes >= 1 or n == 0):
            (mono, coeff), = cls.terms.items()
            factors = list(mono.factors) + inert
            break
        label = f"pass{passes + 1}"
        y, z, *ts, u = range(fresh + 1, fresh + n + 4)
        fresh = u

        H = h0(current, k, y, z)
        trace.append(TraceStep(f"{label}:h0",
                               {"op": "h0", "var": k, "y": y, "z": z}, H))
        H = H * DiffPermPoly.generator(u, 0, CTX_Q)
        trace.append(TraceStep(f"{label}:h0*u", {"op": "rmul", "var": u}, H))
        for i in range(n - 1):
            H = h_step(H, ts[i], roles=(y, z, u))
            trace.append(TraceStep(
                f"{label}:h{i + 1}*u",
                {"op": "h_step", "t": ts[i], "y": y, "z": z, "u": u}, H))
        H = _lower(H, ts[n - 1], (y, u))
        trace.append(TraceStep(
            f"{label}:final", {"op": "final_subst", "t": ts[n - 1], "y": y,
                               "u": u}, H))
        assert not H.is_zero()

        strip = [Symbol(t, (1,)) for t in ts] + [Symbol(y, (0,)),
                                                 Symbol(z, (0,))]
        # in multiset normal form, so its own class
        cls = current = _strip_factors(H, strip, u)
        inert += strip + [Symbol(u, (0,))]
        if not isinstance(current, DiffPermPoly):  # a constant coefficient
            coeff, factors = current, inert
            break
        trace.append(TraceStep(
            f"{label}:coefficient",
            {"op": "extract", "strip": [(s.var, s.dord[0]) for s in strip]
             + [(u, 0)]}, current))

    # assemble the certificate
    bumped = [s if s.order >= 1 else s.derived(0) for s in factors]
    rules: dict = {"op": "certificate",
                   "inert": [(s.var, s.dord[0]) for s in inert],
                   "bumped": sorted({s.var for s in factors if s.order == 0})}
    if len(bumped) < 2:
        bumped.append(Symbol(fresh + 1, (1,)))
        rules["padded_with"] = fresh + 1
    certificate = DiffPermPoly.monomial(sorted(bumped), coeff)
    trace.append(TraceStep("certificate", rules, certificate))
    return ReductionResult(OUTCOME_DERIVATIVE_ONLY, len(bumped), certificate,
                           trace)
