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

Each step of a pass is one sweep over order vectors, in closed form: the
polynomials of a pass are multilinear over one increasing list of
variables, so a term is the tuple of its orders, and h0(f) depends only on
the class of f.  In a pass (i) every term of h ends in the underived u,
(ii) y and z occur once each on its left, and (iii) h changes sign when y
and z swap (``h0`` builds it, each step keeps it).  So h[u -> t u] = t h
and h[y -> y t] = t h + L_y(h), where L_y replaces the left factor y^(s)
by  sum_{j<s} C(s, j) y^(j) t^(s-j): the final substitution is L_y(h), a
step L_y(h) + L_z(h).  The fresh t's slot comes last, so the sorted tuples
of a step are in ``monomial_key`` order and it is printed from them.

Every intermediate polynomial is recorded in a trace whose steps can be
replayed exactly with the public algebra operations.  The pipeline never
splits f along x_k into the coefficients of its derivative orders; the
tests check the coefficient formulas of ``h0`` and ``h_step`` against that
split of the paper, ``decompose`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from math import comb
from operator import getitem
from typing import NamedTuple
from .algebra import (
    CTX_Q,
    AlgebraError,
    DiffPermPoly,
    Symbol,
    format_poly,
    format_sum,
    format_symbol,
    is_multilinear,
    multiset_normal_form,
    normalize,
)

OUTCOME_DERIVATIVE_ONLY = "derivative_only"
OUTCOME_RIGHT_ANNIHILATOR = "right_annihilator"

#: the most terms a trace may hold; d^n(x1) x2 needs about 2^n
TRACE_BUDGET = 1_000_000
_OVER = f"reduce: the trace would exceed its budget of {TRACE_BUDGET} terms"


# ---------------------------------------------------------------------------
# the pipeline steps, on order vectors
# ---------------------------------------------------------------------------

# A coded polynomial is (variables, last, terms): ``terms`` maps a tuple of
# entries, one per slot of ``variables``, to a coefficient.  A slot holding
# a variable v reads the order of v's factor; the slot (y, z) that ``_h0``
# appends reads (0, s) for y^(s) z and (1, s) for z^(s) y.  ``last`` is the
# underived final factor of every term, or None when the last slot holds it.


def _encode(p: DiffPermPoly, last: Symbol | None = None):
    """``p`` as (variables, terms), every term ending in ``last``."""
    if p.ctx != CTX_Q:
        raise AlgebraError("reduction steps need the context CTX_Q")
    lists, terms = set(), {}
    for m, c in p.terms.items():
        fs = m.factors if last is None else m.left
        lists.add((tuple(s.var for s in fs), last and m.last))
        terms[tuple(s.dord[0] for s in fs)] = c
    variables, end = lists.pop() if lists else ((), last)
    if end != last or last and last.var in variables:
        raise AlgebraError(
            f"unexpected shape: a term not ending in x{last.var}")
    if lists:
        raise AlgebraError("unexpected shape: terms on other variables")
    return variables, terms


def _rows(variables, terms) -> list[dict]:
    """Per slot, the factors that each entry of the terms stands for."""
    return [{e: [Symbol(v, (e,))] if isinstance(v, int) else
             [Symbol(v[e[0]], (e[1],)), Symbol(v[1 - e[0]], (0,))]
             for e in set(col)} for v, col in zip(variables, zip(*terms))]


def _decode(variables, last, terms) -> DiffPermPoly:
    rows, tail, acc = _rows(variables, terms), [last] * bool(last), {}
    for o, c in terms.items():
        key = normalize(sum(map(getitem, rows, o), []) + tail)
        acc[key] = acc.get(key, 0) + c
    return DiffPermPoly(CTX_Q, acc)


def _text(variables, last, terms) -> str:
    """``format_poly`` of the decoded codes, for increasing slot variables."""
    end = " " + format_symbol(last) if last else ""
    rows = [{e: " ".join(map(format_symbol, fs)) for e, fs in row.items()}
            for row in _rows(variables, terms)]
    rows[-1] = {e: w + end for e, w in rows[-1].items()}
    return format_sum((" ".join(map(getitem, rows, o)), c)
                      for o, c in sorted(terms.items()))


def _h0(terms: dict, i: int) -> tuple[dict, dict]:
    """h0 of a class, its pass variable's slot i moved to the end as (y, z),
    and h0 times u on the slots y, z, where y z - z y dies."""
    h, hu = {}, {}
    for o, c in terms.items():
        rest, s = o[:i] + o[i + 1:], o[i]
        h[rest + ((0, s),)], h[rest + ((1, s),)] = c, -c
        if s:
            hu[rest + (s, 0)], hu[rest + (0, s)] = c, -c
    return h, hu


def _lower(terms: dict, slots: tuple[int, ...], room: int) -> dict:
    """The sum of L_v over the role slots: entry s at one gives, for j < s,
    C(s, j) times entry j there and s - j in a new last slot, the fresh
    t's.  More than ``room`` terms raise ``AlgebraError``."""
    pieces, acc = {}, {}  # pieces: s -> its lowered entries and weights
    get = acc.get
    for o, c in terms.items():
        for i in slots:
            s = o[i]
            got = pieces.get(s)
            if got is None:
                got = pieces[s] = [((j,), (s - j,), comb(s, j))
                                   for j in range(s)]
            head, tail = o[:i], o[i + 1:]
            for a, b, w in got:
                key = head + a + tail + b
                acc[key] = get(key, 0) + w * c
        if len(acc) > room:
            raise AlgebraError(_OVER)
    return {o: c for o, c in acc.items() if c}


def _extract(variables, terms: dict, strip):
    """The class left when the trailing slots of every term read ``strip``,
    (variable, order) pairs: (variables, terms) on the slots before, or a
    scalar when none are left.  Any other shape raises ``AlgebraError``."""
    r = len(variables) - len(strip)
    vs, want = zip(*strip)
    if (r < 0 or variables[r:] != vs or not terms
            or any(o[r:] != want for o in terms)):
        raise AlgebraError(
            "unexpected shape: cannot extract the top coefficient")
    # the slots before determine a term, so no two terms meet
    return (variables[:r], {o[:r]: c for o, c in terms.items()}) if r \
        else terms[want]


def h0(f: DiffPermPoly, k: int, y: int | None = None,
       z: int | None = None) -> DiffPermPoly:
    """f with x_k renamed to y, times z, minus the same with y and z swapped,
    for a multilinear f.

    Expands to  sum_s c_s (y^{(s)} z - z^{(s)} y) + c_0 (y z - z y)  with
    c_s = g_s + p_s from the decomposition; the trailing c_0 part dies after
    a right multiplication by a fresh generator.
    """
    if f.is_zero():
        raise AlgebraError("h0 of the zero polynomial")
    if all(s.var != k for m in f.terms for s in m.factors):
        raise AlgebraError(f"variable x{k} does not occur")
    if not is_multilinear(f):
        raise AlgebraError("h0: f is not multilinear")
    top = f.max_var()
    y = top + 1 if y is None else y
    z = max(top, y) + 1 if z is None else z
    cls = multiset_normal_form(f)  # h0(f) is h0 of f's class
    if cls.is_zero():
        return cls
    variables, terms = _encode(cls)
    i = variables.index(k)
    return _decode(variables[:i] + variables[i + 1:] + ((y, z),), None,
                   _h0(terms, i)[0])


def h_step(h: DiffPermPoly, t: int,
           roles: tuple[int, ...]) -> DiffPermPoly:
    """One derivative-order-lowering step with a fresh variable t, for
    roles = (y, z, u):

        h(y t, z) u - h(y, z) t u - h(z t, y) u + h(z, y) t u

    that is A - (A with y and z swapped) for A = h[y -> y t] - h[u -> t u].
    The top index drops by one and the new leading coefficient is the old
    one times (top index) * t'.  For roles (y, u) it is A, the final
    substitution of a pass.

    It is L_y(h) + L_z(h) (module docstring) when (i) every term of h ends
    in the underived u, (ii) has y and z once each on its left, and (iii) h
    changes sign when y and z swap, as ``h0`` and each step make it.
    """
    if t in roles:
        raise AlgebraError(f"x{t} is a role, not a fresh variable")
    *vs, u = roles
    last = Symbol(u, (0,))
    variables, terms = _encode(h, last)
    if not terms:
        return h
    for v in vs:
        if variables.count(v) != 1:
            raise AlgebraError(f"unexpected shape: x{v} not once on left")
    return _decode(variables + (t,), last, _lower(
        terms, tuple(map(variables.index, vs)), TRACE_BUDGET))


# ---------------------------------------------------------------------------
# full reduction
# ---------------------------------------------------------------------------


class TraceStep:
    """A step of a reduction trace.  A step of a pass decodes ``poly`` from
    its codes when it is first read, and ``text()`` prints from them."""

    def __init__(self, name: str, rule: dict, poly=None, code: tuple = ()):
        self.name, self.rule, self._code = name, rule, code
        if poly is not None:
            self.poly = poly

    @cached_property
    def poly(self) -> DiffPermPoly:
        return _decode(*self._code)

    def text(self) -> str:
        return _text(*self._code) if self._code else format_poly(self.poly)


class ReductionResult(NamedTuple):
    outcome: str
    m: int | None
    certificate: DiffPermPoly | None
    trace: list[TraceStep]


def reduce_identity(f: DiffPermPoly) -> ReductionResult:
    """Run the reduction pipeline on a multilinear identity.

    Returns either the right-annihilator verdict or a derivative-only
    certificate: a single monomial, every factor derived exactly once, with
    a nonzero coefficient, together with the full step trace.  A trace of
    more than ``TRACE_BUDGET`` terms raises ``AlgebraError``.
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
    variables, terms = _encode(cls)
    room = TRACE_BUDGET - len(f.terms)

    def record(name: str, rule: dict, *code) -> None:
        nonlocal room
        room -= len(code[2])
        if room < 0:
            raise AlgebraError(_OVER)
        trace.append(TraceStep(name, rule, code=code))

    inert, fresh = [], f.max_var()
    for passes in count():
        # The pass variable has the top derivative order in the class,
        # ties broken by the larger index; measured on that class, the
        # extracted top coefficient survives the right multiplication.
        n, k = max(zip(map(max, zip(*terms)), variables))
        if len(terms) == 1 and n <= 1 and (passes >= 1 or n == 0):
            (orders, coeff), = terms.items()
            factors = [*map(Symbol, variables, zip(orders)), *inert]
            break
        label = f"pass{passes + 1}"
        y, z, *ts, u = range(fresh + 1, fresh + n + 4)
        fresh, last = u, Symbol(u, (0,))
        i = variables.index(k)
        variables = variables[:i] + variables[i + 1:]
        r = len(variables)
        H0, H = _h0(terms, i)
        record(f"{label}:h0", {"op": "h0", "var": k, "y": y, "z": z},
               variables + ((y, z),), None, H0)
        variables += (y, z)
        record(f"{label}:h0*u", {"op": "rmul", "var": u}, variables, last, H)
        for i in range(n - 1):
            H = _lower(H, (r, r + 1), room)
            variables += (ts[i],)
            record(f"{label}:h{i + 1}*u",
                   {"op": "h_step", "t": ts[i], "y": y, "z": z, "u": u},
                   variables, last, H)
        H = _lower(H, (r,), room)
        variables += (ts[n - 1],)
        record(f"{label}:final",
               {"op": "final_subst", "t": ts[n - 1], "y": y, "u": u},
               variables, last, H)
        assert H

        strip = [(t, 1) for t in ts] + [(y, 0), (z, 0)]
        got = _extract(variables, H, strip[n:] + strip[:n])  # (y, z, ts)
        inert += [Symbol(v, (j,)) for v, j in strip] + [last]
        if not isinstance(got, tuple):  # a constant coefficient
            coeff, factors = got, inert
            break
        variables, terms = got
        record(f"{label}:coefficient",
               {"op": "extract", "strip": strip + [(u, 0)]},
               variables, None, terms)

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
