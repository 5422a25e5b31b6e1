import contextlib
import io
import json
import time
from functools import reduce
from math import factorial
from operator import mul
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings, target

from oracles import annihilator_test, decompose, rename_vars, x
from permdiff.algebra import (
    CTX_DELTA,
    CTX_Q,
    AlgebraError,
    DiffPermPoly,
    Monomial,
    Symbol,
    apply_substitution,
    format_poly,
)
from permdiff.cli import main
from permdiff.reduction import (
    OUTCOME_DERIVATIVE_ONLY,
    OUTCOME_RIGHT_ANNIHILATOR,
    TRACE_BUDGET,
    _decode,
    _encode,
    _extract,
    _lower,
    h0,
    h_step,
    multiset_normal_form,
    reduce_identity,
)


def multilinear_st(nvars=3, max_order=2):
    """Random multilinear polynomials in x1..x_nvars."""
    def build(rows):
        pairs = []
        for orders, last, coeff in rows:
            syms = [Symbol(k + 1, (orders[k],)) for k in range(nvars)]
            lastsym = syms[last]
            rest = [t for i, t in enumerate(syms) if i != last]
            pairs.append((Monomial(tuple(sorted(rest)), lastsym), coeff))
        return DiffPermPoly.from_terms(pairs, CTX_Q)

    row = st.tuples(
        st.tuples(*[st.integers(0, max_order)] * nvars),
        st.integers(0, nvars - 1),
        st.integers(-3, 3).filter(bool))
    return st.lists(row, min_size=1, max_size=4).map(build)


@st.composite
def replay_inputs(draw, max_vars=4, max_order=2):
    """Multilinear inputs in 2..max_vars variables with derivative orders
    0..max_order and small coefficients: a random combination, the
    difference of two orderings of one factor multiset (a right
    annihilator), or the sum of both."""
    nvars = draw(st.integers(2, max_vars))
    kind = draw(st.sampled_from(("random", "difference", "sum")))
    f = DiffPermPoly.zero()
    if kind != "difference":
        f = draw(multilinear_st(nvars, max_order))
    if kind != "random":
        orders = draw(st.tuples(*[st.integers(0, max_order)] * nvars))
        first = draw(st.permutations(
            [x(i + 1, order) for i, order in enumerate(orders)]))
        # the second ordering ends in another factor, so the two differ
        second = list(first)
        j = draw(st.integers(0, nvars - 2))
        second[j], second[-1] = second[-1], second[j]
        f = f + (reduce(mul, first) - reduce(mul, second)).scale(
            draw(st.integers(-3, 3).filter(bool)))
    return f


class TestDecompose:
    def test_last_factor_goes_to_g(self):
        d = decompose(x(1) * x(2, 1), 2)
        assert d.n == 1 and d.g[1] == x(1) and d.p[1].is_zero()

    def test_left_factor_goes_to_p(self):
        d = decompose(x(2, 2) * x(1), 2)
        assert d.n == 2 and d.p[2] == x(1) and d.g[2].is_zero()

    def test_both_sides_and_reassembly(self):
        f = x(1) * x(2, 1) + x(2, 1) * x(1)
        d = decompose(f, 2)
        assert d.g[1] == x(1) and d.p[1] == x(1)
        assert d.reassemble() == f

    @given(multilinear_st())
    @settings(max_examples=100)
    def test_reassembly_is_identity(self, f):
        if f.is_zero():
            return
        for k in f.variables():
            assert decompose(f, k).reassemble() == f

    @given(multilinear_st(nvars=4, max_order=2))
    @settings(max_examples=60)
    def test_reassembly_is_identity_degree_four(self, f):
        if f.is_zero():
            return
        for k in f.variables():
            assert decompose(f, k).reassemble() == f

    def test_single_variable_rejected(self):
        with pytest.raises(AlgebraError, match="two variables"):
            decompose(x(1, 1), 1)

    def test_non_multilinear_rejected(self):
        with pytest.raises(AlgebraError, match="multilinear"):
            decompose(x(1) * x(1) * x(2), 2)

    def test_missing_variable_rejected(self):
        with pytest.raises(AlgebraError, match="missing"):
            decompose(x(1) * x(2), 3)


class TestH0:
    def test_example(self):
        # fresh variables after x1, x2 are y = x3, z = x4
        got = h0(x(1) * x(2, 1), 2)
        assert got == x(1) * (x(3, 1) * x(4) - x(4, 1) * x(3))

    def test_matches_coefficient_formula(self):
        # direct substitution equals sum_s c_s (y^(s) z - z^(s) y) + c0(yz - zy)
        f = (x(1) * x(2, 2)).scale(3) + x(2, 1) * x(1) - x(1, 1) * x(2)
        d = decompose(f, 2)
        y, z = 3, 4
        want = DiffPermPoly.zero()
        for s_ in range(d.n + 1):
            c = d.g[s_] + d.p[s_]
            if s_ == 0:
                want = want + c * (x(y) * x(z) - x(z) * x(y))
            else:
                want = want + c * (x(y, s_) * x(z) - x(z, s_) * x(y))
        assert h0(f, 2) == want

    def test_p_side_symmetric_case(self):
        got = h0(x(2, 1) * x(1), 2)
        assert got == x(1) * (x(3, 1) * x(4) - x(4, 1) * x(3))

    def test_annihilator_element_dies_after_right_multiplication(self):
        f = x(1) * x(2) - x(2) * x(1)
        assert (h0(f, 2) * x(5)).is_zero()


class TestHStep:
    @staticmethod
    def _oracle(coeffs, n, y, z, t, u):
        """The displayed expansion: sum over surviving orders with binomial
        weights, coefficients times t-derivatives."""
        out = DiffPermPoly.zero()
        from math import comb
        for j in range(1, n):
            for i in range(1, n - j + 1):
                c = coeffs.get(j + i)
                if c is None:
                    continue
                part = c * x(t, i) * (x(y, j) * x(z) - x(z, j) * x(y)) * x(u)
                out = out + part.scale(comb(j + i, i))
        return out

    def test_top_order_two_example(self):
        y, z, t, u = 3, 4, 5, 6
        c2 = x(1)
        h = c2 * (x(y, 2) * x(z) - x(z, 2) * x(y)) * x(u)
        got = h_step(h, t, roles=(y, z, u))
        assert got == (c2 * x(t, 1) * (x(y, 1) * x(z) - x(z, 1) * x(y))
                       * x(u)).scale(2)
        assert got == self._oracle({2: c2}, 2, y, z, t, u)

    def test_mixed_orders_against_binomial_oracle(self):
        y, z, t, u = 3, 4, 5, 6
        coeffs = {1: x(1).scale(2), 2: x(1), 3: x(1).scale(-1)}
        h = DiffPermPoly.zero()
        for s_, c in coeffs.items():
            h = h + c * (x(y, s_) * x(z) - x(z, s_) * x(y)) * x(u)
        got = h_step(h, t, roles=(y, z, u))
        assert got == self._oracle(coeffs, 3, y, z, t, u)

    def test_closed_form_after_all_steps(self):
        # n-1 steps turn the top coefficient into n! c_n t_1'..t_{n-1}'
        for n in (2, 3):
            f = x(1) * x(2, n)
            d = decompose(f, 2)
            c_n = d.g[n] + d.p[n]
            y, z = 3, 4
            ts = [4 + i for i in range(1, n + 1)]
            u = 5 + n
            H = h0(f, 2, y, z) * x(u)
            for i in range(n - 1):
                H = h_step(H, ts[i], roles=(y, z, u))
            want = c_n
            for i in range(n - 1):
                want = want * x(ts[i], 1)
            want = (want * (x(y, 1) * x(z) - x(z, 1) * x(y))
                    * x(u)).scale(factorial(n))
            assert H == want
            # the same value written with the underived factor on the left
            alt = c_n
            for i in range(n - 1):
                alt = alt * x(ts[i], 1)
            alt = (alt * (x(y, 1) * x(z) - x(y) * x(z, 1))
                   * x(u)).scale(factorial(n))
            assert H == alt


def final_by_substitution(h, t, y, u):
    """h[y -> y t] - h[u -> t u], computed by generic substitution."""
    return (apply_substitution(h, {y: x(y) * x(t)})
            - apply_substitution(h, {u: x(t) * x(u)}))


def step_by_substitution(h, t, y, z, u):
    """A - (A with y and z swapped) for A = h[y -> y t] - h[u -> t u]: the
    definition of ``h_step``, computed by generic substitution."""
    A = final_by_substitution(h, t, y, u)
    return A - rename_vars(A, {y: z, z: y})


@st.composite
def pass_shaped(draw, antisymmetric):
    """(h, t, (y, z, u)) for h = p * u with p multilinear in x1..x(n+2),
    derivative orders up to 3, y and z its last two variables, and t and u
    fresh: every term of h ends in the underived u and has y and z once on
    its left.  ``antisymmetric`` takes p - (p with y and z swapped) for p,
    so that h changes sign when y and z are swapped."""
    n = draw(st.integers(0, 3))
    y, z, t, u = n + 1, n + 2, n + 3, n + 4
    p = draw(multilinear_st(n + 2, 3))
    if antisymmetric:
        p = p - rename_vars(p, {y: z, z: y})
    return p * x(u), t, (y, z, u)


class TestClosedForm:
    """The coded sweep behind ``h_step`` against the substitution
    definitions."""

    @settings(max_examples=80)
    @given(pass_shaped(antisymmetric=True))
    def test_h_step_is_the_definition(self, case):
        h, t, (y, z, u) = case
        assert h_step(h, t, (y, z, u)) == step_by_substitution(h, t, y, z, u)

    @settings(max_examples=80)
    @given(pass_shaped(antisymmetric=False))
    def test_final_step_is_the_definition(self, case):
        # the closing substitution needs no antisymmetry
        h, t, (y, z, u) = case
        assert h_step(h, t, (y, u)) == final_by_substitution(h, t, y, u)

    Y, Z, T, U = 2, 3, 4, 5

    @pytest.mark.parametrize("h, roles", [
        # a term ends in another factor, or in a derived u
        (x(1) * x(Y) * x(U) * x(Z), (Y, Z, U)),
        (x(1) * x(Y) * x(Z) * x(U, 1), (Y, U)),
        # u also sits on the left
        (x(U, 1) * x(Y) * x(Z) * x(U), (Y, Z, U)),
        # y is missing, or there twice; z is missing
        (x(1) * x(Z) * x(U) + x(1) * x(Y) * x(Z) * x(U), (Y, U)),
        (x(Y) * x(Y, 1) * x(Z) * x(U), (Y, Z, U)),
        (x(1) * x(Y) * x(U), (Y, Z, U)),
    ], ids=["last-factor", "derived-u", "u-on-left", "missing-y",
            "y-twice", "missing-z"])
    def test_unexpected_shape_is_refused(self, h, roles):
        with pytest.raises(AlgebraError, match="unexpected shape"):
            h_step(h, self.T, roles)

    def test_role_as_t_is_refused(self):
        # the sweep gives the definition for a fresh t, and even for x1,
        # but not for t = y or t = z, so every role is refused
        h = (x(1) * x(2, 2) * x(3) - x(1) * x(3, 2) * x(2)) * x(4)
        for t in (1, 5):
            assert h_step(h, t, (2, 3, 4)) == \
                step_by_substitution(h, t, 2, 3, 4)
        for t in (2, 3, 4):
            with pytest.raises(AlgebraError, match="not a fresh variable"):
                h_step(h, t, (2, 3, 4))
        for t in (2, 4):
            with pytest.raises(AlgebraError, match="not a fresh variable"):
                h_step(h, t, (2, 4))

    def test_other_contexts_are_refused(self):
        h = DiffPermPoly.from_terms(
            [(Monomial((Symbol(self.Y, (1,)), Symbol(self.Z, (0,))),
                       Symbol(self.U, (0,))), 1)], CTX_DELTA)
        with pytest.raises(AlgebraError, match="context"):
            h_step(h, self.T, (self.Y, self.Z, self.U))


def replay_trace(result, original):
    """Re-derive every recorded step from its predecessor using only the
    public algebra operations; returns the number of steps checked."""
    base = original      # polynomial the current pass decomposes
    checked = 0
    prev = None
    for step in result.trace:
        op = step.rule["op"]
        if op == "input":
            assert step.poly == original
        elif op == "h0":
            k, y, z = step.rule["var"], step.rule["y"], step.rule["z"]
            got = (rename_vars(base, {k: y}) * x(z)
                   - rename_vars(base, {k: z}) * x(y))
            assert got == step.poly
        elif op == "rmul":
            got = prev * x(step.rule["var"])
            assert got == step.poly
        elif op == "h_step":
            # from the definition, not through the closed form of h_step
            r = step.rule
            got = step_by_substitution(prev, r["t"], r["y"], r["z"], r["u"])
            assert got == step.poly
        elif op == "final_subst":
            r = step.rule
            got = final_by_substitution(prev, r["t"], r["y"], r["u"])
            assert got == step.poly
        elif op == "extract":
            back = step.poly
            for var, order in step.rule["strip"]:
                back = back * x(var, order)
            assert back == prev
            base = step.poly
        elif op == "certificate":
            # rebuild the closing identity: the remaining class (or, when the
            # last pass consumed it, the scalar read off that pass's closing
            # polynomial) times every inert factor, then a -> a' on the
            # underived variables
            r = step.rule
            extracts = [i for i, s in enumerate(result.trace)
                        if s.rule["op"] == "extract"]
            finals = [i for i, s in enumerate(result.trace)
                      if s.rule["op"] == "final_subst"]
            scalar = None
            if finals and (not extracts or finals[-1] > extracts[-1]):
                (_, scalar), = result.trace[finals[-1]].poly.terms.items()
                cls_poly = None
            elif extracts:
                cls_poly = result.trace[extracts[-1]].poly
            else:
                cls_poly = multiset_normal_form(original)
            prod = cls_poly
            for var, order in r["inert"]:
                g = x(var, order)
                prod = g if prod is None else prod * g
            if scalar is not None:
                prod = prod.scale(scalar)
            expected = apply_substitution(
                prod, {v_: x(v_, 1) for v_ in r["bumped"]})
            if "padded_with" in r:
                expected = expected * x(r["padded_with"], 1)
            assert expected == step.poly == result.certificate
        else:
            raise AssertionError(f"unknown trace op {op}")
        prev = step.poly
        checked += 1
    return checked


class TestReduce:
    def test_right_annihilator(self):
        r = reduce_identity(x(1) * x(2) - x(2) * x(1))
        assert r.outcome == OUTCOME_RIGHT_ANNIHILATOR
        assert r.certificate is None

    def _assert_derivative_only(self, r):
        assert r.outcome == OUTCOME_DERIVATIVE_ONLY
        (mono, coeff), = r.certificate.terms.items()
        assert coeff != 0
        assert all(s.order == 1 for s in mono.factors)
        assert r.m == mono.degree >= 2

    def test_prec_monomial(self):
        r = reduce_identity(x(1) * x(2, 1))
        self._assert_derivative_only(r)
        assert r.m == 5
        (mono, coeff), = r.certificate.terms.items()
        assert coeff == 1

    def test_succ_monomial(self):
        r = reduce_identity(x(1, 1) * x(2))
        self._assert_derivative_only(r)
        assert r.m == 5

    def test_trace_replay_exact(self):
        for f in (x(1) * x(2, 1), x(1, 1) * x(2), x(1) * x(2, 2),
                  x(1, 2) * x(2, 2),
                  x(1) * x(2, 1) + (x(2) * x(1, 1)).scale(3)):
            r = reduce_identity(f)
            assert replay_trace(r, f) == len(r.trace)

    def test_already_derivative_only(self):
        r = reduce_identity((x(1, 1) * x(2, 1)).scale(5))
        self._assert_derivative_only(r)

    def test_higher_order_needs_more_fresh_variables(self):
        r = reduce_identity(x(1) * x(2, 2))
        self._assert_derivative_only(r)
        (mono, coeff), = r.certificate.terms.items()
        assert coeff == factorial(2)
        assert r.m == 6  # x1, t1, t2, y, z, u

    def test_two_pass_input(self):
        r = reduce_identity(x(1, 2) * x(2, 2))
        self._assert_derivative_only(r)
        (mono, coeff), = r.certificate.terms.items()
        assert coeff == factorial(2) * factorial(2)
        assert r.m == 10

    def test_underived_single_variable(self):
        r = reduce_identity(x(1))
        self._assert_derivative_only(r)
        assert r.m == 2  # padded to reach a two-factor product

    def test_non_contiguous_variable_indices(self):
        f = x(2) * x(5, 1)
        r = reduce_identity(f)
        self._assert_derivative_only(r)
        assert replay_trace(r, f) == len(r.trace)

    def test_fractional_coefficients_flow_through(self):
        from fractions import Fraction
        f = (x(1) * x(2, 1)).scale(Fraction(1, 3))
        r = reduce_identity(f)
        self._assert_derivative_only(r)
        (_, coeff), = r.certificate.terms.items()
        assert coeff == Fraction(1, 3)

    def test_zero_rejected(self):
        with pytest.raises(AlgebraError, match="zero"):
            reduce_identity(DiffPermPoly.zero())

    def test_non_multilinear_rejected(self):
        with pytest.raises(AlgebraError, match="multilinear"):
            reduce_identity(x(1) * x(1))

    def test_spec_choice_can_stall_without_annihilator_filtering(self):
        # the top-order variable measured on the raw polynomial can have a
        # vanishing extracted coefficient; measuring modulo the right
        # annihilator avoids the stall and this input exercises it
        f = x(1) * x(2, 1) - x(2, 1) * x(1) + x(1, 1) * x(2)
        assert not annihilator_test(f)
        r = reduce_identity(f)
        self._assert_derivative_only(r)
        assert replay_trace(r, f) == len(r.trace)

    @given(multilinear_st(nvars=3, max_order=2))
    @settings(max_examples=60)
    def test_outcomes_are_well_formed(self, f):
        if f.is_zero():
            return
        r = reduce_identity(f)
        if r.outcome == OUTCOME_RIGHT_ANNIHILATOR:
            assert annihilator_test(f)
        else:
            assert not annihilator_test(f)
            (mono, coeff), = r.certificate.terms.items()
            assert coeff != 0
            assert all(s.order == 1 for s in mono.factors)

    @staticmethod
    def _scan_per_variable(cls):
        """The earlier pass-variable choice, one scan per variable: (top
        derivative order, variable), the larger index winning ties."""
        best = None
        for var in cls.variables():
            n = max(sum(s.dord) for m in cls.terms for s in m.factors
                    if s.var == var)
            if best is None or (n, var) > best:
                best = (n, var)
        return best

    @given(multilinear_st(nvars=3, max_order=2))
    @settings(max_examples=40)
    def test_passes_follow_per_variable_scan(self, f):
        if f.is_zero() or annihilator_test(f):
            return
        steps = {s.name: s for s in reduce_identity(f).trace}
        current, passes = f, 0
        while current is not None:
            cls = multiset_normal_form(current)
            n, k = self._scan_per_variable(cls)
            if len(cls.terms) == 1 and n <= 1 and (passes >= 1 or n == 0):
                break
            label = f"pass{passes + 1}:"
            assert steps[label + "h0"].rule["var"] == k
            # h0*u, then one h_step per order above one
            assert sum(name.startswith(label + "h") and name.endswith("*u")
                       for name in steps) == n
            passes += 1
            step = steps.get(label + "coefficient")
            current = step.poly if step is not None else None
        assert f"pass{passes + 1}:h0" not in steps

    @given(replay_inputs())
    @settings(max_examples=50, deadline=None)
    def test_trace_replays_for_random_inputs(self, f):
        if f.is_zero():
            return
        r = reduce_identity(f)
        assert r.outcome == (OUTCOME_RIGHT_ANNIHILATOR if annihilator_test(f)
                             else OUTCOME_DERIVATIVE_ONLY)
        assert replay_trace(r, f) == len(r.trace)


class TestMultisetNormalForm:
    def test_collapses_equal_multisets(self):
        p = x(1) * x(2) - x(2) * x(1)
        assert multiset_normal_form(p).is_zero()

    def test_keeps_distinct_multisets(self):
        p = x(1, 1) * x(2) + x(1) * x(2, 1)
        assert len(multiset_normal_form(p)) == 2

    def test_idempotent(self):
        p = x(2, 1) * x(1) + x(1) * x(2)
        nf = multiset_normal_form(p)
        assert multiset_normal_form(nf) == nf


class TestStripFactors:
    """``_extract``, on the codes of a polynomial, gives the top coefficient
    back, as a remainder or a nonzero scalar, and refuses every other
    shape."""

    X, T, Y, U = (Symbol(1, (2,)), Symbol(3, (1,)), Symbol(4, (0,)),
                  Symbol(5, (0,)))
    STRIP = [(3, 1), (4, 0)]

    def strip(self, terms):
        got = _extract(*_encode(DiffPermPoly(CTX_Q, terms), self.U),
                       self.STRIP)
        if isinstance(got, tuple):
            return _decode(got[0], None, got[1])
        return got

    def test_remainder(self):
        got = self.strip({Monomial((self.X, self.T, self.Y), self.U): 3})
        assert got == DiffPermPoly(CTX_Q, {Monomial((), self.X): 3})

    def test_scalar(self):
        assert self.strip({Monomial((self.T, self.Y), self.U): -2}) == -2

    @pytest.mark.parametrize("terms", [
        # the last factor is not the underived u
        {Monomial((X, T, Y), Symbol(5, (1,))): 1},
        # a stripped symbol is missing
        {Monomial((X, T), U): 1},
        # a scalar part beside a remainder
        {Monomial((T, Y), U): 1, Monomial((X, T, Y), U): 1},
        # a zero scalar part: two monomials, one with its left factors out
        # of order, would strip to nothing and cancel; their codes are not
        # on one list of variables
        {Monomial((T, Y), U): 1, Monomial((Y, T), U): -1},
    ], ids=["last-factor", "missing-symbol", "scalar-and-remainder",
            "zero-scalar"])
    def test_unexpected_shape_is_refused(self, terms):
        with pytest.raises(AlgebraError, match="unexpected shape"):
            self.strip(terms)

    @pytest.mark.parametrize("variables, terms", [
        # t'' where t' belongs, and y derived
        ((1, 3, 4), {(2, 2, 0): 1}),
        ((1, 3, 4), {(2, 1, 0): 1, (2, 1, 1): 1}),
        # the stripped variables are not the trailing slots
        ((3, 4, 1), {(1, 0, 2): 1}),
        # fewer slots than stripped symbols
        ((4,), {(0,): 1}),
        # nothing left, and no nonzero scalar
        ((3, 4), {}),
    ], ids=["t-twice-derived", "y-derived", "slots-out-of-place",
            "too-few-slots", "zero-scalar"])
    def test_bad_codes_are_refused(self, variables, terms):
        with pytest.raises(AlgebraError, match="unexpected shape: cannot "
                                               "extract the top coefficient"):
            _extract(variables, terms, self.STRIP)


def expression(f):
    """The text of f in the CLI's grammar: each monomial is the left-nested
    product of its factors, left factors first."""
    parts = []
    for m, c in f.sorted_terms():
        factors = " * ".join("d(" * s.order + f"x{s.var}" + ")" * s.order
                             for s in m.factors)
        parts.append(f"{'-' if c < 0 else '+'} {abs(c)} * {factors}")
    return " ".join(parts)


def reduce_stdout(text):
    """The exit code and stdout of ``reduce TEXT --quiet``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce", text, "--quiet"])
    return code, out.getvalue(), err.getvalue()


def reduce_reading_every_step(f):
    """``reduce_identity`` that decodes every step before returning."""
    r = reduce_identity(f)
    for step in r.trace:
        step.poly
    return r


# the five-pass input of the CI step "Multi-pass reduction"
FIVE_PASSES = ("d(d(x1)) * x2 * d(x3) * d(x4) * x5 - d(d(d(x2))) * d(d(x3))"
               " * d(d(d(x4))) * d(d(d(x5))) * d(d(d(x1)))")


class TestCodedTrace:
    """Each step is printed from its codes and decoded only when read; the
    text and the decoded polynomial agree with the polynomial path."""

    @staticmethod
    def check(f):
        text = expression(f)
        code, plain, _ = reduce_stdout(text)
        assert code == 0
        with mock.patch("permdiff.cli.reduce_identity",
                        reduce_reading_every_step):
            assert reduce_stdout(text)[1] == plain
        r = reduce_identity(f)
        for step in r.trace:
            assert step.text() == format_poly(step.poly)
        assert replay_trace(r, f) == len(r.trace)
        return r

    @given(replay_inputs(max_vars=5, max_order=3))
    @settings(max_examples=40, deadline=None)
    def test_random_inputs_of_up_to_five_passes(self, f):
        if not f.is_zero():
            r = self.check(f)
            # steer the search towards inputs of more passes
            target(sum(s.name.endswith(":final") for s in r.trace))

    def test_five_passes(self):
        from permdiff.exprs import eval_on_generators, parse_expr
        f = eval_on_generators(parse_expr(FIVE_PASSES))
        r = self.check(f)
        assert r.m == 29
        assert sum(s.name.endswith(":final") for s in r.trace) == 5

    def test_h0_of_a_class_with_one_variable(self):
        # the pass variable is the only one: the codes have no other slot
        self.check(x(1, 2))


class TestTraceBudget:
    """A trace holds at most ``TRACE_BUDGET`` terms, about 2^n for
    d^n(x1) * x2 (131 078 at n = 17); past it ``reduce`` exits 2 and
    writes nothing."""

    @staticmethod
    def chain(n):
        return "d(" * n + "x1" + ")" * n + " * x2"

    def test_order_17_fits(self):
        code, out, _ = reduce_stdout(self.chain(17))
        assert code == 0 and json.loads(out)["m"] == 21
        r = reduce_identity(x(1, 17) * x(2))
        assert sum(len(s.poly) for s in r.trace) == 131078 < TRACE_BUDGET

    def test_order_30_exits_two_within_seconds(self):
        start = time.perf_counter()
        code, out, err = reduce_stdout(self.chain(30))
        assert time.perf_counter() - start < 30
        assert (code, out) == (2, "")
        assert err == (f"error: reduce: the trace would exceed its budget of "
                       f"{TRACE_BUDGET} terms\n")

    def test_a_sweep_stops_past_its_room(self):
        # y'' z - z'' y on (y, z) lowers to four terms; room for one
        with pytest.raises(AlgebraError, match="budget"):
            _lower({(2, 0): 1, (0, 2): -1}, (0, 1), 1)
        # the two y z t'' cancel, so three terms are built and two kept
        assert _lower({(2, 0): 1, (0, 2): -1}, (0, 1), 3) == \
            {(1, 0, 1): 2, (0, 1, 1): -2}
