import copy
import itertools
import pickle
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import (
    enumerate_monomials,
    enumerate_multisets,
    enumerate_symbols,
    monomials_st,
    polys_st,
    symbols_st,
)
from oracles import annihilator_test, rename_vars, specialize_delta, subs, x
from permdiff.algebra import (
    CTX_DELTA,
    CTX_Q,
    AlgebraError,
    Context,
    DELTA,
    DeltaPoly,
    DiffPermPoly,
    Monomial,
    Symbol,
    apply_substitution,
    derived_product,
    grade,
    normalize,
    symbol,
)
from test_lincomb import assert_matches, model_substitute


def mono(*syms):
    return normalize(list(syms))


def poly_of(m, coeff=1):
    return DiffPermPoly.from_terms([(m, coeff)], CTX_Q)


s = symbol  # s(var, order)


class TestNormalize:
    def test_sorts_left_keeps_last(self):
        m = normalize([s(2), s(1), s(3)])
        assert m == Monomial((s(1), s(2)), s(3))

    def test_single_factor(self):
        assert normalize([s(1)]) == Monomial((), s(1))

    def test_var_tie_broken_by_derivative_order(self):
        m = normalize([s(1, 2), s(1, 0), s(2)])
        assert m == Monomial((s(1, 0), s(1, 2)), s(2))

    def test_empty_is_error(self):
        with pytest.raises(AlgebraError, match="empty monomial"):
            normalize([])

    @given(st.lists(symbols_st(), min_size=1, max_size=5))
    def test_idempotent(self, syms):
        m = normalize(syms)
        assert normalize(list(m.left) + [m.last]) == m


class TestMul:
    def test_two_factors(self):
        assert x(2) * x(1) == poly_of(mono(s(2), s(1)))

    def test_first_two_factors_sorted(self):
        assert x(3) * (x(1) * x(2)) == poly_of(mono(s(1), s(3), s(2)))

    def test_perm_law_kills_commutator_on_right_mul(self):
        assert ((x(1) * x(2) - x(2) * x(1)) * x(3)).is_zero()

    def test_context_mismatch(self):
        other = DiffPermPoly.generator(1, (0, 0), Context(2, False))
        with pytest.raises(AlgebraError, match="context mismatch"):
            x(1) * other

    def test_perm_law_exhaustive_degree2_pool(self):
        pool = [poly_of(m) for m in enumerate_monomials(2, 1, 2)]
        for a, b, c in itertools.product(pool, repeat=3):
            assert (a * b) * c == (b * a) * c

    def test_associativity_exhaustive_degree2_pool(self):
        pool = [poly_of(m) for m in enumerate_monomials(2, 1, 2)]
        for a, b, c in itertools.product(pool, repeat=3):
            assert (a * b) * c == a * (b * c)


@given(monomials_st(), monomials_st())
def test_operation_outputs_stay_canonical(m1, m2):
    outs = [poly_of(m1) * poly_of(m2), poly_of(m1).derive(),
            poly_of(m1).star()]
    for p in outs:
        for m in p.terms:
            assert m == normalize(list(m.left) + [m.last])
            assert list(m.left) == sorted(m.left)


@given(st.data())
@settings(max_examples=150)
def test_perm_law_and_associativity_on_degree3_pool(data):
    pool = enumerate_monomials(2, 1, 3)
    pick = st.sampled_from(pool)
    a = poly_of(data.draw(pick))
    b = poly_of(data.draw(pick))
    c = poly_of(data.draw(pick))
    assert (a * b) * c == (b * a) * c
    assert (a * b) * c == a * (b * c)


class TestDerive:
    def test_leibniz_two_factors(self):
        assert (x(1) * x(2)).derive() == x(1, 1) * x(2) + x(1) * x(2, 1)

    def test_single_generator(self):
        assert x(1).derive() == x(1, 1)

    def test_double_derivative_matches_hand_expansion(self):
        got = (x(1) * x(2)).derive().derive()
        want = x(1, 2) * x(2) + (x(1, 1) * x(2, 1)).scale(2) + x(1) * x(2, 2)
        assert got == want

    def test_index_out_of_range(self):
        with pytest.raises(AlgebraError, match="out of range"):
            x(1).derive(2)

    @given(polys_st(), polys_st())
    def test_leibniz_rule(self, p, q):
        assert (p * q).derive() == p.derive() * q + p * q.derive()

    def test_multi_derivation_commute(self):
        ctx = Context(3, False)
        p = (DiffPermPoly.generator(1, (1, 0, 2), ctx)
             * DiffPermPoly.generator(2, (0, 1, 0), ctx)
             * DiffPermPoly.generator(3, (0, 0, 0), ctx))
        for i in range(1, 4):
            for j in range(1, 4):
                assert p.derive(i).derive(j) == p.derive(j).derive(i)

    def test_delta_context_refuses_flat_derivation(self):
        p = DiffPermPoly.generator(1, 0, CTX_DELTA)
        with pytest.raises(AlgebraError, match="ambiguous"):
            p.derive()


class TestGrade:
    def test_generator(self):
        assert grade(mono(s(1))) == (1, -1)

    def test_weight_zero(self):
        assert grade(mono(s(1, 2), s(2))) == (2, 0)

    def test_degree_three(self):
        assert grade(mono(s(1), s(2), s(3, 1))) == (3, -2)

    def test_multi_derivation_weight_is_error(self):
        with pytest.raises(AlgebraError, match="single derivation"):
            grade(Monomial((), Symbol(1, (0, 0))), arity=2)

    @given(monomials_st(), monomials_st())
    def test_weight_additive_under_mul(self, m1, m2):
        p = poly_of(m1) * poly_of(m2)
        (m3, _), = p.terms.items()
        assert grade(m3)[1] == grade(m1)[1] + grade(m2)[1]

    @given(monomials_st())
    def test_derive_and_star_raise_weight_by_one(self, m):
        p = poly_of(m)
        w = grade(m)[1]
        assert all(grade(mm)[1] == w + 1 for mm in p.derive().terms)
        assert all(grade(mm)[1] == w + 1 for mm in p.star().terms)


def star_rec(seq, tree):
    """Recursive star via an explicit binary factorization tree."""
    kind = tree[0]
    if kind == "leaf":
        return poly_of(Monomial((), seq[tree[1]].derived(0)))
    _, lt, rt = tree
    u = _subproduct(seq, lt)
    v = _subproduct(seq, rt)
    return u * star_rec(seq, rt) + v * star_rec(seq, lt)


def _subproduct(seq, tree):
    if tree[0] == "leaf":
        return poly_of(Monomial((), seq[tree[1]]))
    _, lt, rt = tree
    return _subproduct(seq, lt) * _subproduct(seq, rt)


def binary_trees(lo, hi):
    if hi - lo == 1:
        yield ("leaf", lo)
        return
    for mid in range(lo + 1, hi):
        for lt in binary_trees(lo, mid):
            for rt in binary_trees(mid, hi):
                yield ("node", lt, rt)


def left_comb(n):
    t = ("leaf", 0)
    for i in range(1, n):
        t = ("node", t, ("leaf", i))
    return t


def multiset_poly(ms):
    return poly_of(Monomial(tuple(ms[:-1]), ms[-1]))


class TestStar:
    def test_generator(self):
        assert x(1).star() == x(1, 1)

    def test_two_factors(self):
        assert (x(1) * x(2)).star() == x(1) * x(2, 1) + x(2) * x(1, 1)

    def test_three_factors_against_recursive_oracle(self):
        got = (x(1) * x(2) * x(3)).star()
        want = (x(1) * x(2) * x(3, 1) + x(1) * x(3) * x(2, 1)
                + x(2) * x(3) * x(1, 1))
        assert got == want
        seq = (s(1), s(2), s(3))
        assert got == star_rec(seq, ("node", ("node", ("leaf", 0), ("leaf", 1)),
                                     ("leaf", 2)))

    def test_multi_derivation_is_error(self):
        p = DiffPermPoly.generator(1, (0, 0), Context(2, False))
        with pytest.raises(AlgebraError, match="single-derivation"):
            p.star()

    def test_star_depends_only_on_factor_multiset(self):
        for ms in enumerate_multisets(enumerate_symbols(3, 2), 3):
            stars = {tuple(sorted(poly_of(Monomial(tuple(rest), last)).star()
                                  .terms.items()))
                     for last in set(ms)
                     for rest in [_remove_one(ms, last)]}
            assert len(stars) == 1

    def test_all_top_splits_degree_up_to_5(self):
        # (u v)* = u v* + v u* for every split of every factor multiset;
        # with the closed form on the smaller pieces this covers every
        # binary factorization by induction on the split level.
        syms = enumerate_symbols(3, 2)
        for size in range(2, 6):
            for ms in enumerate_multisets(syms, size):
                whole = multiset_poly(list(ms)).star()
                seen = set()
                for r in range(1, size):
                    for idxs in itertools.combinations(range(size), r):
                        left = tuple(ms[i] for i in idxs)
                        if left in seen:
                            continue
                        seen.add(left)
                        right = list(ms)
                        for sym in left:
                            right.remove(sym)
                        u = multiset_poly(list(left))
                        vv = multiset_poly(right)
                        assert whole == u * vv.star() + vv * u.star()

    def test_all_permutations_and_trees_degree_up_to_4(self):
        syms = enumerate_symbols(3, 1)
        for size in range(2, 5):
            trees = list(binary_trees(0, size))
            for ms in enumerate_multisets(syms, size):
                want = multiset_poly(list(ms)).star()
                for seq in set(itertools.permutations(ms)):
                    for tree in trees:
                        assert star_rec(seq, tree) == want

    def test_all_permutations_degree_5_left_comb(self):
        syms = enumerate_symbols(3, 1)
        tree = left_comb(5)
        for ms in enumerate_multisets(syms, 5):
            want = multiset_poly(list(ms)).star()
            for seq in set(itertools.permutations(ms)):
                assert star_rec(seq, tree) == want

    def test_star_star_equals_star_derive_degree_up_to_4(self):
        for m in enumerate_monomials(3, 2, 4):
            p = poly_of(m)
            assert p.star().star() == p.derive().star()


def _remove_one(ms, item):
    rest = list(ms)
    rest.remove(item)
    return rest


class TestDerivedProducts:
    def test_loz(self):
        assert derived_product("loz", x(1), x(2)) == x(1) * x(2, 1) + x(2) * x(1, 1)

    def test_bullet_is_derivative_of_product(self):
        assert derived_product("bullet", x(1), x(2)) == (x(1) * x(2)).derive()

    def test_diamond_alternating(self):
        assert derived_product("diamond", x(1), x(1)).is_zero()

    def test_all_tags_bilinear(self):
        a, b, c = x(1), x(2), x(3)
        for tag in ("prec", "succ", "loz", "bullet", "diamond", "circ"):
            lhs = derived_product(tag, a + b.scale(2), c)
            rhs = derived_product(tag, a, c) + derived_product(tag, b, c).scale(2)
            assert lhs == rhs

    def test_unknown_tag(self):
        with pytest.raises(AlgebraError, match="unknown"):
            derived_product("wedge", x(1), x(2))

    def test_each_product_matches_its_formula_term_for_term(self):
        # spans hand out column ids in term order, so the order is pinned too
        a = x(1) * x(2) + x(3, 1).scale(2)
        b = x(2, 1) - x(1) * x(3) + x(3)
        da, db = a.derive(), b.derive()
        want = {"prec": a * db, "succ": da * b, "loz": a * db + b * da,
                "bullet": da * b + a * db, "diamond": a * db - b * da,
                "circ": da * b - a * db}
        for tag, w in want.items():
            got = derived_product(tag, a, b)
            assert list(got.terms.items()) == list(w.terms.items())


class TestAnnihilator:
    def test_perm_commutator(self):
        assert annihilator_test(x(1) * x(2) - x(2) * x(1))

    def test_generator_is_not(self):
        assert not annihilator_test(x(1))

    def test_derived_monomial_is_not(self):
        assert not annihilator_test(x(1, 1) * x(2))

    def test_zero(self):
        assert annihilator_test(DiffPermPoly.zero())

    @staticmethod
    def _by_fresh_generator(p):
        """The earlier definition: p times one fresh generator is zero."""
        if p.is_zero():
            return True
        fresh = DiffPermPoly.generator(p.max_var() + 1, 0, p.ctx)
        return (p * fresh).is_zero()

    @given(st.lists(st.tuples(st.lists(symbols_st(), min_size=1, max_size=4),
                              st.fractions(-3, 3, max_denominator=4),
                              st.booleans(), st.randoms()),
                    max_size=4))
    @settings(max_examples=150)
    def test_matches_product_with_fresh_generator(self, rows):
        # each row is c * m, optionally minus c times the same factors in
        # another order, which cancels modulo the right annihilator
        pairs = []
        for syms, c, cancel, rnd in rows:
            pairs.append((normalize(syms), c))
            if cancel:
                rnd.shuffle(syms)
                pairs.append((normalize(syms), -c))
        p = DiffPermPoly.from_terms(pairs, CTX_Q)
        assert annihilator_test(p) == self._by_fresh_generator(p)


@st.composite
def multilinear_st(draw, k=3):
    """Signed sums of monomials on x1..xk, each once, derived up to twice,
    in random factor orders."""
    rows = draw(st.lists(st.tuples(st.permutations(range(1, k + 1)),
                                   st.lists(st.integers(0, 2),
                                            min_size=k, max_size=k),
                                   st.integers(-2, 2)), max_size=4))
    return DiffPermPoly.from_terms(
        [(normalize([s(v, o) for v, o in zip(vs, os)]), c)
         for vs, os, c in rows], CTX_Q)


# images of a subset of x1..x3, in x4..x6: multi-term, derived and zero
# images all occur
images_st = st.dictionaries(
    st.integers(1, 3),
    polys_st(max_var=3, max_order=1, max_degree=2, max_terms=3).map(
        lambda q: rename_vars(q, {1: 4, 2: 5, 3: 6})),
    max_size=3)


class TestSubstitution:
    def test_endomorphism_on_derived_occurrence(self):
        p = x(1, 1) * x(2)
        q = apply_substitution(p, {1: x(3) * x(4)})
        assert q == (x(3) * x(4)).derive() * x(2)

    def test_refuses_a_delta_context(self):
        p = DiffPermPoly.generator(1, 0, CTX_DELTA)
        with pytest.raises(AlgebraError, match="ambiguous δ-derivation"):
            apply_substitution(p, {})

    def test_refuses_an_image_from_another_context(self):
        image = DiffPermPoly.generator(2, 0, CTX_DELTA)
        with pytest.raises(AlgebraError, match="image context mismatch"):
            apply_substitution(x(1) * x(2), {1: image})

    def test_rename_swap(self):
        assert rename_vars(x(1, 1) * x(2), {1: 2, 2: 1}) == x(2, 1) * x(1)

    @given(polys_st(max_degree=2), polys_st(max_degree=2))
    def test_substitution_is_multiplicative(self, p, q):
        img = {1: x(4) * x(5), 2: x(6, 1), 3: x(7)}
        lhs = apply_substitution(p * q, img)
        rhs = apply_substitution(p, img) * apply_substitution(q, img)
        assert lhs == rhs

    @given(polys_st(max_degree=2))
    def test_substitution_commutes_with_derive(self, p):
        img = {1: x(4) * x(5), 2: x(6, 1), 3: x(7)}
        assert apply_substitution(p.derive(), img) == \
            apply_substitution(p, img).derive()

    @given(st.one_of(polys_st(max_degree=4, max_terms=4), multilinear_st()),
           images_st)
    @example(x(1, 2) * x(2), {1: x(4) * x(5) + x(6).scale(2)})  # derived
    @example(x(2) * x(1, 1), {1: x(4) * x(5) - x(6, 1)})  # final factor
    @example(x(1) * x(2) * x(3), {2: DiffPermPoly.zero()})  # zero image
    @example(x(1) * x(2), {})  # no image at all
    @example(x(1) * x(3) - x(2) * x(3), {1: x(4), 2: x(4)})  # cancels
    @example(x(1) * x(2) * x(3), {1: x(4) - x(5), 2: x(4) + x(5)})
    @settings(max_examples=300)
    def test_matches_iterated_products(self, p, images):
        # against the plain-dict model: each monomial is the product, factor
        # by factor, of its factors' images
        assert_matches(apply_substitution(p, images), model_substitute(
            p.terms, {v: q.terms for v, q in images.items()}))


class TestScalars:
    def test_delta_poly_arithmetic(self):
        assert (DELTA + 1) * (DELTA - 1) == DELTA * DELTA - 1
        assert str(DELTA + 1) == "δ + 1"
        assert (DELTA - DELTA) == 0
        assert DeltaPoly((Fraction(1, 2),)) + DeltaPoly((Fraction(1, 2),)) == 1

    @pytest.mark.parametrize("poly", [DeltaPoly((1, Fraction(1, 2))), DELTA],
                             ids=["made", "DELTA"])
    def test_delta_poly_refuses_assignment(self, poly):
        # a key stays findable: assignment and deletion raise and change
        # nothing, the shared DELTA included
        table, before = {poly: 1}, poly.coeffs
        with pytest.raises(AttributeError, match="cannot assign"):
            poly.coeffs = (5,)
        with pytest.raises(AttributeError, match="cannot assign"):
            del poly.coeffs
        assert poly.coeffs == before and poly in table
        assert DELTA == DeltaPoly((0, 1))
        for copy_of in (copy.copy, copy.deepcopy,
                        lambda p: pickle.loads(pickle.dumps(p))):
            got = copy_of(poly)
            assert got == poly and hash(got) == hash(poly) and got in table

    def test_delta_subs(self):
        assert subs((DELTA + 1) * DELTA, 2) == 6

    def test_delta_coefficient_rejected_in_rational_context(self):
        with pytest.raises(AlgebraError, match="delta coefficient"):
            x(1).scale(DELTA)

    def test_rationals_embed_into_delta_context(self):
        p = DiffPermPoly.generator(1, 0, CTX_DELTA)
        assert p.scale(Fraction(1, 2)).scale(2) == p

    def test_specialize_delta(self):
        p = DiffPermPoly.generator(1, 0, CTX_DELTA).scale(DELTA + 1)
        assert specialize_delta(p, 1) == x(1).scale(2)

    def test_zero_poly_operations(self):
        z = DiffPermPoly.zero()
        assert (z + z).is_zero() and (z * x(1)).is_zero()
        assert z.derive().is_zero() and z.star().is_zero()

    def test_monomial_constructor(self):
        p = DiffPermPoly.monomial([s(2), s(1), s(3, 1)], coeff=Fraction(2, 3))
        assert p == (x(2) * x(1) * x(3, 1)).scale(Fraction(2, 3))


class TestFormatting:
    def test_symbol_primes_then_caret(self):
        from permdiff.algebra import format_symbol
        assert format_symbol(s(2, 0)) == "x2"
        assert format_symbol(s(2, 3)) == "x2'''"
        assert format_symbol(s(2, 4)) == "x2^(4)"
        assert format_symbol(Symbol(1, (0, 2, 1))) == "x1^(0,2,1)"
        assert format_symbol(Symbol(1, (0, 0))) == "x1"

    def test_poly_layout(self):
        from permdiff.algebra import format_poly
        p = (x(1) * x(2, 2)).scale(Fraction(3, 2)) - x(2) * x(1)
        assert format_poly(p) == "3/2 x1 x2'' - x2 x1"
        assert format_poly(DiffPermPoly.zero()) == "0"
        assert format_poly(-x(1)) == "-x1"

    def test_delta_coefficient_layout(self):
        from permdiff.algebra import CTX_DELTA, format_poly
        g = DiffPermPoly.generator(1, 0, CTX_DELTA)
        assert format_poly(g.scale(DELTA + 1)) == "(δ + 1) x1"
        assert format_poly(g.scale(DELTA)) == "δ x1"
        assert format_poly(g.scale(-2)) == "-2 x1"
        assert str(DELTA * DELTA - DELTA) == "δ^2 - δ"
