import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from conftest import break_family, polys_st
from hypothesis import given, settings

import permdiff.spans as spans
from oracles import (
    decode,
    digits,
    encode,
    lead_order,
    leads,
    prime_rank,
    prime_rows,
    rank,
    rename_vars,
    smallest_pivot_rank,
    span_basis,
    x,
)
from permdiff.algebra import (
    CTX_Q,
    AlgebraError,
    DiffPermPoly,
    Symbol,
    apply_substitution,
    derived_product,
    format_poly,
    monomial_key,
)
from permdiff.cli import main
from permdiff.spans import (
    SpanBasis,
    dimension_formula,
    generate_S,
    generate_closure,
    modular_rank,
    verify_dimension,
    weight_minus2_monomials,
)


class TestGenerateS:
    def test_degree2_star_single_element(self):
        got = generate_S(2, "star")
        assert got == [x(1) * x(2, 1) + x(2) * x(1, 1)]

    def test_degree3_counts(self):
        assert len(generate_S(3, "star")) == 3
        assert len(generate_S(3, "prime")) == 9

    def test_degree_below_two_is_error(self):
        with pytest.raises(AlgebraError):
            generate_S(1, "star")

    def test_weight_minus2_monomial_count(self):
        for n in range(2, 6):
            assert len(weight_minus2_monomials(n)) == \
                n * comb(2 * n - 3, n - 1)

    def test_star_collapse_is_n_fold(self):
        # star only sees factor multisets, so the n last-factor choices of
        # each order assignment collapse to one image
        for n in range(2, 6):
            monos = weight_minus2_monomials(n)
            images = len(generate_S(n, "star"))
            assert len(monos) == n * images
            assert images == comb(2 * n - 3, n - 1)

    def test_star_family_matches_image_keyed_construction(self):
        # the family keeps one monomial per factor multiset before starring;
        # keying the star images themselves must give the same list
        for n in range(2, 8):
            want, seen = [], set()
            for m in weight_minus2_monomials(n):
                img = DiffPermPoly(CTX_Q, {m: 1}).star()
                key = tuple(sorted(img.terms.items(),
                                   key=lambda mc: monomial_key(mc[0])))
                if key not in seen:
                    seen.add(key)
                    want.append(img)
            assert generate_S(n, "star") == want, n

    def test_prime_images_all_distinct(self):
        for n in range(2, 5):
            elems = generate_S(n, "prime")
            assert rank(elems) == len(elems)

    def test_every_element_weight_homogeneous_minus1(self):
        for variant in ("star", "prime"):
            for p in generate_S(4, variant):
                assert p.weights() == [-1]


class TestRank:
    def test_independent_pair(self):
        a = x(1) * x(2, 1) + x(2) * x(1, 1)
        b = x(1) * x(2, 1) - x(2) * x(1, 1)
        assert rank([a, b]) == 2

    def test_scalar_multiple(self):
        p = x(1) * x(2, 1)
        assert rank([p, p.scale(2)]) == 1

    def test_generate_S4_star(self):
        assert rank(generate_S(4, "star")) == 10

    def test_fractional_coefficients(self):
        from fractions import Fraction
        p = (x(1) * x(2, 1)).scale(Fraction(1, 2)) + x(2) * x(1, 1)
        q = x(1) * x(2, 1) + (x(2) * x(1, 1)).scale(2)
        assert rank([p, q]) == 1

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20)
    def test_rank_is_permutation_invariant(self, rng):
        elems = generate_S(4, "star")
        shuffled = list(elems)
        rng.shuffle(shuffled)
        assert rank(shuffled) == rank(elems)

    def test_mixed_contexts_rejected(self):
        from permdiff.algebra import CTX_DELTA
        other = DiffPermPoly.generator(1, 0, CTX_DELTA)
        basis = SpanBasis()
        basis.add(x(1))
        with pytest.raises(AlgebraError, match="mixed contexts"):
            basis.add(other)

    def test_delta_coefficients_rejected(self):
        from permdiff.algebra import CTX_DELTA
        with pytest.raises(AlgebraError, match="rational"):
            rank([DiffPermPoly.generator(1, 0, CTX_DELTA)])


def fraction_rank(polys):
    """Gauss-Jordan elimination over Fraction on dense rows; the oracle for
    ``SpanBasis``."""
    monos = sorted({m for p in polys for m in p.terms}, key=monomial_key)
    return fraction_matrix_rank([[p.terms.get(m, 0) for m in monos]
                                 for p in polys])


def fraction_matrix_rank(matrix):
    """Rank over Q of a dense matrix of rationals, by Gauss-Jordan
    elimination over Fraction."""
    rows = [[Fraction(a) for a in row] for row in matrix]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(row, prow)]
        r += 1
    return r


def matrices(max_rows, max_cols, entries):
    return st.integers(1, max_cols).flatmap(lambda cols: st.lists(
        st.lists(entries, min_size=cols, max_size=cols), max_size=max_rows))


def as_rows(matrix):
    """The rows of a rational matrix as integer rows for ``modular_rank``,
    each scaled by its common denominator, which leaves the rank over Q
    unchanged."""
    rows = []
    for row in matrix:
        denom = lcm(*(Fraction(a).denominator for a in row))
        rows.append({j: int(a * denom) for j, a in enumerate(row)})
    return rows


class TestModularRankAgainstFractionOracle:
    @given(matrices(6, 6, st.integers(-10, 10)))
    @settings(max_examples=200)
    def test_equals_exact_rank_on_small_matrices(self, matrix):
        # Hadamard: every minor is at most (10 * sqrt(6))^6 < MODULUS in
        # absolute value, so none that is nonzero over Q vanishes mod p
        assert 600 ** 3 < spans.MODULUS
        assert modular_rank(as_rows(matrix)) == fraction_matrix_rank(matrix)

    @given(matrices(8, 8, st.fractions(-10**6, 10**6, max_denominator=12)),
           st.lists(st.fractions(-3, 3, max_denominator=4), max_size=8),
           st.sampled_from([2, 3, 5, spans.MODULUS]))
    @settings(max_examples=200)
    def test_never_exceeds_exact_rank(self, matrix, mix, p):
        if matrix:  # append a rational combination of the rows
            matrix = matrix + [[sum(c * row[j] for c, row in zip(mix, matrix))
                                for j in range(len(matrix[0]))]]
        with patch.object(spans, "MODULUS", p):
            got = modular_rank(as_rows(matrix))
        assert got <= fraction_matrix_rank(matrix)

    @given(matrices(6, 6, st.integers(-10, 10)), st.integers(0, 7))
    @settings(max_examples=100)
    def test_stops_at_the_bound(self, matrix, stop):
        assert modular_rank(as_rows(matrix), stop=stop) == \
            min(stop, fraction_matrix_rank(matrix))

    def test_reads_no_row_past_the_bound(self):
        # the proof's rows are built as they are read
        def rows():
            yield from ({0: 1}, {0: 2}, {1: 3})
            raise AssertionError("a row was read past the bound")

        assert modular_rank(rows(), stop=2) == 2

    @pytest.mark.parametrize("entry", [Fraction(1, 3), Fraction(2), 1.0])
    def test_an_entry_that_is_no_integer_is_refused(self, entry):
        # the proof's rows are integral; a row with denominators is scaled
        # to integers first, and one that is not raises before any rank
        with pytest.raises(TypeError):
            modular_rank([{0: 1}, {1: entry}])


small_polys = polys_st(max_var=2, max_order=1, max_degree=2, max_terms=3)


class TestSpanBasisAgainstFractionOracle:
    @given(st.lists(small_polys, max_size=6), small_polys,
           st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    @settings(max_examples=150)
    def test_rank_and_contains(self, polys, probe, coeffs):
        basis = span_basis(polys)
        r = fraction_rank(polys)
        assert basis.rank == r
        assert basis.contains(probe) == (fraction_rank(polys + [probe]) == r)
        combo = DiffPermPoly.zero(CTX_Q)
        for c, p in zip(coeffs, polys):
            combo = combo + p.scale(c)
        assert basis.contains(combo)

    @given(st.lists(small_polys, max_size=6), st.randoms(use_true_random=False),
           st.lists(st.fractions().filter(bool), min_size=6, max_size=6))
    @settings(max_examples=60)
    def test_rank_invariant_under_shuffle_and_scaling(self, polys, rng,
                                                      scales):
        moved = [p.scale(c) for p, c in zip(polys, scales)]
        rng.shuffle(moved)
        assert span_basis(moved).rank == \
            span_basis(polys).rank


class TestGenerateClosure:
    def test_degree1(self):
        assert generate_closure("loz", 1) == [x(1)]

    def test_degree2_loz(self):
        elems = generate_closure("loz", 2)
        assert rank(elems) == 1
        basis = span_basis(elems)
        assert basis.contains(x(1) * x(2, 1) + x(2) * x(1, 1))

    def test_degree2_bullet(self):
        assert rank(generate_closure("bullet", 2)) == 2

    def test_every_element_weight_homogeneous_minus1(self):
        for tag in ("loz", "bullet"):
            for p in generate_closure(tag, 4):
                assert p.weights() == [-1] and p.degrees() == [4]

    def test_unknown_tag(self):
        with pytest.raises(AlgebraError):
            generate_closure("diamond", 3)

    def test_degree_below_one_is_error(self):
        with pytest.raises(AlgebraError, match="degree must be >= 1"):
            generate_closure("loz", 0)


def brute_force_closure(tag, n):
    """Every full bracketing of every permutation of x1..xn under the tagged
    product; exponential, for cross-checking the subset saturation."""

    def products(vars_tuple):
        if len(vars_tuple) == 1:
            yield x(vars_tuple[0])
            return
        for i in range(1, len(vars_tuple)):
            for lt in products(vars_tuple[:i]):
                for rt in products(vars_tuple[i:]):
                    yield derived_product(tag, lt, rt)

    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        out.extend(products(perm))
    return out


class TestClosureAgainstBruteForce:
    """The subset saturation spans exactly what enumerating all bracketed
    products does."""

    @pytest.mark.parametrize("tag,n", [("loz", 2), ("loz", 3), ("loz", 4),
                                       ("bullet", 2), ("bullet", 3),
                                       ("bullet", 4)])
    def test_same_span(self, tag, n):
        fast = generate_closure(tag, n)
        brute = brute_force_closure(tag, n)
        fast_basis = span_basis(fast)
        brute_basis = span_basis(brute)
        assert fast_basis.rank == brute_basis.rank
        assert all(brute_basis.contains(p) for p in fast)
        assert all(fast_basis.contains(p) for p in brute)


class TestClosureProperty:
    """Products of span elements of complementary supports stay in the span
    of the explicit family in the combined degree."""

    def _check(self, variant, tag, n, seed):
        rng = random.Random(seed)
        target = span_basis(generate_S(n, variant))
        for p in range(1, n):
            q = n - p
            left = ([x(1)] if p == 1 else generate_S(p, variant))
            right_base = ([x(1)] if q == 1 else generate_S(q, variant))
            right = [rename_vars(e, {i: i + p for i in range(1, q + 1)})
                     for e in right_base]
            for _ in range(6):
                a = rng.choice(left)
                b = rng.choice(right)
                ca, cb = rng.randint(1, 3), rng.randint(-3, -1)
                av = a.scale(ca) + rng.choice(left)
                bv = b.scale(cb)
                assert target.contains(derived_product(tag, av, bv))

    def test_loz_products_land_in_star_family_degrees_up_to_5(self):
        for n in range(2, 6):
            self._check("star", "loz", n, seed=7 * n)

    def test_bullet_products_land_in_prime_family_degrees_up_to_5(self):
        for n in range(2, 6):
            self._check("prime", "bullet", n, seed=11 * n)


class TestBaseCaseRewrites:
    """The degree-3 rewriting identities that seed the span containments:
    a star image (resp. derivative) of a weight -2 monomial is a half-integer
    combination of iterated products of the generators."""

    def test_star_of_xyz_prime(self):
        from fractions import Fraction
        loz = lambda a, b: derived_product("loz", a, b)
        lhs = (x(1) * x(2) * x(3, 1)).star()
        rhs = (loz(loz(x(1), x(3)), x(2)) + loz(loz(x(2), x(3)), x(1))
               - loz(loz(x(1), x(2)), x(3))).scale(Fraction(1, 2))
        assert lhs == rhs

    def test_derivative_of_left_derived_triple(self):
        from fractions import Fraction
        bullet = lambda a, b: derived_product("bullet", a, b)
        lhs = (x(1, 1) * x(2) * x(3)).derive()
        rhs = (bullet(bullet(x(1), x(2)), x(3))
               + bullet(x(2), bullet(x(1), x(3)))
               - bullet(x(1), bullet(x(2), x(3)))).scale(Fraction(1, 2))
        assert lhs == rhs

    def test_derivative_of_right_derived_triple(self):
        from fractions import Fraction
        bullet = lambda a, b: derived_product("bullet", a, b)
        lhs = (x(1) * x(2) * x(3, 1)).derive()
        rhs = (bullet(x(2), bullet(x(1), x(3)))
               + bullet(x(1), bullet(x(2), x(3)))
               - bullet(bullet(x(1), x(2)), x(3))).scale(Fraction(1, 2))
        assert lhs == rhs


class TestVerifyDimension:
    def test_degree3_star(self):
        r = verify_dimension(3, "star")[-1]
        assert r.ok and r.dim == 3

    def test_degree4_prime(self):
        r = verify_dimension(4, "prime")[-1]
        assert r.ok and r.dim == 40

    def test_degree2_star(self):
        r = verify_dimension(2, "star")[-1]
        assert r.ok and r.dim == 1

    def test_formula_values(self):
        assert [dimension_formula(n, "star") for n in range(2, 7)] == \
            [1, 3, 10, 35, 126]
        assert [dimension_formula(n, "prime") for n in range(2, 6)] == \
            [2, 9, 40, 175]

    def test_one_report_per_degree(self):
        reports = verify_dimension(6, "star")
        assert [r.n for r in reports] == [2, 3, 4, 5, 6]
        assert all(r.ok for r in reports)
        assert [r.dim for r in reports] == [1, 3, 10, 35, 126]

    def test_failure_is_reported_from_its_degree_up(self, monkeypatch):
        # modulo 2 the rank of degree 3 falls short (see
        # ``test_modular_shortfall_falls_back``); no degree above is proved
        monkeypatch.setattr(spans, "MODULUS", 2)
        first, *rest = verify_dimension(5, "prime")
        assert (first.n, first.ok, first.failed) == (2, True, None)
        assert [(r.n, r.ok, r.dim, r.failed) for r in rest] == [
            (k, False, None, "degree 3: rank") for k in (3, 4, 5)]

    def test_record_shape(self):
        rec = verify_dimension(2, "prime")[-1].record()
        assert rec == {"n": 2, "variant": "prime", "formula": 2,
                       "rank_closure": 2, "rank_S": 2, "ok": True}


class TestVerifyDimensionWitnesses:
    """A broken comparison family fails the proof at a named check; the
    exact path finds witnesses on the side it breaks."""

    def test_dropped_family_element(self, monkeypatch):
        break_family(monkeypatch, lambda k, family: family[1:])
        r = spans.verify_dimension(4, "star")[-1]
        assert not r.ok and r.dim is None
        assert r.failed == "degree 2: check 2"
        exact = exact_report(4, "star")
        assert exact.rank_S == exact.size_S == 9 and exact.rank_closure == 10
        assert exact.missing_from_S and not exact.missing_from_closure

    def test_family_element_outside_closure(self, monkeypatch):
        stray = x(1) * x(2) * x(3)
        break_family(monkeypatch, lambda k, family: family + [stray])
        r = spans.verify_dimension(3, "prime")[-1]
        assert not r.ok and r.failed == "degree 2: check 2"
        exact = exact_report(3, "prime")
        assert exact.missing_from_closure == ["x1 x2 x3"]
        assert not exact.missing_from_S


@dataclass
class ExactReport:
    formula: int
    rank_closure: int
    rank_S: int
    size_S: int
    missing_from_closure: list
    missing_from_S: list

    @property
    def ok(self):
        return (self.rank_closure == self.rank_S == self.size_S == self.formula
                and not self.missing_from_closure and not self.missing_from_S)


def exact_report(n, variant):
    """The exact path: the saturated closure, the eliminated family and
    both containment sweeps; the oracle for the coordinate proof."""
    closure = generate_closure(spans._variant_tag(variant), n)
    closure_basis = span_basis(closure)
    family = spans.generate_S(n, variant)
    family_basis = span_basis(family)
    return ExactReport(
        formula=dimension_formula(n, variant),
        rank_closure=closure_basis.rank, rank_S=family_basis.rank,
        size_S=len(family),
        missing_from_closure=[format_poly(p) for p in family
                              if not closure_basis.contains(p)],
        missing_from_S=[format_poly(p) for p in closure
                        if not family_basis.contains(p)])


def coordinate_proof(n, variant):
    """The proof's outcome in degree n: the family, decoded into
    polynomials, or the failure that ended it."""
    try:
        *_, family = spans._proved(n, variant == "star")
    except spans._Failed as e:
        return str(e)
    return decode(family)


def assert_fails(n, variant, failed):
    """The proof and the report both name ``failed``, and no dimension is
    claimed."""
    assert coordinate_proof(n, variant) == failed
    r = verify_dimension(n, variant)[-1]
    assert (r.ok, r.dim, r.failed) == (False, None, failed)
    assert r.record()["failed"] == failed


def counting(rank_of, log):
    """``rank_of``, logging for each call its rank and the rows it read."""
    def counted(rows, stop=None):
        read = []
        got = rank_of((read.append(row) or row for row in rows), stop)
        log.append((got, len(read)))
        return got
    return counted


class TestPivotOrder:
    @pytest.mark.parametrize("variant", ["star", "prime"])
    def test_same_reports_as_smallest_column_pivots(self, monkeypatch,
                                                    variant):
        # the rank after each row does not depend on the pivot order, and
        # here neither prime loses rank, so both read the same rows and
        # give the same reports
        runs = []
        for rank_of in (modular_rank, smallest_pivot_rank):
            log = []
            monkeypatch.setattr(spans, "modular_rank", counting(rank_of, log))
            records = [r.record() for r in verify_dimension(6, variant)]
            runs.append((log, records))
        assert runs[0] == runs[1]
        log, records = runs[0]
        assert len(log) == 5 and all(r["ok"] for r in records)


class TestCoordinateProof:
    """The coordinate proof gives the dimension of the exact path, and
    names the check that fails whenever one of its steps fails."""

    @pytest.mark.parametrize("variant,n", [("star", n) for n in range(2, 7)]
                             + [("prime", n) for n in range(2, 6)])
    def test_matches_exact_path(self, variant, n):
        assert coordinate_proof(n, variant) == generate_S(n, variant)
        r = verify_dimension(n, variant)[-1]
        exact = exact_report(n, variant)
        assert r.ok and exact.ok
        assert r.dim == exact.rank_closure == exact.rank_S

    @pytest.mark.parametrize("variant,n", [("star", 4), ("prime", 3)])
    def test_modular_shortfall_falls_back(self, monkeypatch, variant, n):
        # modulo 2 the half-integer rewrites of degree 3 are lost, so the
        # proof falls short of the dimension the exact path finds
        monkeypatch.setattr(spans, "MODULUS", 2)
        assert_fails(n, variant, "degree 3: rank")
        assert exact_report(n, variant).ok

    @pytest.mark.parametrize("variant,n,broken", [
        (variant, n, broken)
        for variant, n in [("star", 2), ("star", 4), ("prime", 2),
                           ("prime", 3)]
        for broken in ("repeated", "dropped")]
        + [("star", 4, "copied"), ("prime", 2, "copied"),
           ("prime", 3, "copied")])
    def test_broken_family_falls_back(self, monkeypatch, variant, n, broken):
        # broken in degree n only: the lower degrees are proved as usual; a
        # repeated or dropped element changes the size (check 2), a copy of
        # another in place of an element repeats a lead (check 3)
        how, check = {"repeated": (lambda f: f + f[:1], 2),
                      "dropped": (lambda f: f[1:], 2),
                      "copied": (lambda f: f[:-1] + f[:1], 3)}[broken]
        break_family(monkeypatch, lambda k, family: (
            how(family) if k == n else family))
        assert_fails(n, variant, f"degree {n}: check {check}")
        exact = exact_report(n, variant)
        assert not exact.ok and exact.rank_closure == exact.formula
        assert exact.size_S == len(spans.generate_S(n, variant))
        assert bool(exact.missing_from_S) == (broken != "repeated")
        assert not exact.missing_from_closure

    @pytest.mark.parametrize("variant,n", [("star", 7), ("prime", 6)])
    def test_closes_beyond_the_exact_path(self, variant, n):
        assert coordinate_proof(n, variant) == generate_S(n, variant)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_star_is_derivative_on_the_star_family(self, k):
        # the lemma behind a⧫b = (ab)* for the operands of degree k
        assert all(s.star() == s.derive() for s in generate_S(k, "star"))

    @pytest.mark.parametrize("n,level", [(3, 2), (4, 2), (4, 3)])
    def test_family_breaking_the_lemma_falls_back(self, monkeypatch, n,
                                                  level):
        # the family of ``level`` passes its checks and is proved; then its
        # first element gives way to the coded prime element d(u) of the
        # same degree, multilinear and of weight -1 (check 1 holds) but with
        # d(u)* != d(u)', so s* = s' fails for the operands of the next level
        real = spans._level

        def swapped(k, star, coded):
            family = real(k, star, coded)
            if k == level:
                family = spans._family(k, False)[1][:1] + family[1:]
            return family

        monkeypatch.setattr(spans, "_level", swapped)
        assert coordinate_proof(level, "star") == \
            generate_S(level, "prime")[:1] + generate_S(level, "star")[1:]
        assert_fails(n, "star", f"degree {level + 1}: check 5")
        assert exact_report(n, "star").ok

    @pytest.mark.parametrize("variant,n", [("star", 3), ("star", 5),
                                           ("prime", 2), ("prime", 4)])
    def test_element_with_a_term_reweighted_falls_back(self, monkeypatch,
                                                       variant, n):
        # a term below the lead of the first element is doubled: the same
        # terms, the same size and leads, but no multiple of an image
        def broken(k, family):
            if k != n:
                return family
            p = family[0]
            lead = leads([p])[0]
            m = next(m for m in p.terms if m != lead)
            return [p + DiffPermPoly(CTX_Q, {m: p.terms[m]})] + family[1:]

        break_family(monkeypatch, broken)
        assert_fails(n, variant, f"degree {n}: check 4")

    @pytest.mark.parametrize("variant", ["star", "prime"])
    @pytest.mark.parametrize("how", ["zeroed", "repeated"])
    def test_coded_element_no_polynomial_keeps_falls_back(
            self, monkeypatch, variant, how):
        # coded, an element may carry zero coefficients, or a term twice,
        # which no polynomial keeps: it is then no nonzero multiple of an
        # image, though it has an image's terms
        real = spans._family

        def broken(k, star):
            units, family = real(k, star)
            if k == 3:
                p = family[0]
                p = ([(d, last, 0) for d, last, _ in p] if how == "zeroed"
                     else p + p[:1])
                family = [p] + family[1:]
            return units, family

        monkeypatch.setattr(spans, "_family", broken)
        assert_fails(4, variant, "degree 3: check 4")

    @pytest.mark.parametrize("added", ["stray", "partner"])
    @pytest.mark.parametrize("variant,n", [("star", 3), ("star", 5),
                                           ("prime", 2), ("prime", 4)])
    def test_element_not_an_image_of_its_lead_falls_back(
            self, monkeypatch, variant, n, added):
        # the element with the greatest lead gets a term below that lead:
        # a monomial outside the closure, or another element of the family,
        # which keeps the span; the size and the distinct leads stay
        def broken(k, family):
            if k != n:
                return family
            lead = leads(family)
            top = max(range(len(family)), key=lambda i: lead_order(lead[i]))
            extra = family[top - 1]
            if added == "stray":
                extra = x(1)
                for i in range(2, n + 1):
                    extra = extra * x(i)
            return family[:top] + [family[top] + extra] + family[top + 1:]

        break_family(monkeypatch, broken)
        assert leads(spans.generate_S(n, variant)) is not None
        assert_fails(n, variant, f"degree {n}: check 4")
        exact = exact_report(n, variant)
        assert exact.ok == (added == "partner")
        assert bool(exact.missing_from_closure) == (added == "stray")

    @pytest.mark.parametrize("variant,n", [("star", 3), ("star", 4),
                                           ("prime", 3)])
    def test_image_of_a_non_column_falls_back(self, monkeypatch, variant, n):
        # the first element gives way to d(u), resp. star(u), for u =
        # x1^(n-1) x2 ... xn, of weight -1, not a column: the size and the
        # distinct leads stay, and u, the lead with the last digit lowered,
        # is no column
        u = x(1, n - 1)
        for i in range(2, n + 1):
            u = u * x(i)
        image = u.star() if variant == "star" else u.derive()
        break_family(monkeypatch, lambda k, family: (
            [image] + family[1:] if k == n else family))
        assert_fails(n, variant, f"degree {n}: check 4")
        exact = exact_report(n, variant)
        assert exact.missing_from_closure == [format_poly(image)]

    @pytest.mark.parametrize("scale", [Fraction(1, 3), 3])
    @pytest.mark.parametrize("variant,n", [("star", 5), ("prime", 4)])
    def test_scaled_family_element(self, monkeypatch, variant, n, scale):
        # scaled by 3, the element's coordinates have denominator 3
        break_family(monkeypatch, lambda k, family: [
            family[0].scale(scale)] + family[1:])
        assert coordinate_proof(n, variant) == spans.generate_S(n, variant)
        r = verify_dimension(n, variant)[-1]
        exact = exact_report(n, variant)
        assert r.ok and exact.ok and r.dim == exact.rank_closure


def code_of(m, k):
    """The (digits, last variable) of the monomial m on x1..xk."""
    (digits, last, _), = encode([DiffPermPoly(CTX_Q, {m: 1})], k)[0]
    return digits, last


class TestCodedFamily:
    """The fast path against the slow one: the coded family and the closed
    forms of checks 4 and 5 against ``generate_S``, ``DiffPermPoly.derive``
    and ``DiffPermPoly.star``."""

    @pytest.mark.parametrize("variant,k", [(variant, k) for k in range(2, 8)
                                           for variant in ("star", "prime")])
    def test_decoded_family_is_generate_S(self, variant, k):
        # the same elements in the same order, each with its terms in the
        # same order; the columns are the weight -2 monomials in order, for
        # star the first of each factor multiset
        units, family = spans._family(k, variant == "star")
        assert [list(p.terms.items()) for p in decode(family)] == \
            [list(p.terms.items()) for p in generate_S(k, variant)]
        monos = [code_of(m, k) for m in weight_minus2_monomials(k)]
        if variant == "star":
            firsts = {}
            for digits, last in monos:
                firsts.setdefault(digits, last)
            monos = list(firsts.items())
            assert {last for _, last in monos} == {1}
        assert units == monos

    @pytest.mark.parametrize("k", range(2, 8))
    def test_closed_forms_on_every_column(self, k):
        # the image of check 4 is d(u), resp. star(u), term for term and in
        # order, scaled; check 5 refuses u itself, since u* != u'
        for m in weight_minus2_monomials(k):
            u = DiffPermPoly(CTX_Q, {m: 1})
            digits, last = code_of(m, k)
            for star, image in ((True, u.star()), (False, u.derive())):
                got, = decode([spans._image(digits, last, star, -3)])
                assert list(got.terms.items()) == \
                    list(image.scale(-3).terms.items())
            assert u.star() != u.derive()
            assert not spans._star_is_derivative(encode([u], k)[0])

    @pytest.mark.parametrize("k", range(2, 8))
    def test_check_5_agrees_with_the_polynomials(self, k):
        # s* = s' on every star element; the prime family is refused
        # element by element, the negative control
        for variant in ("star", "prime"):
            coded = spans._family(k, variant == "star")[1]
            for s, p in zip(coded, generate_S(k, variant)):
                holds = p.star() == p.derive()
                assert holds == (variant == "star")
                assert spans._star_is_derivative(s) == holds

    def test_check_1_refuses_a_digit_at_the_radix(self, monkeypatch):
        # the codes of degree k are in base k, and a digit k beside positive
        # ones breaks the weight: the operand x1'' x2 of degree 3 is
        # refused, while x1'' x2 x3, digits 3, 1, 1, passes in degree 4,
        # where the prime level, which ranks nothing, returns its family
        refuse_rank(monkeypatch)
        coded = {1: spans._X1, 2: encode([x(1, 2) * x(2)], 2)}
        assert coded[2] == [[((3, 1), 2, 1)]]
        for star in (True, False):
            with pytest.raises(spans._Failed, match="^degree 3: check 1$"):
                spans._level(3, star, coded)
        coded[3] = encode([x(2) * x(3) * x(1, 2)], 3)
        assert spans._level(4, False, coded) == spans._family(4, False)[1]


def on(families, subset):
    """The polynomial family of degree len(subset), x1 for 1, moved onto
    ``subset`` by x_i -> x_subset[i-1]; ``families[j]`` is the family of
    degree j."""
    images = {i: x(v) for i, v in enumerate(subset, 1)}
    return [apply_substitution(p, images) for p in families[len(subset)]]


def slow_rows(k, variant, families):
    """Every product row of degree k, stage by stage, each from the
    polynomial product a * b of the ``families`` (see ``on``) through the
    map from monomials to columns: the reference for the coded rows of
    ``spans._level``."""
    tag = spans._variant_tag(variant)
    column = (lambda m: tuple(sorted(m.factors))) if variant == "star" \
        else (lambda m: m)
    cols, ids = {}, {}
    for m in weight_minus2_monomials(k):
        cols[m] = ids.setdefault(column(m), len(ids))
    out = []
    for smaller in range(1, k // 2 + 1):
        for left, right in spans._splits(k, tag, smaller):
            for a in on(families, left):
                for b in on(families, right):
                    row = {}
                    for m, c in (a * b).terms.items():
                        row[cols[m]] = row.get(cols[m], 0) + c
                    out.append({col: c for col, c in row.items() if c})
    return out


def ranked_rows(monkeypatch, n, variant):
    """Every product row of each degree 2..n, as lists of items: for star
    the rows the proof gives the rank, for prime, whose proof ranks no
    prime row, the oracle's ``prime_rows``."""
    log = []
    monkeypatch.setattr(spans, "modular_rank", every_row(log))
    assert all(r.ok for r in verify_dimension(n, variant))
    if variant == "prime":
        log = [[list(row.items()) for row in prime_rows(k)]
               for k in range(2, n + 1)]
    return log


def refuse_rank(monkeypatch):
    """Fail the test if the proof calls the rank: a check must refuse the
    operands before any row is read."""
    def ranked(rows, stop=None):
        raise AssertionError("the rank was called")
    monkeypatch.setattr(spans, "modular_rank", ranked)


def every_row(log):
    """``modular_rank`` that reads every row it is given, past the rank it
    stops at, and logs them as lists of items."""
    def ranked(rows, stop=None):
        rows = list(rows)
        log.append([list(row.items()) for row in rows])
        return modular_rank(rows, stop)
    return ranked


class TestStagedRows:
    """The proof reads product rows in stages and builds each row as the rank
    reads it, so it builds only the rows the rank needs; the grading check
    (check 1) stands in for the rows it never builds."""

    @pytest.mark.parametrize("variant,n", [("star", 6), ("prime", 5)])
    def test_every_product_row_lies_in_the_columns(self, variant, n):
        # the check the grading check replaced, with every row built: each
        # monomial of each product is a weight -2 monomial on x1..xk; the
        # stages by the smaller side's size are all the splits
        tag = spans._variant_tag(variant)
        families = [[], [x(1)]]
        for k in range(2, n + 1):
            cols = set(weight_minus2_monomials(k))
            splits = list(spans._splits(k, tag))
            staged = [split for smaller in range(1, k // 2 + 1)
                      for split in spans._splits(k, tag, smaller)]
            assert sorted(staged) == sorted(splits)
            for left, right in splits:
                for a in on(families, left):
                    for b in on(families, right):
                        assert set((a * b).terms) <= cols, (k, a, b)
            families.append(generate_S(k, variant))

    @pytest.mark.parametrize("variant,n", [("star", 6), ("prime", 6)])
    def test_coded_rows_are_the_product_rows(self, monkeypatch, variant, n):
        # the fast path against the slow one: each row summed from codes is
        # the row of the polynomial product, entry for entry and in the
        # same order, and so is the order of the rows
        log = ranked_rows(monkeypatch, n, variant)
        families = [[], [x(1)]]
        for k, coded in zip(range(2, n + 1), log):
            assert coded == [list(row.items())
                             for row in slow_rows(k, variant, families)], k
            families.append(generate_S(k, variant))

    @pytest.mark.parametrize("variant", ["star", "prime"])
    def test_rows_of_a_stage_have_one_length(self, monkeypatch, variant):
        # each operand of degree j has j terms, each with its own code and
        # coefficient 1, and operands on complementary variables have
        # distinct product codes: every row of stage s in degree k has
        # s (k - s) entries, each 1, so no order by length could move a row
        log = ranked_rows(monkeypatch, 7, variant)
        tag = spans._variant_tag(variant)
        size = [0, 1] + [dimension_formula(j, variant) for j in range(2, 7)]
        for k, rows in zip(range(2, 8), log, strict=True):
            assert [len(row) for row in rows] == [
                s * (k - s) for s in range(1, k // 2 + 1)
                for left, right in spans._splits(k, tag, s)
                for _ in range(size[len(left)] * size[len(right)])], k
            assert {c for row in rows for _, c in row} == {1}, k

    @pytest.mark.parametrize("variant", ["star", "prime"])
    @pytest.mark.parametrize("bad", [
        x(1) * x(1, 1),                     # x1 twice, x2 missing
        x(1),                               # x2 missing
        x(1) * x(3, 1),                     # x3 outside x1, x2
        # an order at the radix 3 of degree 3: of weight -1 only with a
        # negative order beside it, whose digit 0 is off the code too
        DiffPermPoly.monomial([Symbol(2, (-1,)), Symbol(1, (2,))]),
        # of weight -3, but three digits 1 sum as those of a weight -1 term
        # on two variables: only their number refuses them
        x(1) * x(3) * x(2),
    ])
    def test_operand_term_off_the_code_fails_check_1(self, monkeypatch,
                                                     variant, bad):
        # every bad term but the last is of weight -1; in an operand of the
        # degree-3 proof it fails check 1 before any row is read, so none of
        # its codes is taken for a column's
        good = generate_S(2, variant)
        assert digits(good, 2, 3) == encode(good, 2)
        with pytest.raises(spans._Failed, match="^degree 3: check 1$"):
            digits([good[0] + bad], 2, 3)
        coded = {1: spans._X1, 2: encode([good[0] + bad] + good[1:], 2)}
        refuse_rank(monkeypatch)
        with pytest.raises(spans._Failed, match="^degree 3: check 1$"):
            spans._level(3, variant == "star", coded)

    @pytest.mark.parametrize("variant", ["star", "prime"])
    @pytest.mark.parametrize("bad", [x(1) * x(2), x(1, 1) * x(2, 1)])
    def test_operand_term_of_another_weight_fails_check_1(
            self, monkeypatch, variant, bad):
        # multilinear on x1, x2 with digits below the radix 3, but of
        # weight -2, resp. 0: only the weight refuses it
        good = generate_S(2, variant)
        with pytest.raises(spans._Failed, match="^degree 3: check 1$"):
            digits([good[0] + bad], 2, 3)
        coded = {1: spans._X1, 2: encode([good[0] + bad] + good[1:], 2)}
        refuse_rank(monkeypatch)
        with pytest.raises(spans._Failed, match="^degree 3: check 1$"):
            spans._level(3, variant == "star", coded)

    @pytest.mark.parametrize("last", [0, 3])
    def test_operand_ending_off_its_variables_fails_check_1(self, monkeypatch,
                                                           last):
        # coded, a term may name a last variable it has no digit for, which
        # no polynomial does
        coded = {1: spans._X1, 2: [[((2, 1), last, 1)]]}
        refuse_rank(monkeypatch)
        for star in (True, False):
            with pytest.raises(spans._Failed, match="^degree 3: check 1$"):
                spans._level(3, star, coded)

    def test_digits_below_the_radix(self, monkeypatch):
        # x1' x2 has the digits 2 and 1: below the radix 3 of degree 3, not
        # below a radix of 2; coded, it passes check 1 of degree 3, and the
        # prime level, which ranks nothing, returns its family
        family = [x(1, 1) * x(2)]
        assert digits(family, 2, 3) == [[((2, 1), 2, 1)]]
        with pytest.raises(spans._Failed, match="^degree 3: check 1$"):
            digits(family, 2, 2)
        coded = {1: spans._X1, 2: encode(family, 2)}
        refuse_rank(monkeypatch)
        assert spans._level(3, False, coded) == spans._family(3, False)[1]

    @pytest.mark.parametrize("variant", ["star", "prime"])
    @pytest.mark.parametrize("bad", [
        x(1, 1),                # multilinear, of weight 0
        x(1) * x(1, 1),         # of weight -1, x1 twice
        x(1) + x(1, 2),         # one term of weight -1, one of weight 1
    ])
    def test_grading_check_refuses_a_bad_operand(self, monkeypatch, variant,
                                                 bad):
        # the operand of degree 2 is x1; a hand-built one in its place is
        # refused before any product row is read
        monkeypatch.setattr(spans, "_X1", encode([bad], 1))
        refuse_rank(monkeypatch)
        assert_fails(3, variant, "degree 2: check 1")

    @pytest.mark.parametrize("variant", ["star", "prime"])
    def test_relabelling_that_moves_a_variable_fails_check_1(
            self, monkeypatch, capsys, variant):
        # a product row that is built and has a code off the columns is a
        # failed check, not an internal error; the moved variable keeps its
        # digit, order + 1, so its code does not lose it
        real = spans._moved
        monkeypatch.setattr(spans, "_moved", lambda family, subset, *rest: (
            real(family, subset[:-1] + (subset[-1] + 1,), *rest)))
        assert_fails(4, variant, "degree 2: check 1")
        assert main(["dim", "--variant", variant, "--n", "2..4",
                     "--quiet"]) == 1
        recs = json.loads(capsys.readouterr().out)
        assert [r["failed"] for r in recs] == ["degree 2: check 1"] * 3

    def test_rows_are_built_lazily(self, monkeypatch):
        # the rank reaches |S_k| before it reads every row: it reads the
        # same rows per degree as it did from polynomial products
        families, pairs = [[], [x(1)]], 0
        for k in range(2, 8):
            pairs += sum(len(families[len(left)]) * len(families[len(right)])
                         for left, right in spans._splits(k, "loz"))
            families.append(generate_S(k, "star"))
        log = []
        monkeypatch.setattr(spans, "modular_rank", counting(modular_rank, log))
        assert verify_dimension(7, "star")[-1].ok
        assert log == [(1, 1), (3, 3), (10, 13), (35, 51), (126, 212),
                       (462, 888)]
        assert 0 < sum(read for _, read in log) < pairs


class TestPrimeFromStarRank:
    """The premises of the prime proof, which takes the star rank of each
    degree in place of the rank of the prime rows, against the prime rows
    the proof no longer builds."""

    @pytest.mark.parametrize("k", range(2, 8))
    def test_every_prime_row_has_one_last_variable(self, k):
        # the blocks: each row lies in the columns of one last variable
        units = spans._family(k, False)[0]
        lasts = [{units[col][1] for col in row} for row in prime_rows(k)]
        assert all(len(last) == 1 for last in lasts)
        assert set().union(*lasts) == set(range(1, k + 1))

    def test_pi_maps_block_k_onto_the_star_rows(self, monkeypatch):
        # π forgets the last variable: on the columns ending in xk it is
        # one to one onto the star columns, and the rows of that block go
        # to the star rows, all of them and nothing else
        log = ranked_rows(monkeypatch, 7, "star")
        for k, star_rows in zip(range(2, 8), log, strict=True):
            star_col = {ds: col for col, (ds, _)
                        in enumerate(spans._family(k, True)[0])}
            pi = {col: star_col[ds] for col, (ds, last)
                  in enumerate(spans._family(k, False)[0]) if last == k}
            assert sorted(pi.values()) == list(range(len(star_col)))
            block = {frozenset((pi[col], c) for col, c in row.items())
                     for row in prime_rows(k) if min(row) in pi}
            assert block == {frozenset(row) for row in star_rows}, k

    @pytest.mark.parametrize("k", range(2, 7))
    def test_full_prime_rank_is_k_times_the_star_rank(self, monkeypatch, k):
        star_rows = ranked_rows(monkeypatch, k, "star")[-1]
        monkeypatch.undo()
        star = modular_rank(dict(row) for row in star_rows)
        assert star == dimension_formula(k, "star")
        assert prime_rank(k) == k * star == dimension_formula(k, "prime")

    def test_prime_element_with_two_last_variables_fails_check_4(
            self, monkeypatch):
        # the first prime element of degree 4 has its first term's last
        # variable moved from x1 to x2: its lead and the star families are
        # unchanged, so only the prime checks can refuse it, and check 4,
        # which keeps every prime element in one block, does
        real = spans._family

        def broken(k, star):
            units, family = real(k, star)
            if k == 4 and not star:
                (ds, last, c), *rest = family[0]
                assert (ds, last) == ((1, 2, 1, 3), 1)
                family = [[(ds, 2, c), *rest]] + family[1:]
            return units, family

        monkeypatch.setattr(spans, "_family", broken)
        assert_fails(4, "prime", "degree 4: check 4")
        assert verify_dimension(5, "prime")[1].ok
        assert all(r.ok for r in verify_dimension(5, "star"))

    def test_star_family_dropping_an_element_fails_the_prime_degree(
            self, monkeypatch):
        # the prime family of degree 3 is whole and passes checks 1-4, but
        # the star level of degree 3, whose rank the prime proof takes,
        # fails its check 2, and so does the prime degree
        real = spans._family

        def broken(k, star):
            units, family = real(k, star)
            return units, family[1:] if star and k == 3 else family

        monkeypatch.setattr(spans, "_family", broken)
        assert_fails(4, "prime", "degree 3: check 2")
        assert verify_dimension(2, "prime")[0].ok

    def test_prime_checks_come_before_the_star_level(self, monkeypatch):
        # in a prime degree, checks 1-4 on the prime family come before the
        # star level of that degree: the prime family of degree 3 lacks an
        # element and, modulo 2, the star rank of degree 3 falls short, and
        # the prime degree names its own check 2
        real = spans._family

        def broken(k, star):
            units, family = real(k, star)
            return units, family if star or k != 3 else family[1:]

        monkeypatch.setattr(spans, "_family", broken)
        monkeypatch.setattr(spans, "MODULUS", 2)
        assert_fails(4, "star", "degree 3: rank")
        assert_fails(4, "prime", "degree 3: check 2")
