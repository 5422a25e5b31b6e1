import itertools
import types
from fractions import Fraction

import pytest

from oracles import witt_prec
from perm_tensor import PermTensorElem, euler_derivation, perm_product
from permdiff import witt
from permdiff.algebra import BRACKETS, AlgebraError
from permdiff.exprs import run_suite
from permdiff.witt import (
    WittElement,
    leibniz_bracket,
    lie_bracket,
    structure_table,
    verify_tables,
)


def T(n, e, a):
    return PermTensorElem.basis(n, e, a)


def E(n, e, a, i):
    return WittElement.basis(n, e, a, i)


def tensor_box(n, bound):
    exps = itertools.product(range(bound + 1), repeat=n)
    return [T(n, e, a) for e in exps for a in range(1, n + 1)]


def witt_box(n, bound):
    exps = itertools.product(range(bound + 1), repeat=n)
    return [E(n, e, a, i) for e in exps
            for a in range(1, n + 1) for i in range(1, n + 1)]


class TestPermProduct:
    def test_basis_rule(self):
        got = perm_product(T(2, (0, 0), 1), T(2, (0, 0), 2))
        assert got == T(2, (1, 0), 2)

    def test_associativity_spot(self):
        a = perm_product(T(3, (1, 0, 0), 1), T(3, (0, 0, 0), 2))
        lhs = perm_product(a, T(3, (0, 0, 0), 3))
        rhs = perm_product(T(3, (1, 0, 0), 1),
                           perm_product(T(3, (0, 0, 0), 2), T(3, (0, 0, 0), 3)))
        assert lhs == rhs

    def test_perm_law_and_associativity_exhaustive(self):
        box = tensor_box(2, 2)
        for a, b, c in itertools.product(box, repeat=3):
            ab_c = perm_product(perm_product(a, b), c)
            assert ab_c == perm_product(perm_product(b, a), c)
            assert ab_c == perm_product(a, perm_product(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(AlgebraError):
            perm_product(T(1, (0,), 1), T(2, (0, 0), 1))


class TestEulerDerivation:
    def test_x_direction_scaling(self):
        # D_x multiplies the x-direction basis element by m + 1
        assert euler_derivation(1, T(2, (2, 3), 1)) == T(2, (2, 3), 1).scale(3)

    def test_y_direction_scaling(self):
        assert euler_derivation(1, T(2, (2, 3), 2)) == T(2, (2, 3), 2).scale(2)

    def test_kills_constant_cross_direction(self):
        assert euler_derivation(2, T(2, (0, 0), 1)).is_zero()

    def test_leibniz_rule_exhaustive(self):
        box = tensor_box(2, 3)
        for i in (1, 2):
            for a, b in itertools.product(box, repeat=2):
                lhs = euler_derivation(i, perm_product(a, b))
                rhs = (perm_product(euler_derivation(i, a), b)
                       + perm_product(a, euler_derivation(i, b)))
                assert lhs == rhs

    def test_derivations_commute_exhaustive(self):
        for a in tensor_box(2, 3):
            for i, j in itertools.product((1, 2), repeat=2):
                assert euler_derivation(i, euler_derivation(j, a)) == \
                    euler_derivation(j, euler_derivation(i, a))

    def test_index_out_of_range(self):
        with pytest.raises(AlgebraError):
            euler_derivation(3, T(2, (0, 0), 1))


class TestLieBracket:
    def test_rank_one_rule(self):
        # [E_m, E_p] = (p - m) E_{m+p+1}
        for m in range(4):
            for p in range(4):
                got = lie_bracket(E(1, (m,), 1, 1), E(1, (p,), 1, 1))
                want = E(1, (m + p + 1,), 1, 1).scale(p - m)
                assert got == want

    def test_rank_two_block_entry(self):
        got = lie_bracket(E(2, (0, 0), 1, 1), E(2, (1, 0), 1, 1))
        assert got == E(2, (2, 0), 1, 1)

    def test_square_is_zero(self):
        v = E(2, (1, 2), 1, 2) + E(2, (0, 1), 2, 1).scale(3)
        assert lie_bracket(v, v).is_zero()


class TestLeibnizBracket:
    def test_block_a_first_entry(self):
        got = leibniz_bracket(E(2, (1, 0), 1, 1), E(2, (0, 0), 1, 1))
        assert got == E(2, (2, 0), 1, 1)

    def test_block_a_mixed_entry(self):
        got = leibniz_bracket(E(2, (0, 0), 1, 1), E(2, (0, 0), 1, 2))
        assert got == E(2, (1, 0), 1, 2).scale(-1)

    def test_square_on_basis_is_zero_but_not_in_general(self):
        assert leibniz_bracket(E(2, (1, 0), 1, 1), E(2, (1, 0), 1, 1)).is_zero()
        v = E(2, (1, 0), 1, 2) + E(2, (0, 0), 2, 1)
        sq = leibniz_bracket(v, v)
        assert not sq.is_zero()


class TestBasis:
    @pytest.mark.parametrize("n, e", [
        (1, (-1,)),                   # x^-1
        (2, (True, 0)),               # a bool is not an exponent
        (2, (0, 1.0)),
        (2, (0, Fraction(1))),
        (2, (0,)),                    # one exponent short
    ])
    def test_exponents_are_ints_at_least_zero(self, n, e):
        with pytest.raises(AlgebraError, match="bad Witt basis data"):
            WittElement.basis(n, e, 1, 1)

    @pytest.mark.parametrize("alpha, i", [(True, 1), (1, 2.0), (0, 1)])
    def test_slots_are_ints_in_1_to_n(self, alpha, i):
        with pytest.raises(AlgebraError, match="bad Witt basis data"):
            WittElement.basis(2, (0, 0), alpha, i)

    def test_good_data_is_kept(self):
        assert E(2, [0, 3], 2, 1).terms == {witt.WBasis((0, 3), 2, 1): 1}


class TestKernelRules:
    """Each bracket is its kernel's rule data, evaluated; here it is
    compared with the per-point loop the brackets ran before."""

    @pytest.mark.parametrize("n, bound", [(1, 3), (2, 3), (3, 1)])
    @pytest.mark.parametrize("kind, bracket", [
        ("prec", witt_prec), ("lie", lie_bracket),
        ("leibniz", leibniz_bracket)])
    def test_kernel_matches_the_per_point_loop(self, n, bound, kind, bracket):
        box = witt_box(n, bound)
        for v, w in itertools.product(box, repeat=2):
            assert bracket(v, w).terms == _point_bracket(kind, v, w).terms
        u = box[1] + box[-1].scale(Fraction(-2, 3))
        assert bracket(u, u + box[2]) == _point_bracket(kind, u, u + box[2])

    @pytest.mark.parametrize("n, kind", [
        (1, "lie"), (1, "leibniz"), (2, "lie"), (2, "leibniz")])
    def test_table_entries_match_the_per_point_loop(self, n, kind):
        # every point of the boxes at bounds 0..3: the closed-form rows
        # against the kernel rule at that point and the per-point loop
        for bound in range(4):
            entries = list(structure_table(n, kind, bound)["entries"])
            assert len(entries) == (len(witt.table_patterns(n, kind))
                                    * (bound + 1) ** (2 * n))
            for left, right, result in entries:
                rule = witt._kernel(kind, n, left[1:], right[1:])
                want = _point_bracket(kind, E(n, *left), E(n, *right))
                assert result == sorted(want.terms.items()) \
                    == sorted(rule.expected_terms(left.e, right.e).items())
                assert all(type(c) is int and c for _, c in result)

    def test_verify_tables_reads_the_kernel_rules(self):
        for n, rule in _all_rules():
            kernel = witt._kernel(rule.table, n, rule.left, rule.right)
            assert kernel.forms == rule.forms
            assert kernel is witt._kernel(rule.table, n, rule.left, rule.right)

    def test_largest_cli_bound_compares_data(self):
        ver = verify_tables(witt.MAX_TABLE_BOUND)
        assert ver.ok and ver.total_checks == 914121
        assert verify_tables(10 ** 6).total_checks == (
            (10 ** 6 + 1) ** 2 + 32 * (10 ** 6 + 1) ** 4)

    @pytest.mark.parametrize("attr", ["W1_RULES", "W2_LIE_RULES",
                                      "W2_LEIBNIZ_RULES"])
    @pytest.mark.parametrize("at", [1, -1])
    def test_rule_off_in_a_linear_coefficient(self, monkeypatch, attr, at):
        # the constant terms agree, so the one point of the box at bound 0
        # cannot tell; at bound 1 the mismatches are the per-point loop's
        rules = getattr(witt, attr)
        bad = _off_by_one(rules[0], at)
        monkeypatch.setattr(witt, attr, (bad,) + rules[1:])
        ver = verify_tables(0)
        assert ver.ok and ver.total_checks == 33
        chk = next(r for r in verify_tables(1).rules
                   if (r.table, r.block) == (bad.table, bad.block))
        n = bad.n
        box = list(itertools.product(range(2), repeat=n))
        slow = []
        for e1, e2 in itertools.product(box, box):
            got = _point_bracket(bad.table, E(n, e1, *bad.left),
                                 E(n, e2, *bad.right))
            want = _expected(bad, e1, e2)
            if got != want:
                slow.append({"at": [*e1, *e2],
                             "computed": witt._format_witt(got.terms, n),
                             "expected": witt._format_witt(want.terms, n)})
        assert chk.checked == 2 ** (2 * n) and slow
        assert chk.mismatches == slow


def _units(k):
    """The zero point and the k unit points of Z^k: an affine function of k
    variables that vanishes there vanishes everywhere."""
    return [tuple(int(m == d) for m in range(k)) for d in range(-1, k)]


def _perm_algebra_failures(n):
    """(law, exponents, slots) wherever P_n is not a perm algebra with
    commuting derivations D_1..D_n."""
    slots, bad = range(1, n + 1), []
    # perm law and associativity: each side of a basis triple is x^(e + f +
    # g + s) (x) x_gamma with coefficient 1, s fixed by the slots, so the
    # zero and unit points decide
    for p, sl in itertools.product(_units(3 * n),
                                   itertools.product(slots, repeat=3)):
        a, b, c = (T(n, p[k * n:k * n + n], s) for k, s in enumerate(sl))
        ab_c = perm_product(perm_product(a, b), c)
        if not (ab_c == perm_product(perm_product(b, a), c)
                == perm_product(a, perm_product(b, c))):
            bad.append(("perm", p, sl))
    # D_i(ab) = D_i(a) b + a D_i(b): both sides are x^(e + f + unit(alpha))
    # (x) x_beta times a coefficient affine in (e, f), as D_i scales x^e (x)
    # x_alpha by e_i + [alpha = i]
    for p, (i, alpha, beta) in itertools.product(
            _units(2 * n), itertools.product(slots, repeat=3)):
        a, b = T(n, p[:n], alpha), T(n, p[n:], beta)
        if euler_derivation(i, perm_product(a, b)) != (
                perm_product(euler_derivation(i, a), b)
                + perm_product(a, euler_derivation(i, b))):
            bad.append(("derivation", p, (i, alpha, beta)))
    # D_i D_j = D_j D_i for i < j: both scale x^e (x) x_alpha by (e_i +
    # [alpha = i]) (e_j + [alpha = j]), of degree at most 1 in each
    # exponent, so the box {0, 1}^n decides
    for e, alpha, (i, j) in itertools.product(
            itertools.product(range(2), repeat=n), slots,
            itertools.combinations(slots, 2)):
        a = T(n, e, alpha)
        if euler_derivation(i, euler_derivation(j, a)) != \
                euler_derivation(j, euler_derivation(i, a)):
            bad.append(("commute", e, (alpha, i, j)))
    return bad


def _defined(kind, n, e1, left, e2, right):
    """The bracket ``kind`` of (x^e1 (x) x_alpha) D_i and (x^e2 (x) x_beta)
    D_j in P_n, from its summands in ``BRACKETS`` read as suites g and h
    read them."""
    (alpha, i), (beta, j) = left, right
    a, b = T(n, e1, alpha), T(n, e2, beta)
    terms = {}
    for sign, v_left, v_derived in BRACKETS[kind]:
        u, t = ((euler_derivation(j, a), b) if v_derived
                else (a, euler_derivation(i, b)))
        prod = perm_product(u, t) if v_left else perm_product(t, u)
        for (e, gamma), c in prod.terms.items():
            key = witt.WBasis(e, gamma, i if v_derived else j)
            terms[key] = terms.get(key, 0) + sign * c
    return WittElement(n, terms)


def _kernel_mismatches(n):
    """(kind, left, right, exponents) wherever the bracket ``kind`` of
    ``witt`` differs from ``_defined`` on P_n."""
    slots = list(itertools.product(range(1, n + 1), repeat=2))
    # target (d, gamma, k) of either side reaches x^(e1 + e2 + unit(d)) (x)
    # x_gamma D_k, so distinct targets reach distinct basis elements; its
    # coefficient is the kernel's summed forms, or a sum of signed Euler
    # scales, affine in (e1, e2) both; so the zero and unit points decide
    return [(kind, left, right, p)
            for kind, left, right in itertools.product(BRACKETS, slots, slots)
            for p in _units(2 * n)
            if witt._bracket(kind, E(n, p[:n], *left), E(n, p[n:], *right))
            != _defined(kind, n, p[:n], left, p[n:], right)]


class TestFusedFormulasMatchTheDefinition:
    """The brackets are computed by fused coefficient rules; here each one is
    rebuilt from ``perm_product`` and ``euler_derivation`` on every basis
    pair, 16 for n=1 (exponents up to 3) and 1296 for n=2 (up to 2)."""

    @staticmethod
    def _slot(t, i):
        """The tensor element t placed in derivation slot i: t D_i."""
        return WittElement(t.n, {witt.WBasis(e, alpha, i): c
                                 for (e, alpha), c in t.terms.items()})

    def test_brackets_are_built_from_the_perm_product_and_derivations(self):
        pairs = 0
        for n, bound in ((1, 3), (2, 2)):
            box = witt_box(n, bound)
            for v, w in itertools.product(box, repeat=2):
                (e, alpha, i), = v.terms
                (f, beta, j), = w.terms
                a, b = T(n, e, alpha), T(n, f, beta)
                a_dib = self._slot(perm_product(a, euler_derivation(i, b)), j)
                dja_b = self._slot(perm_product(euler_derivation(j, a), b), i)
                b_dja = self._slot(perm_product(b, euler_derivation(j, a)), i)
                assert witt_prec(v, w) == a_dib
                assert leibniz_bracket(v, w) == dja_b - a_dib
                assert lie_bracket(v, w) == a_dib - b_dja
                pairs += 1
        assert pairs == 1312


class TestWittLawsForEveryN:
    """Left Leibniz and the symmetry of the pre-Lie associator hold in the
    Witt algebra over P_n for every n, and so Jacobi does.

    Suites g and h check both laws, with the brackets read from
    ``BRACKETS``, for vector fields a D_1, b D_2, c D_3 (and the other 26
    index triples) over the free differential perm algebra with three
    commuting derivations and free generators a, b, c.  If P_n is a perm
    algebra with commuting derivations, that algebra has a homomorphism to
    P_n sending a, b, c to any u, v, w and D_1, D_2, D_3 to any D_i, D_j,
    D_k.  If the Witt kernel is the ``BRACKETS`` formula on P_n, it carries
    the laws to u D_i, v D_j, w D_k: they hold on every basis triple, so,
    trilinear, everywhere.  The Lie bracket is the commutator of prec
    (``test_lie_is_commutator_of_prec``), so Jacobi follows.

    The test checks the suites and, for n = 1..4, both premises: on every
    slot pattern, for prec, lie and leibniz, at the exponents that decide.
    That covers every n: a premise names at most four indices, both sides
    treat the indices alike, and an index it does not name only adds its
    exponents to the target's.
    """

    def test_the_laws_hold_for_every_n(self):
        assert [(r.name, r.verdict.is_identity)
                for sid in "gh" for r in run_suite(sid)] == [
            ("formal-W-leibniz", True), ("formal-W-pre-lie", True)]
        for n in range(1, 5):
            assert _perm_algebra_failures(n) == []
            assert _kernel_mismatches(n) == []

    @pytest.mark.parametrize("at, points", [
        (0, _units(6)),         # the constant: every point
        (1, _units(6)[1:2]),    # the coefficient of e1_1: its unit point
        (-1, _units(6)[-1:]),   # the coefficient of e2_3: its unit point
    ], ids=["constant", "e1_1", "e2_3"])
    def test_a_kernel_off_in_one_coefficient_fails(self, monkeypatch, at,
                                                    points):
        kernel = witt._kernel

        def perturbed(kind, n, left, right):
            rule = kernel(kind, n, left, right)
            if (kind, left, right) == ("leibniz", (1, 2), (3, 1)):
                return _off_by_one(rule, at)
            return rule

        monkeypatch.setattr(witt, "_kernel", perturbed)
        assert _kernel_mismatches(3) == [
            ("leibniz", (1, 2), (3, 1), p) for p in points]


class TestRankThree:
    """No reference table exists beyond rank two, but the brackets work for
    any rank; spot-check them at rank three."""

    def _sample(self):
        return [E(3, (1, 0, 2), 2, 3), E(3, (0, 1, 0), 1, 2),
                E(3, (0, 0, 1), 3, 1), E(3, (2, 1, 0), 3, 3),
                E(3, (0, 0, 0), 1, 1)]

    def test_lie_is_commutator_of_prec(self):
        box = self._sample()
        for a, b in itertools.product(box, repeat=2):
            assert lie_bracket(a, b) == witt_prec(a, b) - witt_prec(b, a)

    def test_brackets_are_bilinear(self):
        a, b, c = self._sample()[:3]
        for br in (lie_bracket, leibniz_bracket, witt_prec):
            lhs = br(a + b.scale(3), c)
            assert lhs == br(a, c) + br(b, c).scale(3)
            rhs = br(c, a.scale(-2) + b)
            assert rhs == br(c, a).scale(-2) + br(c, b)


class TestStructureTable:
    def test_rank_one_table_matches_rule(self):
        entries = list(structure_table(1, "lie", 3)["entries"])
        assert len(entries) == 16
        for left, right, result in entries:
            (m,), (p,) = left.e, right.e
            if m == p:
                assert result == []
            else:
                (basis, coeff), = result
                assert coeff == p - m
                assert basis.e == (m + p + 1,)

    def test_rank_two_lie_covers_all_16_combinations(self):
        entries = list(structure_table(2, "lie", 1)["entries"])
        combos = {(left.alpha, left.i, right.alpha, right.i)
                  for left, right, _ in entries}
        assert len(combos) == 16
        assert len(entries) == 16 * 16

    def test_rank_two_leibniz_covers_all_16_combinations(self):
        doc = structure_table(2, "leibniz", 1)
        combos = {(left.alpha, left.i, right.alpha, right.i)
                  for left, right, _ in doc["entries"]}
        assert len(combos) == 16

    @pytest.mark.parametrize("n, kind, bound", [
        (1, "lie", 2), (1, "leibniz", 0), (2, "lie", 0), (2, "leibniz", 1)])
    def test_entries_are_one_pass_of_the_stated_count(self, n, kind, bound):
        entries = structure_table(n, kind, bound)["entries"]
        assert isinstance(entries, types.GeneratorType)
        assert sum(1 for _ in entries) == (len(witt.table_patterns(n, kind))
                                           * (bound + 1) ** (2 * n))
        assert list(entries) == []

    def test_unsupported_n(self):
        with pytest.raises(AlgebraError):
            structure_table(3, "lie", 1)

    def test_bound_outside_the_box(self):
        assert list(structure_table(1, "lie", witt.MAX_TABLE_BOUND)["entries"])
        for bound in (-1, witt.MAX_TABLE_BOUND + 1, 10 ** 20):
            with pytest.raises(AlgebraError):
                structure_table(1, "lie", bound)


class TestVerifyTables:
    def test_full_agreement(self):
        ver = verify_tables(3)
        assert ver.ok
        assert len(ver.rules) == 33  # 1 rank-one + 16 Lie + 16 Leibniz
        lie_checks = sum(r.checked for r in ver.rules if r.table == "lie")
        leib_checks = sum(r.checked for r in ver.rules if r.table == "leibniz")
        assert lie_checks == 16 + 16 * 256
        assert leib_checks == 16 * 256

    def test_every_rule_reports_instantiation_count(self):
        ver = verify_tables(3)
        for r in ver.rules:
            assert r.checked == (16 if r.block == "n=1" else 256)
            assert r.ok and r.mismatches == []

    def test_mixed_block_instantiation(self):
        # [E^{y,x}_{1,1}, E^{x,y}_{1,1}] = (p+1) E^{x,y}_{m+p,n+q+1}
        #                                  - (n+1) E^{y,x}_{m+p+1,n+q}
        got = lie_bracket(E(2, (1, 1), 2, 1), E(2, (1, 1), 1, 2))
        want = E(2, (2, 3), 1, 2).scale(2) - E(2, (3, 2), 2, 1).scale(2)
        assert got == want

    def test_leibniz_diagonal_instantiation(self):
        # [E^{y,y}_{0,0}, E^{y,y}_{0,0}]_o = (n - q) E^{y,y} = 0 at the origin
        assert leibniz_bracket(E(2, (0, 0), 2, 2), E(2, (0, 0), 2, 2)).is_zero()

    @pytest.mark.parametrize("attr, n, at, expected", [
        ("W1_RULES", 1, [0, 0], "1*E[1;1,1]"),
        ("W2_LIE_RULES", 2, [0, 0, 0, 0], "1*E[1,0;x,x]"),
    ])
    def test_mismatch_names_exponents_and_both_sides(self, monkeypatch, attr,
                                                      n, at, expected):
        rules = getattr(witt, attr)
        monkeypatch.setattr(witt, attr, (_off_by_one(rules[0]),) + rules[1:])
        ver = verify_tables(1)
        chk = next(r for r in ver.rules if r.block == rules[0].block)
        assert not ver.ok and chk.checked == 2 ** (2 * n)
        assert len(chk.mismatches) == chk.checked
        assert chk.mismatches[0] == {"at": at, "computed": "0",
                                     "expected": expected}

    # each case edits a good form or puts it on a tensor slot outside
    # 1..n; a negative exponent cannot be written
    BAD_DATA = [
        (lambda form: form[:3], 1),      # a rank-one form for n = 2
        (lambda form: form + (1,), 1),   # one entry too many
        (lambda form: form, 3),          # no third tensor slot
    ]

    @pytest.mark.parametrize("edit, alpha", BAD_DATA)
    def test_rule_with_bad_basis_data_is_an_error(self, edit, alpha):
        with pytest.raises(AlgebraError, match="bad Witt basis data"):
            witt.BracketRule(2, "lie", "bad", (1, 1), (1, 1),
                             ((edit((0, -1, 0, 1, 0)), 1, alpha, 1),))

    @pytest.mark.parametrize("edit, alpha", BAD_DATA)
    def test_expected_terms_refuses_bad_basis_data(self, edit, alpha):
        # bad data never reaches expected_terms: a rule is checked whenever
        # it is made, by replace too, and cannot be changed after
        good = witt.W2_LIE_RULES[0]
        (form, direction, _, i), = good.targets
        bad = ((edit(form), direction, alpha, i),)
        before = good.targets
        with pytest.raises(AlgebraError, match="bad Witt basis data"):
            good.replace(targets=bad)
        with pytest.raises(AttributeError, match="cannot assign"):
            good.targets = bad
        assert good.targets is before
        assert good.expected_terms((0, 0), (1, 0)) == {
            witt.WBasis((2, 0), 1, 1): 1}

    @pytest.mark.parametrize("left, right, target", [
        ((1, 1), (1, 1), ((0, -1, 0, 1, 0), 0, 1, 1)),  # no direction 0
        ((1, 1), (1, 1), ((0, -1, 0, 1, 0), 3, 1, 1)),  # no third direction
        ((1, 1), (1, 1), ((0, -1, 0, 1, 0), 1, 1, 3)),  # no third D_i
        ((1, 3), (1, 1), ((0, -1, 0, 1, 0), 1, 1, 1)),
        ((1, 1), (0, 1), ((0, -1, 0, 1, 0), 1, 1, 1)),
        ((1, 1), (1, 2.0), ((0, -1, 0, 1, 0), 1, 1, 1)),
    ])
    def test_rule_with_a_slot_outside_1_to_n_is_an_error(self, left, right,
                                                           target):
        with pytest.raises(AlgebraError, match="bad Witt basis data"):
            witt.BracketRule(2, "lie", "bad", left, right, (target,))

    def test_expected_terms_match_expected(self):
        for n, rule in _all_rules():
            box = list(itertools.product(range(3), repeat=n))
            for e1, e2 in itertools.product(box, box):
                terms = rule.expected_terms(e1, e2)
                assert all(terms.values())
                assert WittElement(n, dict(terms)) == _expected(rule, e1, e2)
        # two targets that cancel leave no term
        cancel = witt.BracketRule(2, "lie", "cancel", (1, 1), (1, 1), (
            ((1, 0, 0, 0, 0), 1, 1, 1), ((-1, 0, 0, 0, 0), 1, 1, 1)))
        assert cancel.expected_terms((0, 0), (0, 0)) == {}
        assert _expected(cancel, (0, 0), (0, 0)).is_zero()

    @pytest.mark.parametrize("attr", [None, "W1_RULES", "W2_LIE_RULES",
                                      "W2_LEIBNIZ_RULES"])
    def test_verify_tables_matches_a_loop_over_witt_elements(
            self, monkeypatch, attr):
        # with attr, its first rule is off by one everywhere, as above
        if attr is not None:
            rules = getattr(witt, attr)
            monkeypatch.setattr(witt, attr,
                                (_off_by_one(rules[0]),) + rules[1:])
        slow = []
        for n, rule in _all_rules():
            bracket = lie_bracket if rule.table == "lie" else leibniz_bracket
            box = list(itertools.product(range(3), repeat=n))
            mismatches = []
            for e1, e2 in itertools.product(box, box):
                got = bracket(E(n, e1, *rule.left), E(n, e2, *rule.right))
                want = _expected(rule, e1, e2)
                if got != want:
                    mismatches.append({
                        "at": [*e1, *e2],
                        "computed": witt._format_witt(got.terms, n),
                        "expected": witt._format_witt(want.terms, n)})
            slow.append((len(box) ** 2, mismatches))
        ver = verify_tables(2)
        assert [(r.checked, r.mismatches) for r in ver.rules] == slow
        assert ver.ok is (attr is None)

    @staticmethod
    def _mutant(m, n, p, q):
        return p - m + m * (m - 1)

    def test_quadratic_mutant_agrees_on_the_unit_box(self):
        # p - m + m(m-1) is the (x,x)/(x,x) Lie coefficient p - m on all of
        # {0,1}^4, so a box-1 check alone cannot catch it; at m = 2 it is off
        for m, n, p, q in itertools.product(range(2), repeat=4):
            got = lie_bracket(E(2, (m, n), 1, 1), E(2, (p, q), 1, 1))
            want = E(2, (m + p + 1, n + q), 1, 1).scale(
                self._mutant(m, n, p, q))
            assert got == want
        got = lie_bracket(E(2, (2, 0), 1, 1), E(2, (0, 0), 1, 1))
        assert got == E(2, (3, 0), 1, 1).scale(-2)
        assert self._mutant(2, 0, 0, 0) == 0

    @pytest.mark.parametrize("form", [
        _mutant.__func__,               # the mutant itself, as a callable
        (Fraction(0), -1, 0, 1, 0),     # exact, but not an int
        (0.0, -1, 0, 1, 0),
        (False, -1, 0, 1, 0),
        (0, -1, 0, 1, 0, 1),            # room for a quadratic term
    ])
    def test_the_data_form_cannot_hold_the_mutant(self, form):
        with pytest.raises(AlgebraError, match="bad Witt basis data"):
            witt.BracketRule(2, "lie", "i", (1, 1), (1, 1),
                             ((form, 1, 1, 1),))
        with pytest.raises(AlgebraError, match="bad Witt basis data"):
            witt.BracketRule(2, "lie", "i", (1, 1), (1, 1), (self._mutant,))

    def test_negative_bound_is_an_error(self):
        # a negative box is empty, and zero checks must not read as a pass
        for bound in (-1, -5):
            with pytest.raises(AlgebraError, match="bound"):
                verify_tables(bound)
        ver = verify_tables(0)
        assert ver.ok and ver.total_checks == len(ver.rules) == 33

    def test_skew_block_consistency(self):
        # the derived block is exactly minus the mirrored mixed block
        for m, n, p, q in itertools.product(range(3), repeat=4):
            for (al, il), (be, jr) in (((1, 2), (1, 1)), ((2, 2), (1, 1)),
                                       ((1, 2), (2, 1)), ((2, 2), (2, 1))):
                lhs = lie_bracket(E(2, (m, n), al, il), E(2, (p, q), be, jr))
                rhs = lie_bracket(E(2, (p, q), be, jr), E(2, (m, n), al, il))
                assert lhs == rhs.scale(-1)


def _all_rules():
    """(n, rule) for every embedded rule, read from the module as it is."""
    return [(r.n, r) for r in
            witt.W1_RULES + witt.W2_LIE_RULES + witt.W2_LEIBNIZ_RULES]


def _expected(rule, e1, e2):
    """The bracket a rule gives at exponents e1 and e2, summed target by
    target from the affine forms as written, each a basis element times its
    coefficient."""
    n = rule.n
    out = WittElement.zero(n)
    for form, direction, alpha, i in rule.targets:
        c = form[0] + sum(form[1 + k] * e1[k] + form[1 + n + k] * e2[k]
                          for k in range(n))
        e = tuple(x + y + (k == direction)
                  for k, (x, y) in enumerate(zip(e1, e2), 1))
        out = out + E(n, e, alpha, i).scale(c)
    return out


def _point_bracket(kind, v, w):
    """The bracket ``kind`` as the library computed it before its kernel
    was rule data: per pair of basis terms and per summand of
    ``BRACKETS[kind]``, the derived factor's scale times the product."""
    acc = {}
    for (e, alpha, i), c1 in v.terms.items():
        for (f, beta, j), c2 in w.terms.items():
            c = c1 * c2
            ef = [x + y for x, y in zip(e, f)]
            for sign, v_left, v_derived in BRACKETS[kind]:
                lam = (e[j - 1] + (alpha == j) if v_derived
                       else f[i - 1] + (beta == i))
                if not lam:
                    continue
                g = ef[:]
                g[(alpha if v_left else beta) - 1] += 1
                key = witt.WBasis(tuple(g), beta if v_left else alpha,
                                  i if v_derived else j)
                acc[key] = acc.get(key, 0) + sign * lam * c
    return WittElement(v.n, acc)


def _off_by_one(rule, at=0):
    """The rule with one more at place ``at`` of its first form, by default
    in the constant."""
    (form, *target), *rest = rule.targets
    form = list(form)
    form[at] += 1
    return rule.replace(targets=((tuple(form), *target), *rest))


def _patterns(table):
    """(left, right) slot patterns of a table's entries, one per entry, by
    slot name."""
    n = table["n"]
    return [tuple((witt._slot_name(n, b.alpha), witt._slot_name(n, b.i))
                  for b in (left, right))
            for left, right, _ in table["entries"]]


class TestTableOrder:
    """The entry and rule order of the emitted tables, pinned: the CLI's
    JSON output must stay byte-stable."""

    LIE_2 = [
        (("x", "x"), ("x", "x")), (("x", "x"), ("y", "x")),
        (("y", "x"), ("x", "x")), (("y", "x"), ("y", "x")),
        (("x", "y"), ("x", "y")), (("x", "y"), ("y", "y")),
        (("y", "y"), ("x", "y")), (("y", "y"), ("y", "y")),
        (("x", "x"), ("x", "y")), (("x", "x"), ("y", "y")),
        (("y", "x"), ("x", "y")), (("y", "x"), ("y", "y")),
        (("x", "y"), ("x", "x")), (("x", "y"), ("y", "x")),
        (("y", "y"), ("x", "x")), (("y", "y"), ("y", "x")),
    ]
    LEIBNIZ_2 = [
        (("x", "x"), ("x", "x")), (("x", "x"), ("x", "y")),
        (("x", "x"), ("y", "x")), (("x", "x"), ("y", "y")),
        (("x", "y"), ("x", "x")), (("x", "y"), ("x", "y")),
        (("x", "y"), ("y", "x")), (("x", "y"), ("y", "y")),
        (("y", "x"), ("x", "x")), (("y", "x"), ("x", "y")),
        (("y", "x"), ("y", "x")), (("y", "x"), ("y", "y")),
        (("y", "y"), ("x", "x")), (("y", "y"), ("x", "y")),
        (("y", "y"), ("y", "x")), (("y", "y"), ("y", "y")),
    ]
    RULES = [
        ("lie", "n=1", "E[m;1,1]", "E[p;1,1]"),
        ("lie", "i", "E[m,n;x,x]", "E[p,q;x,x]"),
        ("lie", "i", "E[m,n;x,x]", "E[p,q;y,x]"),
        ("lie", "i", "E[m,n;y,x]", "E[p,q;x,x]"),
        ("lie", "i", "E[m,n;y,x]", "E[p,q;y,x]"),
        ("lie", "ii", "E[m,n;x,y]", "E[p,q;x,y]"),
        ("lie", "ii", "E[m,n;x,y]", "E[p,q;y,y]"),
        ("lie", "ii", "E[m,n;y,y]", "E[p,q;x,y]"),
        ("lie", "ii", "E[m,n;y,y]", "E[p,q;y,y]"),
        ("lie", "iii", "E[m,n;x,x]", "E[p,q;x,y]"),
        ("lie", "iii", "E[m,n;x,x]", "E[p,q;y,y]"),
        ("lie", "iii", "E[m,n;y,x]", "E[p,q;x,y]"),
        ("lie", "iii", "E[m,n;y,x]", "E[p,q;y,y]"),
        ("lie", "iii-skew", "E[m,n;x,y]", "E[p,q;x,x]"),
        ("lie", "iii-skew", "E[m,n;y,y]", "E[p,q;x,x]"),
        ("lie", "iii-skew", "E[m,n;x,y]", "E[p,q;y,x]"),
        ("lie", "iii-skew", "E[m,n;y,y]", "E[p,q;y,x]"),
        ("leibniz", "a", "E[m,n;x,x]", "E[p,q;x,x]"),
        ("leibniz", "a", "E[m,n;x,x]", "E[p,q;x,y]"),
        ("leibniz", "a", "E[m,n;x,y]", "E[p,q;x,x]"),
        ("leibniz", "a", "E[m,n;x,y]", "E[p,q;x,y]"),
        ("leibniz", "a", "E[m,n;x,x]", "E[p,q;y,x]"),
        ("leibniz", "a", "E[m,n;x,x]", "E[p,q;y,y]"),
        ("leibniz", "a", "E[m,n;x,y]", "E[p,q;y,x]"),
        ("leibniz", "a", "E[m,n;x,y]", "E[p,q;y,y]"),
        ("leibniz", "b", "E[m,n;y,x]", "E[p,q;x,x]"),
        ("leibniz", "b", "E[m,n;y,x]", "E[p,q;x,y]"),
        ("leibniz", "b", "E[m,n;y,y]", "E[p,q;x,x]"),
        ("leibniz", "b", "E[m,n;y,y]", "E[p,q;x,y]"),
        ("leibniz", "b", "E[m,n;y,x]", "E[p,q;y,x]"),
        ("leibniz", "b", "E[m,n;y,x]", "E[p,q;y,y]"),
        ("leibniz", "b", "E[m,n;y,y]", "E[p,q;y,x]"),
        ("leibniz", "b", "E[m,n;y,y]", "E[p,q;y,y]"),
    ]

    @pytest.mark.parametrize("n, kind, blocks", [
        (1, "lie", [(("1", "1"), ("1", "1"))]),
        (1, "leibniz", [(("1", "1"), ("1", "1"))]),
        (2, "lie", LIE_2),
        (2, "leibniz", LEIBNIZ_2),
    ])
    def test_entry_order(self, n, kind, blocks):
        table = structure_table(n, kind, 1)
        table["entries"] = list(table["entries"])
        per_block = 2 ** (2 * n)
        assert _patterns(table) == [b for b in blocks for _ in range(per_block)]
        exps = [left.e + right.e
                for left, right, _ in table["entries"][:per_block]]
        assert exps == list(itertools.product(range(2), repeat=2 * n))

    def test_rule_order(self):
        got = [(r.table, r.block, r.left, r.right)
               for r in verify_tables(1).rules]
        assert got == self.RULES

    def test_rank_one_leibniz_table_values(self):
        table = structure_table(1, "leibniz", 1)
        for left, right, result in table["entries"]:
            (m,), (p,) = left.e, right.e
            want = leibniz_bracket(E(1, (m,), 1, 1), E(1, (p,), 1, 1))
            assert [(str(c), b.e) for b, c in result] \
                == [(str(c), b.e) for b, c in sorted(want.terms.items())]
