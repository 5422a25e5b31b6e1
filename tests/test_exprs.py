import copy
import functools
import itertools
import operator
import pickle
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from oracles import specialize_delta, subs, v, x
from permdiff import exprs
from permdiff.algebra import (
    CTX_DELTA,
    CTX_Q,
    AlgebraError,
    Context,
    DELTA,
    DERIVED_PRODUCT_TAGS,
    DeltaPoly,
    DiffPermPoly,
    apply_substitution,
    derived_product,
    monomial_key,
)
from permdiff.cli import parse_expr, pretty
from permdiff.exprs import (
    Assoc,
    Bracket,
    Der,
    DerOp,
    Expr,
    FormalVectorField,
    Mul,
    NonMultilinearError,
    Scale,
    Star,
    Sum,
    SUITE_IDS,
    Var,
    check_identity,
    eval_delta,
    eval_expr,
    eval_on_generators,
    run_suite,
    standard_identity,
    suite_cases,
    vf_leibniz_bracket,
    vf_prec,
)


def gens(n, ctx=CTX_Q):
    return {i: DiffPermPoly.generator(i, 0, ctx) for i in range(1, n + 1)}


def variables(e):
    """The indices of the variables of ``e``, by a walk over its node
    fields: an oracle independent of the evaluator."""
    if isinstance(e, Var):
        return {e.index}
    out = set()
    for f in e._fields:
        val = getattr(e, f)
        for sub in val if isinstance(val, tuple) else (val,):
            if isinstance(sub, Expr):
                out |= variables(sub)
    return out


# Each derived product spelled by hand as its summands of ``Mul``/``Der``.
SPELLED = {
    "prec": lambda a, b: Mul(a, Der(b)),
    "succ": lambda a, b: Mul(Der(a), b),
    "loz": lambda a, b: Sum((Mul(a, Der(b)), Mul(b, Der(a)))),
    "bullet": lambda a, b: Sum((Mul(Der(a), b), Mul(a, Der(b)))),
    "diamond": lambda a, b: Sum((Mul(a, Der(b)), Scale(-1, Mul(b, Der(a))))),
    "circ": lambda a, b: Sum((Mul(Der(a), b), Scale(-1, Mul(a, Der(b))))),
}


def desugar(e):
    """``e`` with every derived product and associator spelled out by
    ``SPELLED``: an oracle tree of ``Mul``/``Der``/``Sum``/``Scale`` only."""
    if isinstance(e, DerOp):
        return SPELLED[e.tag](desugar(e.lhs), desugar(e.rhs))
    if isinstance(e, Assoc):
        a, b, c = desugar(e.a), desugar(e.b), desugar(e.c)
        spell = SPELLED[e.tag]
        return spell(spell(a, b), c) - spell(a, spell(b, c))
    if isinstance(e, Var):
        return e
    if isinstance(e, Sum):
        return Sum(tuple(desugar(t) for t in e.terms))
    if isinstance(e, Scale):
        return Scale(e.coeff, desugar(e.body))
    if isinstance(e, (Der, Star)):
        return type(e)(desugar(e.body))
    return Mul(desugar(e.lhs), desugar(e.rhs))


class TestEval:
    def test_mul_der(self):
        e = Mul(Var(1), Der(Var(2)))
        assert eval_expr(e, gens(2)) == x(1) * x(2, 1)

    def test_assoc_against_two_eval_calls(self):
        e = Assoc("loz", v(1), v(2), v(3))
        got = eval_expr(e, gens(3))
        ab = derived_product("loz", x(1), x(2))
        bc = derived_product("loz", x(2), x(3))
        want = derived_product("loz", ab, x(3)) - derived_product("loz", x(1), bc)
        assert got == want

    def test_sum_cancels(self):
        e = Sum((Mul(v(1), v(2)), Scale(-1, Mul(v(1), v(2)))))
        assert eval_expr(e, gens(2)).is_zero()

    def test_unbound_variable(self):
        with pytest.raises(AlgebraError, match="unbound"):
            eval_expr(Mul(v(1), v(9)), gens(2))

    def test_derived_op_needs_single_derivation(self):
        ctx = Context(2, False)
        with pytest.raises(AlgebraError, match="single derivation"):
            eval_expr(DerOp("loz", v(1), v(2)), gens(2, ctx), ctx)

    def test_long_product_built_with_mul_hashes(self):
        # each product is hashed as it is made, so hashing the last one of
        # a chain of 2999 does not recurse down the chain
        chain = functools.reduce(operator.mul, map(Var, range(1, 3001)))
        text = " * ".join(f"x{i}" for i in range(1, 3001))
        assert hash(chain) == hash(parse_expr(text))

    def test_deep_der_chain_built_in_library_code_hashes(self):
        # every node is hashed as it is made, so hashing a chain of 3000
        # derivations built from the inside out does not recurse down it
        chain = functools.reduce(lambda e, _: Der(e), range(3000), Var(1))
        assert hash(chain) == hash(Der(chain.body))

    @pytest.mark.parametrize("ctx", [CTX_Q, CTX_DELTA], ids=["Q", "delta"])
    def test_deep_der_chain_built_in_library_code_evaluates(self, ctx):
        # the evaluation keeps pending nodes on a list, not on the stack
        chain = functools.reduce(lambda e, _: Der(e), range(3000), Var(1))
        assert (eval_on_generators(chain, ctx)
                == DiffPermPoly.generator(1, 3000, ctx))

    def test_deep_right_nested_product_evaluates(self):
        # x1 * (x2 * (... * x2000)): the first factors sorted, the last kept
        nested = functools.reduce(lambda e, i: Mul(Var(i), e),
                                  range(1999, 0, -1), Var(2000))
        flat = functools.reduce(operator.mul, map(Var, range(1, 2001)))
        assert eval_on_generators(nested) == eval_on_generators(flat)

    def test_deep_der_chain_built_in_library_code_prints(self):
        # printing keeps pending nodes and text on a list, not on the stack
        chain = functools.reduce(lambda e, _: Der(e), range(3000), Var(1))
        assert pretty(chain) == "d(" * 3000 + "x1" + ")" * 3000

    def test_deep_mixed_tree_built_in_library_code_prints(self):
        # a sum, a negative multiple and a product at every level: each
        # level's text is the last one's, parenthesised as a factor
        tree, text = Var(1), "x1"
        for i in range(3000):
            tree = Sum((Scale(-2, Mul(Var(2), tree)), Var(3)))
            text = f"-2 * (x2 * {text if i == 0 else f'({text})'}) + x3"
        assert pretty(tree) == text

    @pytest.mark.parametrize("tree", [Sum(()), Der(Sum(())),
                                      Sum((Var(1), Sum(())))],
                             ids=["alone", "under-d", "as-a-term"])
    def test_empty_sum_is_not_printable(self, tree):
        # the grammar has no empty sum; only library code builds one
        with pytest.raises(AlgebraError, match="not printable"):
            pretty(tree)

    def test_copied_and_unpickled_nodes_hash(self):
        # a copy is made again through its class, so it stores its hash too
        e = Sum((Scale(DELTA, Bracket("loz", v(1), Der(v(2)))), v(3)))
        for copy_of in (copy.copy, copy.deepcopy,
                        lambda t: pickle.loads(pickle.dumps(t))):
            got = copy_of(e)
            assert got == e and hash(got) == hash(e)
            assert type(got.terms[0].body) is Bracket

    def test_star_node(self):
        assert eval_expr(Star(Mul(v(1), v(2))), gens(2)) == (x(1) * x(2)).star()

    def test_desugar_preserves_value(self):
        e = Assoc("diamond", v(1), DerOp("bullet", v(2), v(3)), v(4))
        assert eval_expr(desugar(e), gens(4)) == eval_expr(e, gens(4))
        sub = gens(4, CTX_DELTA)
        for k in range(3):
            assert eval_delta(desugar(e), sub) == eval_delta(e, sub), k
            e = Der(e)

    def test_desugar_spells_each_product(self):
        assert tuple(SPELLED) == DERIVED_PRODUCT_TAGS
        a, b, c = v(1), v(2), v(3)
        sub = gens(3, CTX_DELTA)
        for tag, spell in SPELLED.items():
            pairs = [(DerOp(tag, a, b), spell(a, b)),
                     (Bracket(tag, b, a), spell(b, a)),
                     (Assoc(tag, a, b, c),
                      spell(spell(a, b), c) - spell(a, spell(b, c)))]
            for node, tree in pairs:
                assert desugar(node) == tree, (tag, node)
                for k in range(3):
                    assert eval_delta(node, sub) == eval_delta(tree, sub), \
                        (tag, node, k)
                    node, tree = Der(node), Der(tree)
        with pytest.raises(AlgebraError, match="unknown derived product"):
            eval_delta(DerOp("wedge", a, b), sub)


# The fields of one node of every class, of each kind a field can hold: an
# index, operands, a tag, a δ-polynomial coefficient and a tuple of terms.
NODE_FIELDS = {
    Var: (3,),
    Mul: (v(1), Der(v(2))),
    Der: (v(1),),
    DerOp: ("loz", v(1), Der(v(2))),
    Bracket: ("loz", v(1), Der(v(2))),
    Star: (Mul(v(1), v(2)),),
    Scale: (DELTA + 1, v(1)),
    Sum: ((v(1), Scale(Fraction(-1, 2), v(2))),),
    Assoc: ("diamond", v(1), v(2), v(3)),
}
_BY_CLASS = pytest.mark.parametrize("cls", NODE_FIELDS,
                                    ids=lambda cls: cls.__name__)


class TestNodeContract:
    def test_every_node_class_is_listed(self):
        assert set(NODE_FIELDS) == {
            cls for cls in vars(exprs).values()
            if isinstance(cls, type) and issubclass(cls, Expr)
            and cls is not Expr}

    @_BY_CLASS
    def test_equal_fields_give_equal_nodes(self, cls):
        fields = NODE_FIELDS[cls]
        a, b = cls(*fields), cls(*copy.deepcopy(fields))
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert tuple(getattr(a, f) for f in cls._fields) == fields
        assert len({a, b}) == 1

    @_BY_CLASS
    def test_a_changed_field_gives_another_node(self, cls):
        fields = NODE_FIELDS[cls]
        for k in range(len(fields)):
            other = (*fields[:k], 9 if cls is Var else Var(9),
                     *fields[k + 1:])
            assert cls(*fields) != cls(*other), k

    def test_a_bracket_is_not_the_derop_it_extends(self):
        # equal fields of another class: not equal either way, and two keys
        fields = NODE_FIELDS[DerOp]
        assert Bracket(*fields) != DerOp(*fields)
        assert DerOp(*fields) != Bracket(*fields)
        assert len({Bracket(*fields), DerOp(*fields)}) == 2
        assert Der(v(1)) != Star(v(1))

    @_BY_CLASS
    def test_assignment_raises_and_leaves_the_node_as_it_was(self, cls):
        fields = NODE_FIELDS[cls]
        node = cls(*fields)
        for name in (*cls._fields, "_hash", "other"):
            before = getattr(node, name, None)
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(node, name, Var(9))
            with pytest.raises(AttributeError, match="cannot assign"):
                delattr(node, name)
            assert getattr(node, name, None) is before, name
        assert node == cls(*fields) and hash(node) == hash(cls(*fields))

    @_BY_CLASS
    def test_copy_deepcopy_and_pickle_round_trip(self, cls):
        node = cls(*NODE_FIELDS[cls])
        for copy_of in (copy.copy, copy.deepcopy,
                        lambda t: pickle.loads(pickle.dumps(t))):
            got = copy_of(node)
            assert type(got) is cls
            assert got == node and hash(got) == hash(node)

    def test_repr_names_the_class_and_each_field(self):
        assert repr(Scale(-1, Bracket("loz", v(1), v(2)))) == (
            "Scale(coeff=-1, body=Bracket(tag='loz', lhs=Var(index=1), "
            "rhs=Var(index=2)))")

    @pytest.mark.parametrize("fields", [(), (v(1),), (v(1), v(2), v(3))],
                             ids=["none", "one", "three"])
    def test_a_wrong_number_of_fields_is_a_type_error(self, fields):
        with pytest.raises(TypeError, match="Mul takes 2 fields"):
            Mul(*fields)


def _tree_strategy(max_depth=3, nvars=3):
    leaf = st.integers(1, nvars).map(Var)
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: Mul(*ab)),
            sub.map(Der),
            st.tuples(st.sampled_from(("prec", "loz", "diamond", "circ")),
                      sub, sub).map(lambda t: DerOp(*t)),
            st.tuples(st.integers(-2, 2).filter(bool), sub).map(
                lambda ce: Scale(*ce)),
            st.tuples(sub, sub).map(lambda ab: Sum(ab)),
        ),
        max_leaves=6)


def reference_eval(e, subst):
    """Per-node evaluation without grouping: every product is expanded on
    its own and a sum is folded with ``+``.  Slow, independent oracle for
    ``eval_expr``."""
    cache = {}

    def rec(node):
        got = cache.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Var):
            val = subst[node.index]
        elif isinstance(node, Mul):
            val = rec(node.lhs) * rec(node.rhs)
        elif isinstance(node, Der):
            val = rec(node.body).derive()
        elif isinstance(node, (DerOp, Bracket)):
            val = derived_product(node.tag, rec(node.lhs), rec(node.rhs))
        elif isinstance(node, Scale):
            val = rec(node.body).scale(node.coeff)
        elif isinstance(node, Sum):
            val = DiffPermPoly.zero(CTX_Q)
            for t in node.terms:
                val = val + rec(t)
        else:
            raise TypeError(f"reference_eval: unsupported node {node!r}")
        cache[id(node)] = val
        return val

    return rec(e)


def _clone(e, delta=None):
    """A structurally equal copy of ``e`` that shares no node with it; with
    ``delta`` given, its δ-polynomial scale factors are evaluated there."""
    if (delta is not None and isinstance(e, Scale)
            and isinstance(e.coeff, DeltaPoly)):
        return Scale(subs(e.coeff, delta), _clone(e.body, delta))
    parts = []
    for f in e._fields:
        val = getattr(e, f)
        if isinstance(val, Expr):
            val = _clone(val, delta)
        elif isinstance(val, tuple):
            val = tuple(_clone(t, delta) for t in val)
        parts.append(val)
    return type(e)(*parts)


_OPERANDS = (Var(1), Var(2), Var(3), Der(Var(1)), Mul(Var(2), Var(3)),
             DerOp("succ", Var(3), Var(1)))


def _multiples(tag, lefts, factors, rights, coeffs):
    """The sum over left operands l and right operands r of
    k_l c_r op(l, r), with ``Mul`` for the tag None.  The products with left
    operand l group into op(l, k_l Σ_r c_r r), so the grouped right operands
    are scalar multiples of one another, and a group's first coefficient
    k_l c_r may be zero."""
    terms = []
    for lhs, k in zip(lefts, factors):
        for rhs, c in zip(rights, coeffs):
            p = Mul(lhs, rhs) if tag is None else DerOp(tag, lhs, rhs)
            terms.append(Scale(k, p if c == 1 else Scale(c, p)))
    return Sum(tuple(terms))


def _multiples_strategy(left, sub, factor):
    """``_multiples`` with two or three of each operand and the left
    operands' factors drawn from ``factor``."""
    size = dict(min_size=2, max_size=3)
    return st.builds(
        _multiples, st.sampled_from(DERIVED_PRODUCT_TAGS + (None,)),
        st.lists(left, **size), st.lists(factor, **size),
        st.lists(sub, **size), st.lists(st.sampled_from((0, 1, -1, 2)),
                                        **size))


def _linear_strategy(factor=st.sampled_from((0, -1, 1, 3, Fraction(1, 2),
                                             Fraction(-2, 3)))):
    """Sums of products over all six tags whose left operands recur, both
    shared and as unshared equal copies, with nested sums, scalings,
    summands that cancel and groups whose right operands are scalar
    multiples of one another (``factor`` scales those)."""
    left = st.one_of(st.sampled_from(_OPERANDS),
                     st.sampled_from(_OPERANDS).map(_clone))
    tag = st.sampled_from(DERIVED_PRODUCT_TAGS)
    coeff = st.sampled_from((-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-2, 3)))
    expr = st.recursive(
        left,
        lambda sub: st.one_of(
            st.tuples(tag, left, sub).map(lambda t: DerOp(*t)),
            st.tuples(tag, left, sub).map(lambda t: Bracket(*t)),
            st.tuples(left, sub).map(lambda t: Mul(*t)),
            st.tuples(coeff, sub).map(lambda t: Scale(*t)),
            st.lists(sub, min_size=1, max_size=4).map(
                lambda ts: Sum(tuple(ts))),
            sub.map(lambda t: Sum((t, Scale(-1, _clone(t))))),
            _multiples_strategy(left, sub, factor),
        ),
        max_leaves=8)
    return st.lists(expr, min_size=2, max_size=6).map(lambda ts: Sum(tuple(ts)))


# factors of Q[δ] for grouped right operands: constants, which are divided
# out, and δ, δ + 1 and the zero polynomial, which are not
_DELTA_FACTORS = st.sampled_from((DeltaPoly.const(2), DeltaPoly.const(-1),
                                  DeltaPoly.const(Fraction(1, 2)), DeltaPoly(),
                                  DELTA, DELTA + 1, -1, Fraction(-2, 3)))


class TestGroupedEvaluation:
    """``eval_expr`` evaluates a sum by grouping products with equal left
    operands; it must agree with the ungrouped per-node recursion."""

    @given(_linear_strategy())
    @settings(max_examples=150)
    def test_matches_ungrouped_reference(self, tree):
        assert eval_expr(tree, gens(3)) == reference_eval(tree, gens(3))

    @given(_linear_strategy())
    @settings(max_examples=80)
    def test_delta_grouping_matches_summands(self, tree):
        # the δ context groups sums as well; each result must equal the sum
        # of the top-level summands' values, exactly over Q[δ], and
        # specialise at δ = 1 to the ungrouped ordinary reference
        sub = gens(3, CTX_DELTA)
        for wrap in (lambda t: t, Der):
            got = eval_delta(wrap(tree), sub)
            want = DiffPermPoly.zero(CTX_DELTA)
            for t in tree.terms:
                want = want + eval_delta(wrap(t), sub)
            assert got == want
            assert specialize_delta(got, 1) == reference_eval(wrap(tree),
                                                              gens(3))

    @given(_linear_strategy(_DELTA_FACTORS))
    @settings(max_examples=60)
    def test_delta_factors_match_summands(self, tree):
        # grouped right operands scaled by constants of Q[δ], by δ and by
        # zero: the value is the sum of the summands' values, and at δ = 1
        # the ungrouped ordinary reference on the tree with δ set to 1
        sub = gens(3, CTX_DELTA)
        got = eval_delta(tree, sub)
        want = DiffPermPoly.zero(CTX_DELTA)
        for t in tree.terms:
            want = want + eval_delta(t, sub)
        assert got == want
        assert specialize_delta(got, 1) == reference_eval(_clone(tree, 1),
                                                          gens(3))

    def test_zero_leading_coefficient(self):
        # every product has the left operand x2; the grouped right operand
        # is led by two zero coefficients, so it is divided by the third
        p = Mul(v(2), v(3))
        e = Sum((Sum((Scale(0, p), Scale(-1, Scale(0, p)))), p))
        assert eval_expr(e, gens(3)) == reference_eval(e, gens(3))
        assert eval_expr(e, gens(3)) == eval_expr(p, gens(3))
        d = Sum((Scale(DeltaPoly(), p), Scale(DeltaPoly.const(-2), p),
                 Scale(DELTA, p)))
        assert (eval_delta(Der(d), gens(3, CTX_DELTA))
                == eval_delta(Der(p), gens(3, CTX_DELTA)).scale(DELTA - 2))

    @pytest.mark.parametrize("k", [1, -1, 2, Fraction(-1, 3)])
    def test_scalar_multiples_share_one_memo_entry(self, k, monkeypatch):
        # the groups loz(x1, r) and loz(x2, k r) with r = succ(x3, x4) -
        # succ(x3, x5) have right operands that are multiples of one sum;
        # its grouped product succ(x3, x4 - x5) is expanded once, so x2's
        # group costs only the two products of loz
        r = (DerOp("succ", v(3), v(4)), DerOp("succ", v(3), v(5)))
        trees = [_multiples("loz", (v(1), v(2)), (1, k), r, (1, -1)),
                 _multiples("loz", (v(1),), (1,), r, (1, -1))]
        calls = []
        mul = DiffPermPoly.__mul__

        def counted(self, other):
            calls.append(None)
            return mul(self, other)

        monkeypatch.setattr(DiffPermPoly, "__mul__", counted)
        counts = []
        for tree in trees:
            calls.clear()
            eval_expr(tree, gens(5))
            counts.append(len(calls))
        assert counts == [5, 3]
        monkeypatch.undo()
        for tree in trees:
            assert eval_expr(tree, gens(5)) == reference_eval(tree, gens(5))

    def test_unshared_equal_summands_cancel(self):
        t = DerOp("diamond", DerOp("loz", v(1), v(2)), Mul(v(3), Der(v(1))))
        assert eval_expr(Sum((t, Scale(-1, _clone(t)))), gens(3)).is_zero()
        e = Sum((Scale(2, DerOp("prec", v(1), v(2))),
                 Sum((Scale(-1, DerOp("prec", v(1), v(2))),
                      Scale(-1, DerOp("prec", Var(1), Var(2)))))))
        assert eval_expr(e, gens(2)).is_zero()

    def test_parsed_std7_derives_as_often_as_the_library_tree(self,
                                                             monkeypatch):
        # the memo is structural, so the equal suffixes of a parsed tree are
        # expanded once, as the library tree's shared ones are; each
        # subtree's derivative is memoised too, so far fewer normal forms are
        # derived than products are expanded; and a grouped right operand is
        # memoised up to a scalar, so the operands of the prefixes (i, j) and
        # (j, i), negatives of each other, are expanded once
        image = {1: 4, 2: 7, 3: 1, 4: 6, 5: 2, 6: 5, 7: 3}
        text = re.sub(r"x(\d+)", lambda m: f"x{image[int(m.group(1))]}",
                      pretty(standard_identity("diamond", 7)))
        calls = []
        for name in ("derive", "__mul__"):
            method = getattr(DiffPermPoly, name)

            def counted(self, *args, method=method, name=name):
                calls.append(name)
                return method(self, *args)

            monkeypatch.setattr(DiffPermPoly, name, counted)
        counts = []
        for tree in (parse_expr(text), standard_identity("diamond", 7)):
            calls.clear()
            assert check_identity(tree).is_identity
            counts.append((calls.count("derive"), calls.count("__mul__")))
        assert counts[0] == counts[1]
        derives, products = counts[0]
        assert derives == 69
        assert products == 384

    @pytest.mark.parametrize("n", [5, 6])
    def test_parsed_and_library_standard_identities_agree(self, n):
        library = standard_identity("diamond", n)
        parsed = parse_expr(pretty(library))
        want = reference_eval(library, gens(n))
        assert eval_expr(library, gens(n)) == want
        assert eval_expr(parsed, gens(n)) == want
        verdict = check_identity(parsed)
        assert verdict == check_identity(library)
        if n == 6:
            assert want.is_zero() and verdict.is_identity
        else:
            witness = min(want.terms.items(), key=lambda mc: monomial_key(mc[0]))
            assert verdict.witness == witness


class TestSubstitutionSoundness:
    @given(_tree_strategy(), st.data())
    @settings(max_examples=120)
    def test_eval_commutes_with_endomorphisms(self, tree, data):
        """eval on substituted values equals the endomorphism image of eval
        on generators; this is what justifies generator substitution."""
        imgs = {}
        for i in sorted(variables(tree)) or [1]:
            var = data.draw(st.integers(1, 3), label=f"var{i}")
            order = data.draw(st.integers(0, 2), label=f"ord{i}")
            factor2 = data.draw(st.booleans(), label=f"two{i}")
            p = x(var, order)
            if factor2:
                p = p * x(data.draw(st.integers(1, 3), label=f"v2{i}"))
            imgs[i] = p
        direct = eval_expr(tree, {**gens(3), **imgs})
        via_endo = apply_substitution(eval_expr(tree, gens(3)), imgs)
        assert direct == via_endo


class TestGeneratorBinding:
    """Evaluation on free generators binds x_i as it reads index i, so one
    evaluation binds exactly the variables of the tree."""

    @given(_tree_strategy(), st.sampled_from((CTX_Q, CTX_DELTA)),
           st.booleans())
    @settings(max_examples=100)
    @example(tree=Der(Mul(v(3), v(1))), ctx=CTX_DELTA, zero_term=True)
    def test_bound_indices_are_the_variables(self, tree, ctx, zero_term):
        if zero_term:
            # x4 occurs only under a zero scalar, and is evaluated all the same
            tree = Sum((tree, Scale(0, DerOp("loz", v(4), v(1)))))
        gens = exprs._Generators(ctx)
        gens.evaluate(tree)
        assert set(gens) == variables(tree)


class TestEvalDelta:
    def test_delta_leibniz_on_product(self):
        e = Der(Mul(v(1), v(2)))
        got = eval_delta(e, gens(2, CTX_DELTA))
        g1 = DiffPermPoly.generator(1, 0, CTX_DELTA)
        g2 = DiffPermPoly.generator(2, 0, CTX_DELTA)
        g1p = DiffPermPoly.generator(1, 1, CTX_DELTA)
        g2p = DiffPermPoly.generator(2, 1, CTX_DELTA)
        assert got == (g1p * g2 + g1 * g2p).scale(DELTA)

    def test_second_derivative_of_circ(self):
        e = Der(DerOp("circ", v(1), v(2)))
        got = eval_delta(e, gens(2, CTX_DELTA))
        g1pp = DiffPermPoly.generator(1, 2, CTX_DELTA)
        g2 = DiffPermPoly.generator(2, 0, CTX_DELTA)
        g1 = DiffPermPoly.generator(1, 0, CTX_DELTA)
        g2pp = DiffPermPoly.generator(2, 2, CTX_DELTA)
        assert got == (g1pp * g2 - g1 * g2pp).scale(DELTA)

    def test_specialization_at_one_matches_eval_on_every_suite_expr(self):
        for sid in ("a", "b", "c", "d", "e", "f"):
            for case in suite_cases(sid):
                n = max(variables(case.expr))
                plain = eval_expr(_clone(case.expr, 1), gens(n))
                dval = eval_delta(case.expr, gens(n, CTX_DELTA))
                assert specialize_delta(dval, 1) == plain, case.name

    @given(_tree_strategy(), st.data())
    @settings(max_examples=60)
    def test_specialization_at_one_on_random_trees(self, tree, data):
        plain = eval_expr(tree, gens(3))
        dval = eval_delta(tree, gens(3, CTX_DELTA))
        assert specialize_delta(dval, 1) == plain

    def test_flattened_product_under_derivation_is_ambiguous(self):
        sub = gens(2, CTX_DELTA)
        sub[1] = sub[1] * sub[2]
        with pytest.raises(AlgebraError, match="ambiguous"):
            eval_delta(Der(v(1)), sub)

    def test_star_rejected(self):
        with pytest.raises(AlgebraError, match="star"):
            eval_delta(Star(v(1)), gens(1, CTX_DELTA))


class TestCheckIdentity:
    def test_tortken_under_loz(self):
        case, = [c for c in suite_cases("a") if c.name == "loz-tortken"]
        assert check_identity(case.expr).is_identity

    def test_std5_fails_with_witness(self):
        verdict = check_identity(standard_identity("diamond", 5))
        assert not verdict.is_identity
        m, c = verdict.witness
        assert c != 0 and m.degree == 5

    def test_std7_holds(self):
        assert check_identity(standard_identity("diamond", 7)).is_identity

    def test_jacobi_under_diamond(self):
        e = (DerOp("diamond", DerOp("diamond", v(1), v(2)), v(3))
             + DerOp("diamond", DerOp("diamond", v(2), v(3)), v(1))
             + DerOp("diamond", DerOp("diamond", v(3), v(1)), v(2)))
        assert check_identity(e).is_identity

    def test_jacobi_is_stable_under_variable_permutation(self):
        for p1, p2, p3 in itertools.permutations((1, 2, 3)):
            e = (DerOp("diamond", DerOp("diamond", v(p1), v(p2)), v(p3))
                 + DerOp("diamond", DerOp("diamond", v(p2), v(p3)), v(p1))
                 + DerOp("diamond", DerOp("diamond", v(p3), v(p1)), v(p2)))
            assert check_identity(e).is_identity

    def test_non_multilinear_rejected(self):
        with pytest.raises(NonMultilinearError):
            check_identity(Mul(v(1), v(1)))

    def test_variable_beyond_arity_rejected(self):
        # the arity is the largest variable evaluated, so x2..x4 are missing
        with pytest.raises(NonMultilinearError,
                           match=r"not multilinear in x1\.\.x5: "
                                 r"monomial variables \(1, 5\)"):
            check_identity(Mul(v(1), v(5)))

    def test_arity_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            check_identity(Mul(v(1), v(2)), 7)
        assert not check_identity(Mul(v(1), v(2)), ctx=CTX_DELTA).is_identity

    def test_perm_law_on_a_long_product_built_with_mul(self):
        # x1 x2 x3 ... x1000 = x2 x1 x3 ... x1000, built with Python's *: a
        # chain of 999 products down the left operands
        xs = [Var(i) for i in range(1, 1001)]
        law = (functools.reduce(operator.mul, xs)
               - functools.reduce(operator.mul, [xs[1], xs[0], *xs[2:]]))
        assert check_identity(law) == exprs.Verdict(True)


class TestIdentitySoundness:
    """A true verdict means the expression vanishes under *every*
    substitution, not just on generators; spot-check that end to end."""

    @given(st.data())
    @settings(max_examples=40)
    def test_verified_identities_vanish_on_random_values(self, data):
        named = {}
        for sid in ("a", "b", "c", "d"):
            for case in suite_cases(sid):
                if (case.expected and case.expr is not None
                        and max(variables(case.expr)) <= 4):
                    named[case.name] = case
        case = data.draw(st.sampled_from(sorted(named)), label="identity")
        case = named[case]
        subst = {}
        for i in range(1, max(variables(case.expr)) + 1):
            var = data.draw(st.integers(1, 3), label=f"v{i}")
            order = data.draw(st.integers(0, 2), label=f"o{i}")
            p = x(var, order)
            if data.draw(st.booleans(), label=f"m{i}"):
                p = p * x(data.draw(st.integers(1, 3), label=f"w{i}"))
            if data.draw(st.booleans(), label=f"s{i}"):
                p = p + x(data.draw(st.integers(1, 3), label=f"u{i}"),
                          data.draw(st.integers(0, 1), label=f"p{i}"))
            subst[i] = p
        assert eval_expr(case.expr, subst).is_zero()


class TestFormalVectorFields:
    def test_make_merges_slots_and_drops_zeros(self):
        ctx = Context(3, False)
        a = DiffPermPoly.generator(1, (0, 0, 0), ctx)
        b = DiffPermPoly.generator(2, (0, 0, 0), ctx)
        X = FormalVectorField.make(
            [(a, 2), (b, 2), (a, 1), (-a, 1), (DiffPermPoly.zero(ctx), 3)],
            ctx)
        assert X.terms == {2: a + b}
        assert FormalVectorField.make([(a, 1), (-a, 1)], ctx).is_zero()

    def test_make_and_sum_refuse_another_context(self):
        ctx, other = Context(3, False), Context(2, False)
        a = DiffPermPoly.generator(1, (0, 0), other)
        msg = "^vector field coefficient context mismatch$"
        with pytest.raises(AlgebraError, match=msg):
            FormalVectorField.make([(a, 1)], ctx)
        X = FormalVectorField.make([(a, 1)], other)
        Y = FormalVectorField.make(
            [(DiffPermPoly.generator(1, (0, 0, 0), ctx), 1)], ctx)
        with pytest.raises(AlgebraError, match=msg):
            X + Y
        with pytest.raises(AlgebraError, match="derivation index out of range"):
            FormalVectorField.make([(a, 3)], other)

    def test_leibniz_bracket_formula(self):
        ctx = Context(3, False)
        a = DiffPermPoly.generator(1, (0, 0, 0), ctx)
        b = DiffPermPoly.generator(2, (0, 0, 0), ctx)
        X = FormalVectorField.make([(a, 1)], ctx)
        Y = FormalVectorField.make([(b, 2)], ctx)
        got = vf_leibniz_bracket(X, Y)
        want = FormalVectorField.make(
            [(a.derive(2) * b, 1), (-(a * b.derive(1)), 2)], ctx)
        assert got == want

    def test_prec_formula(self):
        ctx = Context(3, False)
        a = DiffPermPoly.generator(1, (0, 0, 0), ctx)
        b = DiffPermPoly.generator(2, (0, 0, 0), ctx)
        X = FormalVectorField.make([(a, 3)], ctx)
        Y = FormalVectorField.make([(b, 2)], ctx)
        assert vf_prec(X, Y) == FormalVectorField.make(
            [(a * b.derive(3), 2)], ctx)

    def test_left_leibniz_all_27_triples(self):
        ctx = Context(3, False)
        a = DiffPermPoly.generator(1, (0, 0, 0), ctx)
        b = DiffPermPoly.generator(2, (0, 0, 0), ctx)
        c = DiffPermPoly.generator(3, (0, 0, 0), ctx)
        for i, j, k in itertools.product((1, 2, 3), repeat=3):
            X = FormalVectorField.make([(a, i)], ctx)
            Y = FormalVectorField.make([(b, j)], ctx)
            Z = FormalVectorField.make([(c, k)], ctx)
            lhs = vf_leibniz_bracket(vf_leibniz_bracket(X, Y), Z)
            rhs = (vf_leibniz_bracket(X, vf_leibniz_bracket(Y, Z))
                   - vf_leibniz_bracket(Y, vf_leibniz_bracket(X, Z)))
            assert (lhs - rhs).is_zero(), (i, j, k)

    def test_pre_lie_all_27_triples(self):
        ctx = Context(3, False)
        a = DiffPermPoly.generator(1, (0, 0, 0), ctx)
        b = DiffPermPoly.generator(2, (0, 0, 0), ctx)
        c = DiffPermPoly.generator(3, (0, 0, 0), ctx)
        for i, j, k in itertools.product((1, 2, 3), repeat=3):
            X = FormalVectorField.make([(a, i)], ctx)
            Y = FormalVectorField.make([(b, j)], ctx)
            Z = FormalVectorField.make([(c, k)], ctx)
            axy = vf_prec(vf_prec(X, Y), Z) - vf_prec(X, vf_prec(Y, Z))
            ayx = vf_prec(vf_prec(Y, X), Z) - vf_prec(Y, vf_prec(X, Z))
            assert (axy - ayx).is_zero(), (i, j, k)


class TestSuites:
    def test_all_suites_report_expected_verdicts(self):
        for sid in SUITE_IDS:
            for r in run_suite(sid):
                assert r.ok, f"{sid}:{r.name}"

    def test_std5_reports_false_with_witness(self):
        results = {r.name: r for r in run_suite("c")}
        r = results["diamond-std5"]
        assert not r.verdict.is_identity and r.expected is False
        assert r.verdict.witness is not None

    def test_unknown_suite(self):
        with pytest.raises(AlgebraError, match="unknown suite"):
            run_suite("z")

    def test_suite_counts(self):
        assert [len(suite_cases(sid)) for sid in SUITE_IDS] == \
            [3, 3, 4, 1, 1, 1, 1, 1]
