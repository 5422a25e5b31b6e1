"""The shared sparse linear-combination core, checked against a plain-dict
model for polynomials, tensor elements and Witt elements, and every kernel
that sums terms into it checked against a naive coefficient sum."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import monomials_st
from oracles import rename_vars
from perm_tensor import PermTensorElem, TBasis
from permdiff.algebra import (
    CTX_DELTA,
    CTX_Q,
    DELTA,
    AlgebraError,
    Context,
    DeltaPoly,
    DiffPermPoly,
    LinearCombination,
    Monomial,
    Symbol,
    apply_substitution,
    multiset_normal_form,
    normalize,
)
from permdiff.exprs import FormalVectorField
from permdiff.witt import (
    WBasis,
    WittElement,
    leibniz_bracket,
    lie_bracket,
)

EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2))
SLOT = st.integers(1, 2)

# class, basis keys, its space, another space, mismatch message
CASES = {
    "poly": (DiffPermPoly, monomials_st(2, 1, 3), CTX_Q, CTX_DELTA,
             "context mismatch"),
    "tensor": (PermTensorElem, st.builds(TBasis, EXPS, SLOT), 2, 3,
               "tensor algebra dimension mismatch"),
    "witt": (WittElement, st.builds(WBasis, EXPS, SLOT, SLOT), 2, 3,
             "Witt algebra dimension mismatch"),
}
COEFFS = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-2, max_value=2, max_denominator=4))


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def ref_scale(a: dict, c) -> dict:
    return {k: c * v for k, v in a.items() if c * v}


@st.composite
def operand_pairs(draw, keys):
    """Two coefficient dicts, zeros included, where the second cancels a
    drawn part of the first exactly."""
    a = draw(st.dictionaries(keys, COEFFS, max_size=5))
    cancel = draw(st.sets(st.sampled_from(sorted(a)), max_size=len(a))
                  if a else st.just(set()))
    b = draw(st.dictionaries(keys, COEFFS, max_size=4))
    for k in cancel:
        b[k] = -a[k]
    return a, b


def _nonzero(d: dict) -> dict:
    return {k: c for k, c in d.items() if c}


@pytest.mark.parametrize("case", sorted(CASES))
@given(data=st.data())
def test_core_matches_dict_model(case, data):
    cls, keys, space, _, _ = CASES[case]
    a, b = data.draw(operand_pairs(keys))
    c = data.draw(COEFFS)
    A, B = cls(space, dict(a)), cls(space, dict(b))  # each takes its dict
    assert A.terms == _nonzero(a) and B.terms == _nonzero(b)
    assert bool(A) == (not A.is_zero()) == bool(_nonzero(a))
    assert len(A) == len(_nonzero(a))
    for got, want in ((A + B, ref_add(a, b)),
                      (A - B, ref_add(a, ref_scale(b, -1))),
                      (-A, ref_scale(a, -1)),
                      (A.scale(c), ref_scale(a, c)),
                      (A - A, {}),
                      (A + -A, {})):
        assert type(got) is cls and got.space == space
        assert got.terms == want
        assert all(got.terms.values())
    assert (A == B) == (_nonzero(a) == _nonzero(b))
    assert A == cls(space, dict(a)) and not A != cls(space, dict(a))
    assert (A + B) - B == A


@pytest.mark.parametrize("case", sorted(CASES))
@given(data=st.data())
def test_core_refuses_another_space(case, data):
    cls, keys, space, other, message = CASES[case]
    a = data.draw(st.dictionaries(keys, COEFFS, max_size=3))
    b = data.draw(st.dictionaries(keys, COEFFS, max_size=3))
    A, B = cls(space, a), cls(other, b)
    for op in (lambda: A + B, lambda: A - B, lambda: B + A):
        with pytest.raises(AlgebraError, match=message):
            op()
    assert A != cls(other, a)


def test_space_slot_keeps_its_names():
    p = DiffPermPoly(CTX_Q, {})
    t = PermTensorElem(2, {TBasis((0, 1), 1): 1})
    w = WittElement.zero(3)
    assert p.ctx == p.space == CTX_Q and t.n == t.space == 2 and w.n == 3
    assert DiffPermPoly.zero() == DiffPermPoly.zero(CTX_Q)
    assert isinstance(w, LinearCombination) and not hasattr(w, "__dict__")


def test_owned_terms_are_taken_as_given():
    # the dict is taken over, its zero entries deleted
    mixed = {TBasis((0, 0), 1): 0, TBasis((1, 0), 1): Fraction(1, 2)}
    assert PermTensorElem(2, mixed).terms is mixed
    assert mixed == {TBasis((1, 0), 1): Fraction(1, 2)}


def test_classes_never_compare_equal_or_combine():
    key_t, key_w = TBasis((0, 0), 1), WBasis((0, 0), 1, 1)
    elems = [DiffPermPoly.zero(), PermTensorElem.zero(2), WittElement.zero(2),
             PermTensorElem(1, {key_t: 1}), WittElement(1, {key_t: 1}),
             WittElement(1, {key_w: 1})]
    for u in elems:
        for v in elems:
            if type(u) is not type(v):
                assert u != v and not u == v
                with pytest.raises(TypeError):
                    u + v
                with pytest.raises(TypeError):
                    u - v


def test_scalar_admission_is_per_class():
    p = DiffPermPoly.generator(1)
    with pytest.raises(AlgebraError, match="rational context"):
        p.scale(DELTA)
    with pytest.raises(AlgebraError, match="not an exact scalar"):
        p.scale(0.5)
    assert DiffPermPoly.generator(1, 0, CTX_DELTA).scale(DELTA).terms
    e = WittElement.basis(1, (0,), 1, 1)
    assert e.scale(Fraction(2, 3)).terms == {WBasis((0,), 1, 1): Fraction(2, 3)}
    assert e.scale(0) == WittElement.zero(1)


# ---------------------------------------------------------------------------
# the kernels: each result holds no zero and equals a naive sum
# ---------------------------------------------------------------------------


def model_sum(pairs) -> dict:
    """Each key's coefficients summed from Fraction(0), zeros dropped."""
    out: dict = {}
    for k, c in pairs:
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def assert_matches(got, want: dict):
    assert all(got.terms.values())
    assert got.terms == want


DELTA_COEFFS = st.builds(lambda a, b: DeltaPoly((a, b)), COEFFS, COEFFS)


@st.composite
def cancelling_terms(draw, ctx: Context):
    """(factors, coefficient) pairs in which drawn terms come back negated,
    with their left factors reordered (the same monomial) or their factors
    shuffled (the same factor multiset, so a right product, star and the
    multiset normal form cancel them)."""
    syms = st.builds(Symbol, st.integers(1, 3),
                     st.tuples(*[st.integers(0, 1)] * ctx.arity))
    coeffs = st.one_of(COEFFS, DELTA_COEFFS) if ctx.delta else COEFFS
    drawn = draw(st.lists(st.tuples(st.lists(syms, min_size=1, max_size=3),
                                    coeffs), max_size=4))
    out = list(drawn)
    for fs, c in drawn:
        if draw(st.booleans()):
            out.append((draw(st.permutations(fs[:-1])) + [fs[-1]], -c))
        if draw(st.booleans()):
            out.append((draw(st.permutations(fs)), -c))
    return draw(st.permutations(out))


def poly_and_model(pairs, ctx: Context):
    terms = [(normalize(fs), c) for fs, c in pairs]
    return DiffPermPoly.from_terms(terms, ctx), model_sum(terms)


def model_mul(a: dict, b: dict) -> dict:
    return model_sum((normalize(m1.factors + m2.factors), c1 * c2)
                     for m1, c1 in a.items() for m2, c2 in b.items())


def model_derive(a: dict) -> dict:
    """Leibniz over the factors, one derivation."""
    return model_sum(
        (normalize(m.factors[:i] + (s.derived(0),) + m.factors[i + 1:]), c)
        for m, c in a.items() for i, s in enumerate(m.factors))


def model_star(a: dict) -> dict:
    """Each factor derived in turn and moved to the end."""
    return model_sum(
        (normalize(m.factors[:i] + m.factors[i + 1:] + (s.derived(0),)), c)
        for m, c in a.items() for i, s in enumerate(m.factors))


def model_substitute(a: dict, images: dict) -> dict:
    """The product, factor by factor, of each factor's image."""
    out = []
    for m, c in a.items():
        prod = None
        for s in m.factors:
            if s.var in images:
                img = images[s.var]
                for _ in range(s.order):
                    img = model_derive(img)
            else:
                img = {Monomial((), s): 1}
            prod = img if prod is None else model_mul(prod, img)
        out += [(k, c * d) for k, d in prod.items()]
    return model_sum(out)


BOTH_CONTEXTS = pytest.mark.parametrize("ctx", [CTX_Q, CTX_DELTA],
                                        ids=["rational", "delta"])


@BOTH_CONTEXTS
@given(data=st.data())
def test_product_renaming_and_normal_form_sum_exactly(ctx, data):
    p, pm = poly_and_model(data.draw(cancelling_terms(ctx)), ctx)
    q, qm = poly_and_model(data.draw(cancelling_terms(ctx)), ctx)
    assert_matches(p, pm)
    assert_matches(p * q, model_mul(pm, qm))
    assert_matches(p * p, model_mul(pm, pm))
    mapping = data.draw(st.dictionaries(st.integers(1, 3), st.integers(1, 3)))
    assert_matches(rename_vars(p, mapping), model_sum(
        (normalize([Symbol(mapping.get(s.var, s.var), s.dord)
                    for s in m.factors]), c) for m, c in pm.items()))
    assert_matches(multiset_normal_form(p), model_sum(
        (normalize(sorted(m.factors)), c) for m, c in pm.items()))


@given(data=st.data())
def test_derive_star_and_substitution_sum_exactly(data):
    p, pm = poly_and_model(data.draw(cancelling_terms(CTX_Q)), CTX_Q)
    assert_matches(p.derive(), model_derive(pm))
    assert_matches(p.star(), model_star(pm))
    images, image_models = {}, {}
    for v in data.draw(st.sets(st.integers(1, 3), max_size=2)):
        q, qm = poly_and_model(data.draw(cancelling_terms(CTX_Q)), CTX_Q)
        images[v], image_models[v] = q, qm
    assert_matches(apply_substitution(p, images),
                   model_substitute(pm, image_models))


@given(data=st.data())
def test_vector_field_slots_sum_exactly(data):
    ctx = Context(2, True)
    pairs, model = [], {}
    for _ in range(data.draw(st.integers(0, 4))):
        p, pm = poly_and_model(data.draw(cancelling_terms(ctx)), ctx)
        slot = data.draw(SLOT)
        pairs.append((p, slot))
        if data.draw(st.booleans()):
            pairs.append((-p, slot))
            pm = {}
        model[slot] = model_sum([*model.get(slot, {}).items(), *pm.items()])
    X = FormalVectorField.make(data.draw(st.permutations(pairs)), ctx)
    assert all(X.terms.values())
    assert {i: a.terms for i, a in X.terms.items()} == {
        i: t for i, t in model.items() if t}


def model_bracket(v: dict, w: dict, kind: str) -> dict:
    """The bracket of the Witt module docstring, term by term, with
    lam_i(x^e (x) x_alpha) = e_i + [alpha = i] the Euler eigenvalue."""
    def lam(e, alpha, i):
        return e[i - 1] + (alpha == i)

    def prod(e, alpha, f):
        return tuple(a + b + (k == alpha) for k, (a, b)
                     in enumerate(zip(e, f), start=1))

    out = []
    for (e, alpha, i), c1 in v.items():
        for (f, beta, j), c2 in w.items():
            c = c1 * c2
            if kind == "lie":  # a D_i(b) D_j - b D_j(a) D_i
                out += [(WBasis(prod(e, alpha, f), beta, j),
                         lam(f, beta, i) * c),
                        (WBasis(prod(f, beta, e), alpha, i),
                         -lam(e, alpha, j) * c)]
            else:  # D_j(a) b D_i - a D_i(b) D_j
                out += [(WBasis(prod(e, alpha, f), beta, i),
                         lam(e, alpha, j) * c),
                        (WBasis(prod(e, alpha, f), beta, j),
                         -lam(f, beta, i) * c)]
    return model_sum(out)


@given(data=st.data())
def test_witt_brackets_sum_exactly(data):
    _, keys, n, _, _ = CASES["witt"]
    a, b = data.draw(operand_pairs(keys))
    A, B = WittElement(n, a), WittElement(n, b)
    for v, w in ((A, B), (B, A), (A, A), (A + B, A - B)):
        for kind, bracket in (("lie", lie_bracket),
                              ("leibniz", leibniz_bracket)):
            assert_matches(bracket(v, w), model_bracket(v.terms, w.terms, kind))
