"""The shared sparse linear-combination core, checked against a plain-dict
model for polynomials, tensor elements and Witt elements."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import monomials_st
from permdiff.algebra import (
    CTX_DELTA,
    CTX_Q,
    DELTA,
    AlgebraError,
    DiffPermPoly,
    LinearCombination,
)
from permdiff.witt import PermTensorElem, TBasis, WBasis, WittElement

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
    A, B = cls(space, a), cls(space, b)
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
    terms = {TBasis((0, 0), 1): Fraction(1, 2)}
    assert PermTensorElem(2, terms, _owned=True).terms is terms


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
