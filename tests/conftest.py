import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

import permdiff.spans as spans
from oracles import decode, encode
from permdiff.algebra import CTX_Q, DiffPermPoly, Monomial, Symbol, normalize

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


def symbols_st(max_var=3, max_order=2):
    return st.builds(lambda v, o: Symbol(v, (o,)),
                     st.integers(1, max_var), st.integers(0, max_order))


def monomials_st(max_var=3, max_order=2, max_degree=4):
    return st.lists(symbols_st(max_var, max_order),
                    min_size=1, max_size=max_degree).map(normalize)


def polys_st(max_var=3, max_order=2, max_degree=3, max_terms=3):
    term = st.tuples(monomials_st(max_var, max_order, max_degree),
                     st.integers(-3, 3))
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda pairs: DiffPermPoly.from_terms(pairs, CTX_Q))


def enumerate_symbols(max_var, max_order):
    return [Symbol(v, (o,))
            for v in range(1, max_var + 1) for o in range(max_order + 1)]


def enumerate_multisets(syms, size):
    return list(itertools.combinations_with_replacement(sorted(syms), size))


def enumerate_monomials(max_var, max_order, max_degree, min_degree=1):
    """Every canonical basis monomial over the given symbol ranges."""
    syms = enumerate_symbols(max_var, max_order)
    out = []
    for deg in range(min_degree, max_degree + 1):
        for ms in enumerate_multisets(syms, deg):
            for last in sorted(set(ms)):
                rest = list(ms)
                rest.remove(last)
                out.append(Monomial(tuple(rest), last))
    return out


@pytest.fixture(scope="session")
def monomial_pool_deg3():
    """Enumerated pool of monomials of degree <= 3 (2 vars, orders <= 1)."""
    return enumerate_monomials(2, 1, 3)


def break_family(monkeypatch, how):
    """Pass the degree-k comparison family through ``how(k, family)``
    wherever it is made: in ``generate_S`` and, decoded into polynomials
    and coded again, in the coordinate proof."""
    real, real_coded = spans._comparison_family, spans._family
    monkeypatch.setattr(spans, "_comparison_family", lambda monos, variant: (
        how(monos[0].degree, real(monos, variant))))

    def coded(k, star):
        units, family = real_coded(k, star)
        return units, encode(how(k, decode(family)), k)

    monkeypatch.setattr(spans, "_family", coded)
