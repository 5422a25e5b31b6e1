"""The tensor perm algebra P_n = k[x_1..x_n] (x) span(x_1..x_n) with its
Euler-type derivations, term by term from their definitions.

The Witt-type brackets of ``permdiff.witt`` are fused from these two
operations; the tests rebuild every bracket from them as an independent
oracle, and use ``PermTensorElem`` as one more space on the shared
linear-combination core.
"""

from __future__ import annotations

from typing import NamedTuple

from permdiff.algebra import AlgebraError, LinearCombination, Rational


class TBasis(NamedTuple):
    """Basis element x^e (x) x_alpha of the tensor perm algebra."""

    e: tuple[int, ...]
    alpha: int


class PermTensorElem(LinearCombination):
    """Element of the tensor perm algebra P_n: a linear combination of
    ``TBasis`` elements; immutable by convention."""

    __slots__ = ()
    n = LinearCombination.space  # the space slot, under its name here
    _MISMATCH = "tensor algebra dimension mismatch"

    @classmethod
    def basis(cls, n: int, e: tuple[int, ...], alpha: int) -> "PermTensorElem":
        if len(e) != n or not 1 <= alpha <= n or any(k < 0 for k in e):
            raise AlgebraError("bad tensor basis data")
        return cls(n, {TBasis(tuple(e), alpha): 1})

    def __repr__(self):
        return f"<PermTensorElem n={self.n} {self.terms}>"


def perm_product(a: PermTensorElem, b: PermTensorElem) -> PermTensorElem:
    """(x^e (x) x_alpha)(x^f (x) x_beta) = x^{e+f+1_alpha} (x) x_beta."""
    a._check(b)
    acc: dict[TBasis, Rational] = {}
    for (e, alpha), c1 in a.terms.items():
        for (f, beta), c2 in b.terms.items():
            g = [x + y for x, y in zip(e, f)]
            g[alpha - 1] += 1
            key = TBasis(tuple(g), beta)
            acc[key] = acc.get(key, 0) + c1 * c2
    return PermTensorElem(a.n, acc)


def euler_derivation(i: int, a: PermTensorElem) -> PermTensorElem:
    """D_i scales x^e (x) x_alpha by e_i, plus one more when alpha = i."""
    if not 1 <= i <= a.n:
        raise AlgebraError("derivation index out of range")
    return PermTensorElem(a.n, {k: (k.e[i - 1] + (1 if k.alpha == i else 0)) * c
                                for k, c in a.terms.items()})
