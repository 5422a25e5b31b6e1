"""Spans of iterated derived products and their multilinear dimensions.

Two generated subalgebras are analysed: the closure of the generators under
the symmetrized product a b' + b a' and the closure under a' b + a b'.  The
explicit comparison family (star images, respectively derivatives, of the
weight -2 multilinear basis monomials) is proved to be a basis of the
multilinear degree-n component, of dimension C(2n-3, n-1), respectively
n * C(2n-3, n-1), by the product factorisations a•b = (ab)' and, when
a* = a' and b* = b', a⧫b = (ab)*: the closure is d, resp. star, of the span
of plain products, whose rank modulo a prime bounds its rank from below.
The prime rank is k times the star rank in degree k, so only star rows
are ranked.  The proof works on integer codes of monomials, one digit per
variable, and forms no polynomial; ``generate_S`` is its family as
polynomials.  The checks it rests on are spelled out at
``verify_dimension``, which returns one report per degree, naming the check
that failed.  ``generate_closure`` saturates the component exactly, by
fraction-free Gaussian elimination over integer column ids (``SpanBasis``);
it is the exact reference of the tests.  The closure component on any k
variables is the relabelled component on x1..xk, so only those are built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import index, mul
from typing import Iterable, Iterator, NamedTuple

from .algebra import (
    CTX_Q,
    AlgebraError,
    Context,
    DiffPermPoly,
    Monomial,
    Rational,
    Symbol,
    derived_product,
)

_NORMALIZE_EVERY = 8  # gcd-normalize a working row after this many eliminations


def _common_denominator(values: Iterable[Rational]) -> int:
    """The least positive integer that makes every value an integer."""
    denom = 1
    for v in values:
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    return denom


def _row_gcd_normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class SpanBasis:
    """Exact linear span of polynomials with membership queries.

    ``elements`` keeps the independent input polynomials in insertion order.
    Internally every monomial gets an integer column id the first time the
    basis sees it, and the span is held as primitive integer rows keyed by
    their smallest column.
    """

    def __init__(self, ctx: Context = CTX_Q):
        self.ctx = ctx
        self.elements: list[DiffPermPoly] = []
        self._cols: dict[Monomial, int] = {}
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _int_row(self, p: DiffPermPoly) -> dict[int, int]:
        """p as an integer row over this basis's column ids, denominators
        cleared; unseen monomials get new columns."""
        if p.ctx != self.ctx:
            raise AlgebraError("mixed contexts in span")
        if p.ctx.delta:
            raise AlgebraError("span computations require rational "
                               "coefficients")
        denom = _common_denominator(p.terms.values())
        cols = self._cols
        row = {}
        for m, c in p.terms.items():
            col = cols.get(m)
            if col is None:
                col = cols[m] = len(cols)
            row[col] = int(c * denom)
        return row

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Remainder of ``row`` against the pivots, empty iff ``row`` lies in
        the span.  ``row`` is consumed: it may be updated in place."""
        pivots = self._pivots
        steps = 0
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                return row
            a, b = row[lead], prow[lead]
            g = gcd(a, b)
            fa, fb = b // g, a // g
            if fa != 1:
                row = {c: v * fa for c, v in row.items()}
            for c, v in prow.items():
                w = row.get(c, 0) - v * fb
                if w:
                    row[c] = w
                else:
                    del row[c]
            steps += 1
            if steps % _NORMALIZE_EVERY == 0 and row:
                row = _row_gcd_normalize(row)
        return row

    def add(self, p: DiffPermPoly) -> bool:
        """Insert a polynomial; True when it enlarged the span."""
        rem = self._reduce(self._int_row(p))
        if not rem:
            return False
        rem = _row_gcd_normalize(rem)
        lead = min(rem)
        if rem[lead] < 0:
            rem = {c: -v for c, v in rem.items()}
        self._pivots[lead] = rem
        self.elements.append(p)
        return True

    def contains(self, p: DiffPermPoly) -> bool:
        return not self._reduce(self._int_row(p))


#: the prime of ``modular_rank``: the largest below 2^30, so an entry and
#: the product of two fit in one and two 30-bit digits of a Python int
MODULUS = 1073741789


def modular_rank(rows: Iterable[dict[int, int]],
                 stop: int | None = None) -> int:
    """Rank over GF(MODULUS) of sparse integer rows, each a map from column
    to value; reading stops once the rank reaches ``stop``.

    Each entry is reduced modulo the prime, so the result never exceeds the
    rank over Q, whatever the prime.  An entry that is no integer, such as a
    ``Fraction``, raises ``TypeError``.

    A row pivots on its largest column.  Any nonzero entry is a sound pivot,
    and the rank after each row, hence the rows read before it reaches
    ``stop``, does not depend on the choice.  On the dimension proof's rows
    the largest column fills in less than the smallest, the choice of
    ``SpanBasis``: at prime degree 7 the pivot rows end with 21701 entries,
    not 46226, and the elimination updates 2.7 million entries, not 6.2
    million.
    """
    p = MODULUS
    pivots: dict[int, dict[int, int]] = {}
    rows = iter(rows)  # no row is pulled once the rank reaches ``stop``
    while len(pivots) != stop and (row := next(rows, None)) is not None:
        r = {}
        for c, v in row.items():
            v = index(v) % p
            if v:
                r[c] = v
        get = r.get
        while r:
            lead = max(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in r.items()}
                break
            f = r[lead]
            for c, v in prow.items():
                w = (get(c, 0) - f * v) % p
                if w:
                    r[c] = w
                else:
                    del r[c]
    return len(pivots)


# The derived product that generates each variant's subalgebra.
_VARIANT_TAGS = {"star": "loz", "prime": "bullet"}


def _variant_tag(variant: str) -> str:
    tag = _VARIANT_TAGS.get(variant)
    if tag is None:
        raise AlgebraError(f"unknown variant: {variant!r}")
    return tag


#: the highest degree the ``dim`` command proves; star degree 12 already has
#: 352716 columns, while on a 2-core VM star 2..9, with 6435, takes about
#: 4 to 4.5 s at a 37 MB peak, building the 15521 of its 107928 product rows
#: that the rank reads, and star 2..10, with 24310, about 75 s at 156 MB;
#: prime 2..9, whose rank is star 9's, takes about 8 s at 170 MB
MAX_DIM_DEGREE = 12


def dimension_formula(n: int, variant: str) -> int:
    """Multilinear dimension of the generated subalgebra in degree n."""
    factor = 1 if _variant_tag(variant) == "loz" else n
    return factor * comb(2 * n - 3, n - 1)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def weight_minus2_monomials(n: int) -> list[Monomial]:
    """All basis monomials multilinear in x1..xn with weight -2: derivative
    orders summing to n-2 spread over the n distinct variables, times a
    choice of final factor."""
    out = []
    for orders in _compositions(n - 2, n):
        syms = [Symbol(k, (orders[k - 1],)) for k in range(1, n + 1)]
        for last_idx in range(n):
            rest = syms[:last_idx] + syms[last_idx + 1:]
            out.append(Monomial(tuple(sorted(rest)), syms[last_idx]))
    return out


def generate_S(n: int, variant: str) -> list[DiffPermPoly]:
    """The explicit comparison family in degree n: star images (variant
    ``star``, one per factor multiset, since star only sees the multiset) or
    derivatives (variant ``prime``) of the weight -2 multilinear monomials."""
    if n < 2:
        raise AlgebraError("generate_S needs degree n >= 2")
    _variant_tag(variant)  # refuses an unknown variant
    return _comparison_family(weight_minus2_monomials(n), variant)


def _comparison_family(monos: list[Monomial],
                       variant: str) -> list[DiffPermPoly]:
    """``generate_S`` on the weight -2 monomials ``monos`` of its degree."""
    out: list[DiffPermPoly] = []
    seen: set[tuple] = set()
    for m in monos:
        u = DiffPermPoly(CTX_Q, {m: 1})
        if variant == "prime":
            out.append(u.derive())
        elif (key := tuple(sorted(m.factors))) not in seen:
            seen.add(key)
            out.append(u.star())
    return out


def _relabel(p: DiffPermPoly, subset: tuple[int, ...]) -> DiffPermPoly:
    """Move p from x1..xk onto the variables of ``subset`` by xi -> x_subset[i-1].

    The map is strictly increasing, so sorted left factors stay sorted and
    distinct monomials stay distinct.
    """
    def image(s: Symbol) -> Symbol:
        return Symbol(subset[s.var - 1], s.dord)

    return DiffPermPoly(p.ctx, {Monomial(tuple(map(image, m.left)),
                                         image(m.last)): c
                                for m, c in p.terms.items()})


class _Components:
    """Spanning lists of the closure components on x1..xk for k = 1, 2, ...,
    and their images on other variable sets.

    ``canonical[k]`` spans the component on x1..xk; the one on a k-subset
    is its image under the increasing relabelling (see
    ``generate_closure``), built once per subset.  ``coded[k]`` holds the
    family of degree k (x1 for k = 1) coded, once the proof has proved it.
    """

    def __init__(self):
        self.canonical: list[list[DiffPermPoly]] = [
            [], [DiffPermPoly.generator(1, 0, CTX_Q)]]
        self.coded: dict[int, _Coded] = {1: [[((1,), 1, 1)]]}
        self.star: _Components | None = None  # prime: the star families
        self._relabelled: dict[tuple[int, ...], list[DiffPermPoly]] = {}

    def on(self, subset: tuple[int, ...]) -> list[DiffPermPoly]:
        got = self._relabelled.get(subset)
        if got is None:
            got = self._relabelled[subset] = [
                _relabel(p, subset) for p in self.canonical[len(subset)]]
        return got


def _splits(k: int, tag: str, smaller: int | None = None
            ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every split (left, right) of x1..xk into complementary nonempty
    pieces, the smaller of size ``smaller`` if given: over all sizes, the
    tagged products of the components on the two pieces span the component
    on x1..xk."""
    allvars = tuple(range(1, k + 1))
    for lsize in range(1, k):
        if smaller not in (None, min(lsize, k - lsize)):
            continue
        for left in combinations(allvars, lsize):
            if tag == "loz" and left[0] != 1:
                continue  # symmetric product: one order is enough
            yield left, tuple(v for v in allvars if v not in left)


def generate_closure(tag: str, n: int) -> list[DiffPermPoly]:
    """Spanning list of the multilinear degree-n component of the subalgebra
    generated by x1..xn under the tagged product.

    The component supported on a variable set A is spanned by products of
    the components of complementary nonempty pieces of A, so a single pass
    in order of increasing size saturates.  Only the components on x1..xk
    are saturated; the one on any other k-subset is its image under the
    increasing relabelling, which maps each product of one saturation to
    the matching product of the other and keeps linear independence, so
    the element lists agree.
    """
    if tag not in ("loz", "bullet"):
        raise AlgebraError(f"closure is defined for loz/bullet, not {tag!r}")
    if n < 1:
        raise AlgebraError("degree must be >= 1")
    comps = _Components()
    for k in range(2, n + 1):
        basis = SpanBasis(CTX_Q)
        for left, right in _splits(k, tag):
            for a in comps.on(left):
                for b in comps.on(right):
                    basis.add(derived_product(tag, a, b))
        comps.canonical.append(basis.elements)
    return comps.canonical[n]


class DimensionReport(NamedTuple):
    """Outcome of the dimension proof in degree n for one variant: the
    proved dimension, or the check that failed and no dimension."""

    n: int
    variant: str
    formula: int
    dim: int | None
    failed: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed is None and self.dim == self.formula

    def record(self) -> dict:
        rec = {"n": self.n, "variant": self.variant, "formula": self.formula,
               "rank_closure": self.dim, "rank_S": self.dim, "ok": self.ok}
        if self.failed is not None:
            rec["failed"] = self.failed
        return rec


class _Failed(Exception):
    """A step of the dimension proof failed; the message names it."""


#: a coded family: each element's terms as (digits, last variable,
#: coefficient), digits[i - 1] being xi's derivative order + 1
_Coded = list[list[tuple[tuple[int, ...], int, Rational]]]


def _image(digits: tuple[int, ...], last: int, star: bool,
           c: Rational = 1) -> list[tuple[tuple[int, ...], int, Rational]]:
    """c d(u), or c star(u), for u coded by ``digits`` and ``last``: as in
    ``DiffPermPoly.derive`` and ``star``, each variable's digit raised in
    turn, the last variable's last; star makes the raised variable last."""
    out = []
    for v in (*range(1, last), *range(last + 1, len(digits) + 1), last):
        raised = [*digits]
        raised[v - 1] += 1
        out.append((tuple(raised), v if star else last, c))
    return out


def _family(k: int, star: bool
            ) -> tuple[list[tuple[tuple[int, ...], int]], _Coded]:
    """The columns of degree k as (digits, last variable), in the order of
    ``weight_minus2_monomials``, for star the first of each factor multiset
    (ending in x1); and ``generate_S`` coded: their images, in order."""
    units = [(digits, last) for orders in _compositions(k - 2, k)
             for digits in [tuple(o + 1 for o in orders)]
             for last in ((1,) if star else range(1, k + 1))]
    return units, [_image(digits, last, star) for digits, last in units]


def _star_is_derivative(s: list) -> bool:
    """s* = s' for the coded element s: both raise each digit of a term in
    turn, and star makes the raised variable last."""
    acc: dict[tuple, Rational] = {}
    for digits, last, c in s:
        for raised, v, _ in _image(digits, last, True):
            acc[raised, v] = acc.get((raised, v), 0) + c
            acc[raised, last] = acc.get((raised, last), 0) - c
    return not any(acc.values())


def _moved(family: _Coded, subset: tuple[int, ...], radix: int
           ) -> list[list[int]]:
    """A coded family on x1..xj moved onto ``subset`` by xi -> x_subset[i-1]:
    each term as its code, the digits in base ``radix`` at the subset's
    places; the coefficients are dropped (see ``verify_dimension``)."""
    place = [radix ** (v - 1) for v in subset]
    return [[sum(map(mul, digits, place)) for digits, _, _ in terms]
            for terms in family]


def _level(k: int, variant: str, comps: _Components) -> _Coded:
    """The family ``generate_S(k, variant)`` coded, once the proof (see
    ``verify_dimension``) shows it is a basis of the closure component on
    x1..xk, whose operands are ``comps.coded[k - 1]`` relabelled.  Raises
    ``_Failed`` naming the first check that fails, or the rank."""
    star = _variant_tag(variant) == "loz"
    failed = f"degree {k}: check "
    # checks 1 and 5 on the operands, the last family or x1, as relabelled:
    # each term on x1..x(k-1), every digit positive, of weight -1
    operands = comps.coded[k - 1]
    if not all(len(digits) == k - 1 and 0 < last < k and min(digits) > 0
               and sum(digits) == 2 * k - 3
               for terms in operands for digits, last, _ in terms):
        raise _Failed(failed + "1")
    if star and not all(map(_star_is_derivative, operands)):
        raise _Failed(failed + "5")
    units, family = _family(k, star)
    if len(family) != len(units):
        raise _Failed(failed + "2")
    # a lead: the greatest term by its last variable's digit, then (digits,
    # last variable)
    leads = [max(p, key=lambda t: (t[0][t[1] - 1], t[0], t[1]), default=None)
             for p in family]
    if None in leads or len({t[:2] for t in leads}) != len(leads):
        raise _Failed(failed + "3")
    shapes = {digits for digits, _ in units}
    for p, (digits, last, a) in zip(family, leads):
        u = digits[:last - 1] + (digits[last - 1] - 1,) + digits[last:]
        img = _image(u, last, star, a)  # p = a img, term for term
        if not (a and 0 < last <= k and u in shapes
                and (p == img or len(p) == len(img) and set(p) == set(img))):
            raise _Failed(failed + "4")
    if not star:  # the rank is k times the star rank of degree k
        stars = comps.star = comps.star or _Components()
        for j in range(max(stars.coded) + 1, k + 1):
            stars.coded[j] = _level(j, "star", stars)
        if len(family) != k * len(stars.coded[k]):
            raise _Failed(f"degree {k}: rank")
        return family
    place = [k ** i for i in range(k)]  # codes: see ``verify_dimension``
    cols = {sum(map(mul, digits, place)): col
            for col, (digits, _) in enumerate(units)}

    def rows() -> Iterator[dict[int, int]]:
        # in stages by the smaller side's size, each row built as the rank
        # reads it; a term of ab sums its factors' codes, and one off the
        # columns fails check 1
        for smaller in range(1, k // 2 + 1):
            for left, right in _splits(k, "loz", smaller):
                rights = _moved(comps.coded[len(right)], right, k)
                for a in _moved(comps.coded[len(left)], left, k):
                    for b in rights:
                        row: dict[int, int] = {}
                        get = row.get
                        try:
                            for ca in a:
                                for cb in b:
                                    col = cols[ca + cb]
                                    row[col] = get(col, 0) + 1
                        except KeyError:
                            raise _Failed(failed + "1") from None
                        yield row

    if modular_rank(rows(), stop=len(family)) != len(family):
        raise _Failed(f"degree {k}: rank")
    return family


def verify_dimension(n: int, variant: str) -> list[DimensionReport]:
    """Prove, in each degree k = 2..n, that the explicit family is a basis
    of the closure component on x1..xk, so that its size is the dimension,
    and compare that with the closed-form dimension: one report per degree,
    in order.  Each degree's proof rests on the family of the degree below,
    so one call proves a whole range of degrees.

    The proof of degree k is ``_level``.  The component on x1..xk is
    spanned by the products of elements a, b of the components on
    complementary pieces, each a lower-degree family (or x1) relabelled.  As
    a•b = (ab)', and a⧫b = (ab)* when a* = a' and b* = b', the component is
    d (resp. star) of the span of the rows ab over the monomials (resp. the
    factor multisets, all that star sees).  A multilinear monomial on x1..xk
    is coded by one digit per variable, its derivative order + 1, and its
    last variable; read in base k, the digits of a term of ab sum those its
    factors have in a and b.  The families, the checks and the rows work on
    these codes, and the proof forms no polynomial.  It checks:

    1. every operand of level k, the family S_(k-1) or x1, is multilinear
       in its variables and of weight -1, so every digit is below k, every
       term of a product ab is a weight -2 monomial on x1..xk, a column,
       and the component lies in d (resp. star) of the columns' span; a
       built row with a code off the columns fails this check too;
    2. the family S_k has one element per column;
    3. the leads of S_k, its elements' greatest terms by the last digit
       first, are pairwise distinct, so S_k is independent;
    4. each element is a nonzero multiple of d(u) (resp. star(u)) for u a
       column, its lead with the last digit lowered; with 2 and 3, d (resp.
       star) maps the columns onto a basis of span(S_k), injectively;
    5. for star, s* = s' on every operand s of level k, in closed form.

    Then, for star, rank |S_k| of the rows modulo ``MODULUS``, a lower bound
    of their rank over Q, hence by 4 of the component's, proves that the
    component is span(S_k).  By 4 the rows may take every coefficient of an
    operand as 1, so they are integral.  The rank reads them in stages, by
    the size of the smaller side's variable set, each built as it is read.

    For prime, the rank of the rows is k times the star rank of degree k:

    - Blocks.  By 4 every term of a prime row ab carries b's last variable,
      so the rows split into k column-disjoint blocks.
    - Transposition.  Swapping x_l and x_k is an automorphism.  It maps the
      span of block l onto that of block k, so the prime rank is k times
      block k's rank.
    - π is a bijection.  π, which forgets which factor is last, is
      multiplicative and π(d(u)) = π(star(u)).  Checks 2-4 on both families
      make π of the prime operands nonzero multiples of the star operands,
      each one met.  π is a bijection from block k's columns onto the star
      columns, so block k's rank is the star rank.

    So checks 1-4, the star level of degree k and |S_k| = k |star S_k|
    prove prime degree k.  From the degree where a check or the rank fails,
    each report names it in ``failed`` and claims no dimension.
    """
    if n < 2:
        raise AlgebraError("verify_dimension needs n >= 2")
    comps, failed, reports = _Components(), None, []
    for k in range(2, n + 1):
        if failed is None:
            try:
                comps.coded[k] = _level(k, variant, comps)
            except _Failed as e:
                failed = str(e)
        reports.append(DimensionReport(
            k, variant, dimension_formula(k, variant),
            dim=None if failed else len(comps.coded[k]), failed=failed))
    return reports
