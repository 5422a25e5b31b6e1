"""Exact arithmetic in free differential perm algebras.

A perm algebra is an associative algebra satisfying the left-commutative
law (a b) c = (b a) c.  Consequently a monomial is determined by the
multiset of all factors except the final one, plus the final factor; we
keep the left part sorted and that sorted word is the canonical form.
Generators x_k carry formal derivative multi-indices, one slot per
derivation of the ambient context (one slot in the usual single-derivation
setting).

All coefficient arithmetic is exact: plain rationals, or univariate
rational polynomials in a formal parameter delta for computations with a
delta-scaled Leibniz rule.  There is no floating point anywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union


class AlgebraError(ValueError):
    """Raised for invalid algebra operations (context mismatch, bad input)."""


# ---------------------------------------------------------------------------
# contexts and scalars
# ---------------------------------------------------------------------------


class Context(NamedTuple):
    """Ambient setting of a computation: derivation arity and scalar domain.

    ``arity`` is the number of commuting formal derivations; ``delta`` selects
    rational-polynomial coefficients in the formal parameter delta instead of
    plain rationals.  Values from different contexts never mix silently.
    """

    arity: int = 1
    delta: bool = False


#: plain rationals, one derivation
CTX_Q = Context(1, False)
#: coefficients in Q[delta], one delta-derivation
CTX_DELTA = Context(1, True)


def _frozen(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of an immutable value."""
    raise AttributeError(f"cannot assign to field {name!r}")


class DeltaPoly:
    """A univariate polynomial in the formal parameter delta over Q.

    Immutable.  Interoperates with ``int`` and ``Fraction`` (constants embed
    canonically into Q[delta]).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        # copies and unpickled values are made again, not assigned to
        return DeltaPoly, (self.coeffs,)

    # -- construction helpers

    @classmethod
    def const(cls, c) -> "DeltaPoly":
        return cls((c,))

    @classmethod
    def _lift(cls, other):
        if isinstance(other, DeltaPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return cls((other,))
        return None

    # -- ring operations

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return DeltaPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return DeltaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return DeltaPoly()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return DeltaPoly(out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        return f"DeltaPoly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                head = str(c)
            else:
                var = "δ" if k == 1 else f"δ^{k}"
                if c == 1:
                    head = var
                elif c == -1:
                    head = f"-{var}"
                else:
                    head = f"{c}*{var}"
            parts.append(head)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


#: the formal parameter itself
DELTA = DeltaPoly((0, 1))

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, DeltaPoly]


def _coerce_scalar(c, ctx: Context) -> Scalar:
    """Admit a scalar into the coefficient domain of ``ctx`` or fail."""
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, DeltaPoly):
        if not ctx.delta:
            raise AlgebraError("delta coefficient in a rational context")
        return c
    raise AlgebraError(f"not an exact scalar: {c!r}")


# ---------------------------------------------------------------------------
# symbols and monomials
# ---------------------------------------------------------------------------


class Symbol(NamedTuple):
    """One differential generator: variable index plus derivative multi-index.

    Symbols order lexicographically by (var, dord); that order is the
    canonical order used for monomial normal forms.
    """

    var: int
    dord: tuple[int, ...]

    def derived(self, axis: int = 0, times: int = 1) -> "Symbol":
        d = list(self.dord)
        d[axis] += times
        return Symbol(self.var, tuple(d))

    @property
    def order(self) -> int:
        return sum(self.dord)


def symbol(var: int, order: Union[int, Sequence[int]] = 0, arity: int = 1) -> Symbol:
    """Build a generator symbol; ``order`` is an int (single derivation) or a
    full multi-index of length ``arity``."""
    if var < 1:
        raise AlgebraError("variable index must be >= 1")
    if isinstance(order, int):
        if order < 0:
            raise AlgebraError("derivative order must be >= 0")
        if arity == 1:
            return Symbol(var, (order,))
        if order == 0:
            return Symbol(var, (0,) * arity)
        raise AlgebraError("scalar order is ambiguous for arity > 1")
    dord = tuple(order)
    if len(dord) != arity or any(s < 0 for s in dord):
        raise AlgebraError("bad derivative multi-index")
    return Symbol(var, dord)


class Monomial(NamedTuple):
    """Canonical basis monomial: sorted left factors plus a final factor."""

    left: tuple[Symbol, ...]
    last: Symbol

    @property
    def degree(self) -> int:
        return len(self.left) + 1

    @property
    def factors(self) -> tuple[Symbol, ...]:
        return self.left + (self.last,)


def normalize(raw: Sequence[Symbol]) -> Monomial:
    """Canonical form of a factor sequence: sort everything but the last."""
    if not raw:
        raise AlgebraError("empty monomial")
    return Monomial(tuple(sorted(raw[:-1])), raw[-1])


def monomial_key(m: Monomial):
    """Total order on monomials: degree, then the canonical factor sequence."""
    return (len(m.left), m.left, m.last)


def grade(m: Monomial, arity: int = 1) -> tuple[int, int]:
    """Degree and weight of a basis monomial.

    The weight grading gives every underived generator weight -1 and raises
    weight by one per derivative, so a monomial's weight is the total
    derivative order minus the degree.  It is only defined in the
    single-derivation setting.
    """
    if arity != 1:
        raise AlgebraError("weight is defined only for a single derivation")
    deg = m.degree
    return deg, sum(s.order for s in m.factors) - deg


def format_symbol(s: Symbol) -> str:
    if len(s.dord) == 1:
        k = s.dord[0]
        if k == 0:
            return f"x{s.var}"
        if k <= 3:
            return f"x{s.var}" + "'" * k
        return f"x{s.var}^({k})"
    if any(s.dord):
        return f"x{s.var}^({','.join(map(str, s.dord))})"
    return f"x{s.var}"


def format_monomial(m: Monomial) -> str:
    return " ".join(format_symbol(s) for s in m.factors)


# ---------------------------------------------------------------------------
# sparse linear combinations
# ---------------------------------------------------------------------------


class LinearCombination:
    """A finite linear combination over a basis, in one ambient space.

    Stored as a map from basis keys to nonzero exact scalars.  Instances are
    immutable by convention: no method mutates ``terms`` after construction,
    so values can be shared freely.  The constructor takes over the dict it
    is handed and is the one place that deletes zero entries.

    Subclasses name the ``space`` slot after what it holds (``ctx`` or
    ``n``) and may override the two hooks: ``_check``, which refuses an
    operand from another space with the message ``_MISMATCH`` (formatted
    with both spaces), and ``_scalar``, which admits a scalar coefficient.
    Elements of different subclasses never combine or compare equal.
    """

    __slots__ = ("space", "terms")
    _MISMATCH = "space mismatch: {} vs {}"

    def __init__(self, space, terms: dict):
        if not all(terms.values()):
            for k in [k for k, c in terms.items() if not c]:
                del terms[k]
        self.space = space
        self.terms = terms

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    # -- hooks

    def _check(self, other: "LinearCombination") -> None:
        if self.space != other.space:
            raise AlgebraError(self._MISMATCH.format(self.space, other.space))

    def _scalar(self, c):
        return c

    # -- basic structure

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    __hash__ = None  # mutable dict inside; not intended as a key

    # -- linear structure

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        # no 0 + c: coefficients may be polynomials (``FormalVectorField``)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc[k] + c if k in acc else c
        return type(self)(self.space, acc)

    def __neg__(self):
        return type(self)(self.space, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = self._scalar(c)
        if not c:
            return self.zero(self.space)
        return type(self)(self.space,
                          {k: c * v for k, v in self.terms.items()})


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class DiffPermPoly(LinearCombination):
    """An element of the free differential perm algebra, in normal form:
    a linear combination of canonical monomials over the context ``ctx``."""

    __slots__ = ()
    ctx = LinearCombination.space  # the space slot, under its name here
    _MISMATCH = "context mismatch: {} vs {}"

    # -- constructors

    @classmethod
    def zero(cls, ctx: Context = CTX_Q) -> "DiffPermPoly":
        return super().zero(ctx)

    @classmethod
    def generator(cls, var: int, order: Union[int, Sequence[int]] = 0,
                  ctx: Context = CTX_Q) -> "DiffPermPoly":
        s = symbol(var, order, ctx.arity)
        one: Scalar = DeltaPoly.const(1) if ctx.delta else 1
        return cls(ctx, {Monomial((), s): one})

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Monomial, Scalar]],
                   ctx: Context = CTX_Q) -> "DiffPermPoly":
        acc: dict[Monomial, Scalar] = {}
        for m, c in pairs:
            for s in m.factors:
                if len(s.dord) != ctx.arity:
                    raise AlgebraError("symbol arity does not match context")
            acc[m] = acc.get(m, 0) + _coerce_scalar(c, ctx)
        return cls(ctx, acc)

    @classmethod
    def monomial(cls, syms: Sequence[Symbol], coeff: Scalar = 1,
                 ctx: Context = CTX_Q) -> "DiffPermPoly":
        return cls.from_terms([(normalize(syms), coeff)], ctx)

    # -- basic structure

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda mc: monomial_key(mc[0]))

    def variables(self) -> list[int]:
        vs = set()
        for m in self.terms:
            for s in m.factors:
                vs.add(s.var)
        return sorted(vs)

    def max_var(self) -> int:
        return max((s.var for m in self.terms for s in m.factors), default=0)

    def weights(self) -> list[int]:
        """Distinct monomial weights (single-derivation contexts only)."""
        return sorted({grade(m, self.ctx.arity)[1] for m in self.terms})

    def degrees(self) -> list[int]:
        return sorted({m.degree for m in self.terms})

    def _scalar(self, c) -> Scalar:
        return _coerce_scalar(c, self.ctx)

    # -- multiplication

    def __mul__(self, other):
        if isinstance(other, DiffPermPoly):
            self._check(other)
            acc: dict[Monomial, Scalar] = {}
            get = acc.get
            for m1, c1 in self.terms.items():
                head = m1.left + (m1.last,)
                for m2, c2 in other.terms.items():
                    key = Monomial(tuple(sorted(head + m2.left)), m2.last)
                    acc[key] = get(key, 0) + c1 * c2
            return DiffPermPoly(self.ctx, acc)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scale(other)

    # -- differential structure

    def derive(self, j: int = 1) -> "DiffPermPoly":
        """Apply the j-th derivation (Leibniz rule over the factors)."""
        ctx = self.ctx
        if ctx.delta:
            raise AlgebraError(
                "ambiguous δ-derivation: a flattened polynomial has no "
                "preferred product tree")
        if not 1 <= j <= ctx.arity:
            raise AlgebraError(f"derivation index {j} out of range 1..{ctx.arity}")
        ax = j - 1
        acc: dict[Monomial, Scalar] = {}
        get = acc.get
        for m, c in self.terms.items():
            L = m.left
            for i in range(len(L)):
                key = Monomial(tuple(sorted(L[:i] + (L[i].derived(ax),) + L[i + 1:])),
                               m.last)
                acc[key] = get(key, 0) + c
            key = Monomial(L, m.last.derived(ax))
            acc[key] = get(key, 0) + c
        return DiffPermPoly(ctx, acc)

    def star(self) -> "DiffPermPoly":
        """Symmetrized differentiation: each factor is derived in turn and
        moved to the final position.

        This closed form coincides with the recursive rule
        (u v)* = u v* + v u* for every factorization; it depends only on the
        factor multiset of a monomial.
        """
        ctx = self.ctx
        if ctx.arity != 1:
            raise AlgebraError("star requires a single-derivation context")
        if ctx.delta:
            raise AlgebraError("star is not defined over Q[δ] coefficients")
        acc: dict[Monomial, Scalar] = {}
        get = acc.get
        for m, c in self.terms.items():
            fs = m.left + (m.last,)
            for i in range(len(fs)):
                key = Monomial(tuple(sorted(fs[:i] + fs[i + 1:])), fs[i].derived(0))
                acc[key] = get(key, 0) + c
        return DiffPermPoly(ctx, acc)

    def __repr__(self) -> str:
        return f"<DiffPermPoly {format_poly(self)}>"


def format_scalar(c: Scalar) -> str:
    """``str(c)``, or an ``AlgebraError`` for a number with more digits than
    the interpreter converts to text."""
    try:
        return str(c)
    except ValueError:
        raise AlgebraError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} "
            "digits and cannot be printed") from None


def format_sum(terms: Iterable[tuple[str, Scalar]]) -> str:
    """The text of a sum from its (monomial text, coefficient) pairs, in the
    order given: each coefficient's sign joins its term, a coefficient of 1
    is left out, and the empty sum is "0"."""
    out = []
    for mono, c in terms:
        s = format_scalar(c)
        if isinstance(c, DeltaPoly) and len([x for x in c.coeffs if x]) > 1:
            out += (" + ", f"({s}) {mono}")
        else:
            sign, s = (" - ", s[1:]) if s[0] == "-" else (" + ", s)
            out += (sign, mono if s == "1" else f"{s} {mono}")
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def format_poly(p: DiffPermPoly) -> str:
    # each distinct symbol is formatted once
    names = {s: format_symbol(s) for s in {s for m in p.terms
                                           for s in m.factors}}
    return format_sum((" ".join([names[s] for s in m.factors]), c)
                      for m, c in p.sorted_terms())


# ---------------------------------------------------------------------------
# derived products and module-level operations
# ---------------------------------------------------------------------------

# The six bilinear products built from the derivation d, as signed
# summands.  A summand (sign, swap, left_derived) is sign * u' v when
# left_derived and sign * u v' otherwise, with (u, v) = (b, a) when swap and
# (a, b) otherwise:
#
#   prec    a b'          succ    a' b
#   loz     a b' + b a'   bullet  a' b + a b'
#   diamond a b' - b a'   circ    a' b - a b'
DERIVED_PRODUCTS = {
    "prec": ((1, False, False),),
    "succ": ((1, False, True),),
    "loz": ((1, False, False), (1, True, False)),
    "bullet": ((1, False, True), (1, False, False)),
    "diamond": ((1, False, False), (-1, True, False)),
    "circ": ((1, False, True), (-1, False, False)),
}
DERIVED_PRODUCT_TAGS = tuple(DERIVED_PRODUCTS)

# The three brackets of vector fields v = a D_i and w = b D_j, as signed
# summands.  A summand (sign, v_left, v_derived) is sign times the product
# of a and b, a first when v_left, in which a is derived by D_j and the
# result sits in slot i when v_derived, and b by D_i in slot j otherwise:
#
#   prec     a D_i(b) D_j
#   lie      a D_i(b) D_j - b D_j(a) D_i
#   leibniz  D_j(a) b D_i - a D_i(b) D_j
BRACKETS = {
    "prec": ((1, True, False),),
    "lie": ((1, True, False), (-1, False, True)),
    "leibniz": ((1, True, True), (-1, True, False)),
}


def derived_product(tag: str, a: DiffPermPoly, b: DiffPermPoly) -> DiffPermPoly:
    """The derived product ``tag`` of a and b (see ``DERIVED_PRODUCTS``)."""
    if a.ctx != b.ctx:
        raise AlgebraError("context mismatch in derived product")
    summands = DERIVED_PRODUCTS.get(tag)
    if summands is None:
        raise AlgebraError(f"unknown derived product tag: {tag!r}")
    out = None
    for sign, swap, left_derived in summands:
        u, v = (b, a) if swap else (a, b)
        t = u.derive() * v if left_derived else u * v.derive()
        if sign < 0:
            t = -t
        out = t if out is None else out + t
    return out


def multiset_normal_form(p: DiffPermPoly) -> DiffPermPoly:
    """Representative of p modulo the right annihilator: every monomial is
    replaced by the fully sorted monomial on the same factor multiset.  So
    p lies in the right annihilator (p q = 0 for every q) iff this is zero:
    a right product sorts every factor of p into its left part."""
    acc: dict[Monomial, Scalar] = {}
    for m, c in p.terms.items():
        fs = sorted(m.factors)
        key = Monomial(tuple(fs[:-1]), fs[-1])
        acc[key] = acc.get(key, 0) + c
    return DiffPermPoly(p.ctx, acc)


def apply_substitution(p: DiffPermPoly,
                       images: Mapping[int, DiffPermPoly]) -> DiffPermPoly:
    """Endomorphism sending each variable to its image polynomial.

    A derived occurrence x_k^{(s)} goes to the s-fold derivative of the
    image of x_k, and each monomial goes to the product of its factors'
    images.  By the perm law a product q1 ... qk is the sorted multiset of
    every factor but the final factor of its last term, so each output term
    is sorted once: the unsubstituted left factors are a fixed prefix, the
    substituted ones expand into the terms of their images, and the final
    factor's image supplies the final factor.
    """
    ctx = p.ctx
    if ctx.delta:
        raise AlgebraError("ambiguous δ-derivation: substitute before "
                           "expanding, or work in a rational context")
    for v, q in images.items():
        if q.ctx != ctx:
            raise AlgebraError("substitution image context mismatch")
    cache: dict[Symbol, list[tuple[Monomial, Scalar]]] = {}

    def image_of(sym: Symbol) -> list[tuple[Monomial, Scalar]]:
        got = cache.get(sym)
        if got is None:
            q = images[sym.var]
            for ax, times in enumerate(sym.dord):
                for _ in range(times):
                    q = q.derive(ax + 1)
            got = cache[sym] = list(q.terms.items())
        return got

    acc: dict[Monomial, Scalar] = {}
    get = acc.get
    for m, c in p.terms.items():
        fixed = []
        heads = [((), c)]  # factors from substituted left factors, coefficient
        for sym in m.left:
            if sym.var in images:
                heads = [(fs + mm.left + (mm.last,), hc * cc)
                         for fs, hc in heads for mm, cc in image_of(sym)]
            else:
                fixed.append(sym)
        last = m.last
        finals = (image_of(last) if last.var in images
                  else ((Monomial((), last), 1),))
        fixed = tuple(fixed)
        for fs, hc in heads:
            head = fixed + fs
            for mm, cc in finals:
                key = Monomial(tuple(sorted(head + mm.left)), mm.last)
                acc[key] = get(key, 0) + hc * cc
    return DiffPermPoly(ctx, acc)


def is_multilinear(p: DiffPermPoly) -> bool:
    """True when every monomial contains each variable of the first monomial
    exactly once, and no other."""
    want: tuple[int, ...] | None = None
    for m in p.terms:
        vs = tuple(sorted(s.var for s in m.factors))
        if want is None:
            want = vs
            if len(set(vs)) != len(vs):
                return False
        if vs != want:
            return False
    return True
