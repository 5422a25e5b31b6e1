"""Witt-type Lie and Leibniz algebras over a tensor perm algebra.

From the polynomial algebra k[x_1..x_n] one builds the perm algebra
P_n = k[x_1..x_n] (x) span(x_1..x_n) with product
(u x x_r) (v x x_s) = (u v x_r) x x_s, carrying the commuting Euler-type
derivations D_i(u x x_j) = (x_i d/dx_i u) x x_j + [i = j] u x x_i.  The
direct sum of n copies of P_n, one per derivation slot, carries

  * a Lie bracket      [a D_i, b D_j]   = a D_i(b) D_j - b D_j(a) D_i,
  * a Leibniz bracket  [a D_i, b D_j]_o = D_j(a) b D_i - a D_i(b) D_j.

On basis elements everything reduces to integer coefficient rules; the
embedded rule tables for n = 1 and n = 2 are verified here by exhaustive
instantiation over a finite exponent box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .algebra import AlgebraError, FrozenDoc, LinearCombination, Rational


class TBasis(NamedTuple):
    """Basis element x^e (x) x_alpha of the tensor perm algebra."""

    e: tuple[int, ...]
    alpha: int


class WBasis(NamedTuple):
    """Basis element (x^e (x) x_alpha) D_i of the Witt-type algebra."""

    e: tuple[int, ...]
    alpha: int
    i: int


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
        return cls(n, {TBasis(tuple(e), alpha): 1}, _owned=True)

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


class WittElement(LinearCombination):
    """Element of the Witt-type algebra: a linear combination of ``WBasis``
    elements, tensor coefficients on derivation slots; immutable by
    convention."""

    __slots__ = ()
    n = LinearCombination.space  # the space slot, under its name here
    _MISMATCH = "Witt algebra dimension mismatch"

    @classmethod
    def basis(cls, n: int, e: tuple[int, ...], alpha: int, i: int) -> "WittElement":
        if len(e) != n or not 1 <= alpha <= n or not 1 <= i <= n:
            raise AlgebraError("bad Witt basis data")
        return cls(n, {WBasis(tuple(e), alpha, i): 1}, _owned=True)

    def __repr__(self):
        return f"<WittElement n={self.n} {self.terms}>"


def witt_prec(v: WittElement, w: WittElement) -> WittElement:
    """(a D_i) prec (b D_j) = (a D_i(b)) D_j, extended bilinearly."""
    v._check(w)
    acc: dict[WBasis, Rational] = {}
    for (e, alpha, i), c1 in v.terms.items():
        for (f, beta, j), c2 in w.terms.items():
            lam = f[i - 1] + (1 if beta == i else 0)
            if not lam:
                continue
            g = [x + y for x, y in zip(e, f)]
            g[alpha - 1] += 1
            key = WBasis(tuple(g), beta, j)
            acc[key] = acc.get(key, 0) + lam * c1 * c2
    return WittElement(v.n, acc)


def lie_bracket(v: WittElement, w: WittElement) -> WittElement:
    """[v, w] = v prec w - w prec v, both halves summed in one pass over the
    term pairs; antisymmetric by construction."""
    v._check(w)
    acc: dict[WBasis, Rational] = {}
    for (e, alpha, i), c1 in v.terms.items():
        for (f, beta, j), c2 in w.terms.items():
            lam1 = f[i - 1] + (1 if beta == i else 0)
            if lam1:
                g = [x + y for x, y in zip(e, f)]
                g[alpha - 1] += 1
                k1 = WBasis(tuple(g), beta, j)
                acc[k1] = acc.get(k1, 0) + lam1 * c1 * c2
            lam2 = e[j - 1] + (1 if alpha == j else 0)
            if lam2:
                g = [x + y for x, y in zip(e, f)]
                g[beta - 1] += 1
                k2 = WBasis(tuple(g), alpha, i)
                acc[k2] = acc.get(k2, 0) - lam2 * c1 * c2
    return WittElement(v.n, acc)


def leibniz_bracket(v: WittElement, w: WittElement) -> WittElement:
    """[a D_i, b D_j]_o = D_j(a) b D_i - a D_i(b) D_j, extended bilinearly;
    not antisymmetric in general."""
    v._check(w)
    acc: dict[WBasis, Rational] = {}
    for (e, alpha, i), c1 in v.terms.items():
        for (f, beta, j), c2 in w.terms.items():
            g = [x + y for x, y in zip(e, f)]
            g[alpha - 1] += 1
            key = tuple(g)
            lam1 = e[j - 1] + (1 if alpha == j else 0)
            if lam1:
                k1 = WBasis(key, beta, i)
                acc[k1] = acc.get(k1, 0) + lam1 * c1 * c2
            lam2 = f[i - 1] + (1 if beta == i else 0)
            if lam2:
                k2 = WBasis(key, beta, j)
                acc[k2] = acc.get(k2, 0) - lam2 * c1 * c2
    return WittElement(v.n, acc)


# ---------------------------------------------------------------------------
# embedded coefficient rules for n = 1 and n = 2
# ---------------------------------------------------------------------------

# A rule maps the exponent tuple (m, n, p, q) of a basis pair to the exact
# expected bracket.  x and y stand for the first and second tensor/derivation
# slots.  Targets: coefficient callable, exponent callable, direction, slot.

_X, _Y = 1, 2


def _exp_x(m, n, p, q):  # exponents when the left tensor direction is x
    return (m + p + 1, n + q)


def _exp_y(m, n, p, q):  # exponents when the left tensor direction is y
    return (m + p, n + q + 1)


@dataclass(frozen=True)
class BracketRule:
    table: str          # "lie" or "leibniz"
    block: str
    left: tuple[int, int]      # (alpha, i) of the left basis element
    right: tuple[int, int]     # (beta, j) of the right basis element
    targets: tuple             # ((coeff_fn, exp_fn, alpha, i), ...)

    def expected_terms(self, n_dim: int, m: int, n: int, p: int,
                       q: int) -> dict[WBasis, Rational]:
        """The nonzero coefficients of ``expected``, by basis element."""
        acc: dict[WBasis, Rational] = {}
        for coeff_fn, exp_fn, alpha, i in self.targets:
            c = coeff_fn(m, n, p, q)
            if c:
                e = tuple(exp_fn(m, n, p, q))
                if (len(e) != n_dim or min(e) < 0
                        or not 1 <= alpha <= n_dim or not 1 <= i <= n_dim):
                    raise AlgebraError("bad Witt basis data")
                key = WBasis(e, alpha, i)
                acc[key] = acc.get(key, 0) + c
        return {k: c for k, c in acc.items() if c}

    def expected(self, n_dim: int, m: int, n: int, p: int, q: int) -> WittElement:
        """The bracket the rule gives for exponents (m, n, p, q)."""
        return WittElement(n_dim, self.expected_terms(n_dim, m, n, p, q))


W1_RULES = (
    BracketRule("lie", "n=1", (1, 1), (1, 1),
                (((lambda m, n, p, q: p - m),
                  (lambda m, n, p, q: (m + p + 1,)), 1, 1),),),
)

# Lie table for n = 2.  The two entries marked "skew-consistent" repair the
# tensor direction of one target each: as printed alongside the other block
# entries they would contradict the antisymmetry of the bracket, which also
# pins the four remaining (alpha y / beta x) derivation combinations below.
W2_LIE_RULES = (
    # block (i): both derivation slots x
    BracketRule("lie", "i", (_X, _X), (_X, _X),
                (((lambda m, n, p, q: p - m), _exp_x, _X, _X),)),
    BracketRule("lie", "i", (_X, _X), (_Y, _X),
                (((lambda m, n, p, q: p), _exp_x, _Y, _X),
                 ((lambda m, n, p, q: -(m + 1)), _exp_y, _X, _X))),
    BracketRule("lie", "i", (_Y, _X), (_X, _X),   # skew-consistent
                (((lambda m, n, p, q: p + 1), _exp_y, _X, _X),
                 ((lambda m, n, p, q: -m), _exp_x, _Y, _X))),
    BracketRule("lie", "i", (_Y, _X), (_Y, _X),
                (((lambda m, n, p, q: p - m), _exp_y, _Y, _X),)),
    # block (ii): both derivation slots y
    BracketRule("lie", "ii", (_X, _Y), (_X, _Y),
                (((lambda m, n, p, q: q - n), _exp_x, _X, _Y),)),
    BracketRule("lie", "ii", (_X, _Y), (_Y, _Y),
                (((lambda m, n, p, q: q + 1), _exp_x, _Y, _Y),
                 ((lambda m, n, p, q: -n), _exp_y, _X, _Y))),
    BracketRule("lie", "ii", (_Y, _Y), (_X, _Y),   # skew-consistent
                (((lambda m, n, p, q: q), _exp_y, _X, _Y),
                 ((lambda m, n, p, q: -(n + 1)), _exp_x, _Y, _Y))),
    BracketRule("lie", "ii", (_Y, _Y), (_Y, _Y),
                (((lambda m, n, p, q: q - n), _exp_y, _Y, _Y),)),
    # block (iii): left slot x, right slot y
    BracketRule("lie", "iii", (_X, _X), (_X, _Y),
                (((lambda m, n, p, q: p + 1), _exp_x, _X, _Y),
                 ((lambda m, n, p, q: -n), _exp_x, _X, _X))),
    BracketRule("lie", "iii", (_X, _X), (_Y, _Y),
                (((lambda m, n, p, q: p), _exp_x, _Y, _Y),
                 ((lambda m, n, p, q: -n), _exp_y, _X, _X))),
    BracketRule("lie", "iii", (_Y, _X), (_X, _Y),
                (((lambda m, n, p, q: p + 1), _exp_y, _X, _Y),
                 ((lambda m, n, p, q: -(n + 1)), _exp_x, _Y, _X))),
    BracketRule("lie", "iii", (_Y, _X), (_Y, _Y),
                (((lambda m, n, p, q: p), _exp_y, _Y, _Y),
                 ((lambda m, n, p, q: -(n + 1)), _exp_y, _Y, _X))),
    # block (iii-skew): left slot y, right slot x, forced by antisymmetry
    BracketRule("lie", "iii-skew", (_X, _Y), (_X, _X),
                (((lambda m, n, p, q: q), _exp_x, _X, _X),
                 ((lambda m, n, p, q: -(m + 1)), _exp_x, _X, _Y))),
    BracketRule("lie", "iii-skew", (_Y, _Y), (_X, _X),
                (((lambda m, n, p, q: q), _exp_y, _X, _X),
                 ((lambda m, n, p, q: -m), _exp_x, _Y, _Y))),
    BracketRule("lie", "iii-skew", (_X, _Y), (_Y, _X),
                (((lambda m, n, p, q: q + 1), _exp_x, _Y, _X),
                 ((lambda m, n, p, q: -(m + 1)), _exp_y, _X, _Y))),
    BracketRule("lie", "iii-skew", (_Y, _Y), (_Y, _X),
                (((lambda m, n, p, q: q + 1), _exp_y, _Y, _X),
                 ((lambda m, n, p, q: -m), _exp_y, _Y, _Y))),
)

W2_LEIBNIZ_RULES = (
    # block (a): left tensor direction x
    BracketRule("leibniz", "a", (_X, _X), (_X, _X),
                (((lambda m, n, p, q: m - p), _exp_x, _X, _X),)),
    BracketRule("leibniz", "a", (_X, _X), (_X, _Y),
                (((lambda m, n, p, q: n), _exp_x, _X, _X),
                 ((lambda m, n, p, q: -(p + 1)), _exp_x, _X, _Y))),
    BracketRule("leibniz", "a", (_X, _Y), (_X, _X),
                (((lambda m, n, p, q: m + 1), _exp_x, _X, _Y),
                 ((lambda m, n, p, q: -q), _exp_x, _X, _X))),
    BracketRule("leibniz", "a", (_X, _Y), (_X, _Y),
                (((lambda m, n, p, q: n - q), _exp_x, _X, _Y),)),
    BracketRule("leibniz", "a", (_X, _X), (_Y, _X),
                (((lambda m, n, p, q: m + 1 - p), _exp_x, _Y, _X),)),
    BracketRule("leibniz", "a", (_X, _X), (_Y, _Y),
                (((lambda m, n, p, q: n), _exp_x, _Y, _X),
                 ((lambda m, n, p, q: -p), _exp_x, _Y, _Y))),
    BracketRule("leibniz", "a", (_X, _Y), (_Y, _X),
                (((lambda m, n, p, q: m + 1), _exp_x, _Y, _Y),
                 ((lambda m, n, p, q: -(q + 1)), _exp_x, _Y, _X))),
    BracketRule("leibniz", "a", (_X, _Y), (_Y, _Y),
                (((lambda m, n, p, q: n - q - 1), _exp_x, _Y, _Y),)),
    # block (b): left tensor direction y
    BracketRule("leibniz", "b", (_Y, _X), (_X, _X),
                (((lambda m, n, p, q: m - p - 1), _exp_y, _X, _X),)),
    BracketRule("leibniz", "b", (_Y, _X), (_X, _Y),
                (((lambda m, n, p, q: n + 1), _exp_y, _X, _X),
                 ((lambda m, n, p, q: -(p + 1)), _exp_y, _X, _Y))),
    BracketRule("leibniz", "b", (_Y, _Y), (_X, _X),
                (((lambda m, n, p, q: m), _exp_y, _X, _Y),
                 ((lambda m, n, p, q: -q), _exp_y, _X, _X))),
    BracketRule("leibniz", "b", (_Y, _Y), (_X, _Y),
                (((lambda m, n, p, q: n + 1 - q), _exp_y, _X, _Y),)),
    BracketRule("leibniz", "b", (_Y, _X), (_Y, _X),
                (((lambda m, n, p, q: m - p), _exp_y, _Y, _X),)),
    BracketRule("leibniz", "b", (_Y, _X), (_Y, _Y),
                (((lambda m, n, p, q: n + 1), _exp_y, _Y, _X),
                 ((lambda m, n, p, q: -p), _exp_y, _Y, _Y))),
    BracketRule("leibniz", "b", (_Y, _Y), (_Y, _X),
                (((lambda m, n, p, q: m), _exp_y, _Y, _Y),
                 ((lambda m, n, p, q: -(q + 1)), _exp_y, _Y, _X))),
    BracketRule("leibniz", "b", (_Y, _Y), (_Y, _Y),
                (((lambda m, n, p, q: n - q), _exp_y, _Y, _Y),)),
)


# ---------------------------------------------------------------------------
# tables and verification
# ---------------------------------------------------------------------------


def _slot_name(n: int, idx: int) -> str:
    return ("x", "y")[idx - 1] if n == 2 else str(idx)


def _rows(n: int, left: tuple[int, int], right: tuple[int, int], bound: int):
    """(e1, u, rights) for every basis element u on the slot pattern
    ``left`` (an (alpha, i)) with exponents e1 in 0..bound, in lexicographic
    order; ``rights`` is the one list of (e2, v) for the basis elements v on
    ``right``, in the same order.  Each operand is built once."""
    box = list(itertools.product(range(bound + 1), repeat=n))
    rights = [(e2, WittElement.basis(n, e2, *right)) for e2 in box]
    for e1 in box:
        yield e1, WittElement.basis(n, e1, *left), rights


#: the largest exponent bound ``structure_table`` accepts: the rank-two Lie
#: table at 12 has 28561 entries per slot pattern, 272 MB of JSON
MAX_TABLE_BOUND = 12


def table_patterns(n: int, kind: str) -> list[tuple]:
    """(block rank, left, right) slot patterns of a table, in table order:
    blocks in the order the rules first list them, patterns sorted within."""
    if n not in (1, 2):
        raise AlgebraError("structure tables cover n = 1 and n = 2 only")
    if kind not in ("lie", "leibniz"):
        raise AlgebraError(f"unknown table kind: {kind!r}")
    # the one rank-one pattern serves both brackets
    rules = W1_RULES if n == 1 else (
        W2_LIE_RULES if kind == "lie" else W2_LEIBNIZ_RULES)
    block_rank: dict[str, int] = {}
    for rule in rules:
        block_rank.setdefault(rule.block, len(block_rank))
    return sorted((block_rank[r.block], r.left, r.right) for r in rules)


def structure_table(n: int, kind: str, bound: int) -> dict:
    """Explicit bracket values for all basis pairs with exponents up to
    ``bound``, for stable diffs ordered by block (in rule order), then
    (left, right) slot pattern, then exponents.
    Entries carry the computed results; for n = 1 and n = 2 they coincide
    with the embedded coefficient rules (see ``verify_tables``).

    The arguments are checked here, but ``"entries"`` is a single-pass
    generator that computes each entry as it is read, so a writer holds
    one entry at a time; there are ``len(table_patterns(n, kind)) *
    (bound + 1) ** (2 * n)`` of them.  Each basis element is one interned,
    read-only ``FrozenDoc`` wherever it occurs, which ``cli.write_json``
    encodes once.
    """
    patterns = table_patterns(n, kind)
    if not 0 <= bound <= MAX_TABLE_BOUND:
        raise AlgebraError(f"bound must be in 0..{MAX_TABLE_BOUND}")
    bracket = lie_bracket if kind == "lie" else leibniz_bracket
    return {"n": n, "kind": kind, "bound": bound,
            "entries": _table_entries(n, bracket, patterns, bound)}


def _table_entries(n: int, bracket, patterns, bound: int):
    """The entries of ``structure_table``, made one at a time.  A basis
    element is one interned ``FrozenDoc`` wherever it occurs (its exponent
    list is shared too), so entries are read-only."""
    docs: dict[WBasis, FrozenDoc] = {}

    def doc(b: WBasis) -> FrozenDoc:
        d = docs.get(b)
        if d is None:
            d = docs[b] = FrozenDoc(e=list(b.e), alpha=_slot_name(n, b.alpha),
                                    i=_slot_name(n, b.i))
        return d

    for _, left, right in patterns:
        for e1, u, rights in _rows(n, left, right, bound):
            left_doc = doc(WBasis(e1, *left))
            for e2, v in rights:
                yield {"left": left_doc, "right": doc(WBasis(e2, *right)),
                       "result": [{"coeff": str(c), "basis": doc(b)} for b, c
                                  in sorted(bracket(u, v).terms.items())]}


@dataclass
class RuleCheck:
    table: str
    block: str
    left: str
    right: str
    checked: int = 0
    mismatches: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class TableVerification:
    bound: int
    rules: list[RuleCheck]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rules)

    @property
    def total_checks(self) -> int:
        return sum(r.checked for r in self.rules)


def _format_witt(terms: dict[WBasis, Rational], n: int) -> str:
    if not terms:
        return "0"
    parts = []
    for b, c in sorted(terms.items()):
        name = (f"E[{','.join(map(str, b.e))};"
                f"{_slot_name(n, b.alpha)},{_slot_name(n, b.i)}]")
        parts.append(f"{c}*{name}")
    return " + ".join(parts)


def verify_tables(bound: int = 3) -> TableVerification:
    """Exhaustively instantiate every embedded coefficient rule over the
    exponent box 0..bound and compare with the computed brackets, term dict
    against term dict."""
    out = []
    for n, rules in ((1, W1_RULES), (2, W2_LIE_RULES + W2_LEIBNIZ_RULES)):
        left_exps, right_exps = ("m", "p") if n == 1 else ("m,n", "p,q")
        fill = (0,) * (2 - n)  # a rule reads (m, n, p, q); rank one has no n, q
        for rule in rules:
            bracket = lie_bracket if rule.table == "lie" else leibniz_bracket
            (al, il), (be, jr) = rule.left, rule.right
            chk = RuleCheck(
                rule.table, rule.block,
                f"E[{left_exps};{_slot_name(n, al)},{_slot_name(n, il)}]",
                f"E[{right_exps};{_slot_name(n, be)},{_slot_name(n, jr)}]")
            expected_terms = rule.expected_terms
            for e1, u, rights in _rows(n, rule.left, rule.right, bound):
                mn = e1 + fill
                for e2, v in rights:
                    got = bracket(u, v).terms
                    want = expected_terms(n, *mn, *e2, *fill)
                    if got != want:
                        chk.mismatches.append({
                            "at": [*e1, *e2],
                            "computed": _format_witt(got, n),
                            "expected": _format_witt(want, n)})
                chk.checked += len(rights)
            out.append(chk)
    return TableVerification(bound, out)
