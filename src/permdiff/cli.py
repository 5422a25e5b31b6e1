"""Command-line front end: parse expressions, run suites, compute dimensions,
emit tables and reduction traces.

Machine-readable JSON goes to stdout; a human summary goes to stderr unless
--quiet is given.  Exit codes: 0 success, 1 verification failure, 2 usage or
parse error.  All output is deterministic byte-for-byte given the same flags.

Expression grammar::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | 'delta' | var | 'd(' expr ')' | 'star(' expr ')'
            | opname '(' expr ',' expr ')'
            | 'assoc(' expr ',' expr ',' expr ')' | 'bracket(' expr ',' expr ')'
            | '(' expr ')'
    var    := 'x' digits        rational := digits ['/' digits]
    opname := prec | succ | loz | bullet | diamond | circ

``assoc``/``bracket`` use the product selected with --product.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    CTX_Q,
    AlgebraError,
    DELTA,
    DeltaPoly,
    DERIVED_PRODUCT_TAGS,
    DiffPermPoly,
    format_monomial,
    format_poly,
)
from .exprs import (
    Assoc,
    Bracket,
    Der,
    DerOp,
    Expr,
    Mul,
    Scale,
    Star,
    Sum,
    Var,
    check_identity,
    eval_expr,
    run_suite,
    SUITE_IDS,
    used_vars,
)
from .reduction import reduce_identity
from .spans import verify_dimension
from .witt import structure_table, verify_tables

OPNAMES = DERIVED_PRODUCT_TAGS


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # NUM NAME OP END
    value: object
    col: int


def _tokenize(text: str, line: int = 1) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                k = j
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j:k])
                if den == 0:
                    raise ParseError("zero denominator", line, col)
                toks.append(Token("NUM", Fraction(num, den), col))
                i = k
            else:
                toks.append(Token("NUM", Fraction(num), col))
                i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("NAME", text[i:j], col))
            i = j
            continue
        if ch in "+-*(),":
            toks.append(Token("OP", ch, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("END", None, n + 1))
    return toks


class _Parser:
    def __init__(self, toks: list[Token], line: int, product: str | None):
        self.toks = toks
        self.pos = 0
        self.line = line
        self.product = product

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str) -> Token:
        t = self.peek()
        if t.kind != "OP" or t.value != op:
            raise ParseError(f"expected {op!r}", self.line, t.col)
        return self.take()

    def parse_expr(self) -> Expr:
        t = self.peek()
        if t.kind == "OP" and t.value in "+-":
            self.take()
            first_sign = -1 if t.value == "-" else 1
        else:
            first_sign = 1
        node = self.parse_term()
        if first_sign < 0:
            node = _negate(node)
        terms = [node]
        while True:
            t = self.peek()
            if t.kind == "OP" and t.value in "+-":
                self.take()
                nxt = self.parse_term()
                terms.append(nxt if t.value == "+" else _negate(nxt))
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self) -> Expr:
        scalars: list = []
        nodes: list[Expr] = []
        self._collect_factor(scalars, nodes)
        while True:
            t = self.peek()
            if t.kind == "OP" and t.value == "*":
                self.take()
                self._collect_factor(scalars, nodes)
            else:
                break
        if not nodes:
            raise ParseError("term has no generator factor", self.line,
                             self.peek().col)
        node = nodes[0]
        for nxt in nodes[1:]:
            node = Mul(node, nxt)
        if scalars:
            coeff = scalars[0]
            for c in scalars[1:]:
                coeff = coeff * c
            if coeff != 1:
                node = Scale(coeff if isinstance(coeff, DeltaPoly)
                             else _as_int(coeff), node)
        return node

    def _collect_factor(self, scalars: list, nodes: list[Expr]) -> None:
        t = self.peek()
        if t.kind == "NUM":
            self.take()
            scalars.append(t.value)
            return
        if t.kind == "NAME" and t.value == "delta":
            self.take()
            scalars.append(DELTA)
            return
        nodes.append(self.parse_atom())

    def parse_atom(self) -> Expr:
        t = self.take()
        if t.kind == "OP" and t.value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if t.kind == "NAME":
            name = t.value
            if name.startswith("x") and name[1:].isdigit():
                idx = int(name[1:])
                if idx < 1:
                    raise ParseError("variable index must be >= 1",
                                     self.line, t.col)
                return Var(idx)
            if name == "d":
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                return Der(inner)
            if name == "star":
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                return Star(inner)
            if name in OPNAMES:
                self.expect_op("(")
                a = self.parse_expr()
                self.expect_op(",")
                b = self.parse_expr()
                self.expect_op(")")
                return DerOp(name, a, b)
            if name == "assoc":
                if self.product is None:
                    raise ParseError("assoc(...) needs --product", self.line,
                                     t.col)
                self.expect_op("(")
                a = self.parse_expr()
                self.expect_op(",")
                b = self.parse_expr()
                self.expect_op(",")
                c = self.parse_expr()
                self.expect_op(")")
                return Assoc(self.product, a, b, c)
            if name == "bracket":
                if self.product is None:
                    raise ParseError("bracket(...) needs --product",
                                     self.line, t.col)
                self.expect_op("(")
                a = self.parse_expr()
                self.expect_op(",")
                b = self.parse_expr()
                self.expect_op(")")
                return Bracket(self.product, a, b)
            raise ParseError(f"unknown operation name {name!r}", self.line,
                             t.col)
        raise ParseError("expected factor", self.line, t.col)


def _as_int(c: Fraction):
    return int(c) if isinstance(c, Fraction) and c.denominator == 1 else c


def _negate(node: Expr) -> Expr:
    """Fold a leading minus into a rational scalar coefficient."""
    if isinstance(node, Scale) and not isinstance(node.coeff, DeltaPoly):
        c = -node.coeff
        return node.body if c == 1 else Scale(c, node.body)
    return Scale(-1, node)


def parse_expr(text: str, product: str | None = None, line: int = 1) -> Expr:
    """Parse one expression; whitespace-insensitive.  Unbound variables are
    an evaluation-time error, not a parse error."""
    parser = _Parser(_tokenize(text, line), line, product)
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError("trailing input", line, tail.col)
    return node


# ---------------------------------------------------------------------------
# pretty printer (inverse of the parser on grammar-expressible trees)
# ---------------------------------------------------------------------------


def _coeff_text(c) -> str:
    if isinstance(c, DeltaPoly):
        nonzero = [k for k, v in enumerate(c.coeffs) if v]
        if nonzero == [1] and c.coeffs[1] == 1:
            return "delta"
        raise AlgebraError("only the bare delta scalar is printable; "
                           "spell other delta coefficients as sums")
    return str(c)


def pretty(e: Expr, _prec: int = 0) -> str:
    """Render a tree in the expression grammar; parsing the result gives the
    tree back."""
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Der):
        return f"d({pretty(e.body)})"
    if isinstance(e, Star):
        return f"star({pretty(e.body)})"
    if isinstance(e, Bracket):  # before DerOp, which it extends
        return f"bracket({pretty(e.lhs)}, {pretty(e.rhs)})"
    if isinstance(e, DerOp):
        return f"{e.tag}({pretty(e.lhs)}, {pretty(e.rhs)})"
    if isinstance(e, Assoc):
        return f"assoc({pretty(e.a)}, {pretty(e.b)}, {pretty(e.c)})"
    if isinstance(e, Mul):
        lhs = pretty(e.lhs, 1)
        if isinstance(e.lhs, (Sum, Scale)):
            lhs = f"({lhs})" if not lhs.startswith("(") else lhs
        rhs = pretty(e.rhs, 1)
        if isinstance(e.rhs, (Sum, Scale, Mul)):
            rhs = f"({rhs})" if not rhs.startswith("(") else rhs
        return f"{lhs} * {rhs}"
    if isinstance(e, Scale):
        body = pretty(e.body, 1)
        if isinstance(e.body, (Sum, Mul, Scale)):
            body = f"({body})"
        return f"{_coeff_text(e.coeff)} * {body}"
    if isinstance(e, Sum):
        parts = []
        for t in e.terms:
            if (isinstance(t, Scale) and not isinstance(t.coeff, DeltaPoly)
                    and t.coeff < 0):
                inner = (Scale(-t.coeff, t.body) if t.coeff != -1
                         else t.body)
                text = pretty(inner, 1)
                if isinstance(inner, Sum):
                    text = f"({text})"
                parts.append(("-", text))
            else:
                text = pretty(t, 1)
                if isinstance(t, Sum):
                    text = f"({text})"
                parts.append(("+", text))
        sign, head = parts[0]
        out = head if sign == "+" else f"-{head}"
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        if _prec > 0:
            out = f"({out})"
        return out
    raise AlgebraError(f"not printable: {e!r}")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    m, c = witness
    return {"monomial": format_monomial(m), "coeff": str(c)}


def _emit(obj, quiet: bool, summary: list[str], fmt: str = "json") -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, indent=2, ensure_ascii=False) + "\n")
    else:
        for line in summary:
            sys.stdout.write(line + "\n")
    if not quiet and fmt == "json":
        for line in summary:
            sys.stderr.write(line + "\n")


def _cmd_check(args) -> int:
    cases = []
    ok = True
    if args.suite:
        suite_list = list(SUITE_IDS) if args.suite == "all" else [args.suite]
        for sid in suite_list:
            if sid not in SUITE_IDS:
                sys.stderr.write(f"unknown suite: {sid}\n")
                return 2
        label = args.suite
        for sid in suite_list:
            for r in run_suite(sid):
                entry = {"name": r.name, "expected": r.expected,
                         "got": r.verdict.is_identity}
                w = _witness_json(r.verdict.witness)
                if w is not None:
                    entry["witness"] = w
                cases.append(entry)
                ok = ok and r.ok
    else:
        label = args.file
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            sys.stderr.write(f"cannot read {args.file}: {exc}\n")
            return 2
        for lineno, raw in enumerate(lines, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            expr = parse_expr(text, product=args.product, line=lineno)
            nvars = max(used_vars(expr), default=0)
            if nvars == 0:
                raise ParseError("expression has no variables", lineno, 1)
            verdict = check_identity(expr, nvars)
            entry = {"name": f"line{lineno}", "expected": True,
                     "got": verdict.is_identity}
            w = _witness_json(verdict.witness)
            if w is not None:
                entry["witness"] = w
            cases.append(entry)
            ok = ok and verdict.is_identity
    report = {"suite": label, "cases": cases}
    summary = [f"{'ok' if c['got'] == c['expected'] else 'FAIL'}  "
               f"{c['name']}: got={c['got']} expected={c['expected']}"
               for c in cases]
    summary.append(f"{'all verdicts as expected' if ok else 'UNEXPECTED VERDICTS'}"
                   f" ({len(cases)} cases)")
    _emit(report, args.quiet, summary, args.format)
    return 0 if ok else 1


def _parse_range(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            out = list(range(int(lo), int(hi) + 1))
        else:
            out = [int(spec)]
    except ValueError:
        raise AlgebraError(f"bad degree range {spec!r}; use N or LO..HI")
    if not out:
        raise AlgebraError(f"empty degree range {spec!r}")
    return out


def _cmd_dim(args) -> int:
    records = []
    ok = True
    for n in _parse_range(args.n):
        report = verify_dimension(n, args.variant)
        records.append(report.record())
        ok = ok and report.ok
    summary = [f"{'ok' if r['ok'] else 'FAIL'}  n={r['n']} variant={r['variant']}"
               f" dim={r['rank_closure']} formula={r['formula']}"
               for r in records]
    _emit(records, args.quiet, summary, args.format)
    return 0 if ok else 1


def _cmd_table(args) -> int:
    doc = structure_table(args.n, args.kind, args.bound)
    summary = [f"table n={args.n} kind={args.kind} bound={args.bound}: "
               f"{len(doc['entries'])} entries"]
    code = 0
    if args.verify:
        ver = verify_tables(args.bound if args.bound >= 3 else 3)
        doc["verification"] = {
            "ok": ver.ok,
            "rules": [{"table": r.table, "block": r.block, "left": r.left,
                       "right": r.right, "checked": r.checked,
                       "mismatches": r.mismatches} for r in ver.rules],
        }
        summary.append(f"verification: {ver.total_checks} instantiations, "
                       f"{'all match' if ver.ok else 'MISMATCHES FOUND'}")
        code = 0 if ver.ok else 1
    _emit(doc, args.quiet, summary, args.format)
    return code


def _cmd_reduce(args) -> int:
    expr = parse_expr(args.expr, product=args.product)
    vs = used_vars(expr)
    if not vs:
        sys.stderr.write("expression has no variables\n")
        return 2
    subst = {i: DiffPermPoly.generator(i) for i in vs}
    poly = eval_expr(expr, subst, CTX_Q)
    result = reduce_identity(poly)
    doc = {"input": format_poly(poly), "outcome": result.outcome}
    if result.certificate is not None:
        (mono, coeff), = result.certificate.terms.items()
        doc["m"] = result.m
        doc["coefficient"] = str(coeff)
        doc["certificate"] = format_poly(result.certificate)
    doc["trace"] = [{"step": i, "name": s.name,
                     "rule": {k: (list(v) if isinstance(v, (tuple, list))
                                  else v) for k, v in s.rule.items()},
                     "poly": format_poly(s.poly)}
                    for i, s in enumerate(result.trace)]
    summary = [f"outcome: {result.outcome}"]
    if result.certificate is not None:
        summary.append(f"certificate: {format_poly(result.certificate)} = 0")
    summary += [f"  {s.name}: {format_poly(s.poly)}" for s in result.trace]
    _emit(doc, args.quiet, summary, args.format)
    return 0


def _cmd_expand(args) -> int:
    expr = parse_expr(args.expr, product=args.product)
    subst = {i: DiffPermPoly.generator(i) for i in used_vars(expr)}
    poly = eval_expr(expr, subst, CTX_Q)
    doc = {"expression": pretty(expr),
           "terms": [{"monomial": format_monomial(m),
                      "coeff": str(c)}
                     for m, c in poly.sorted_terms()],
           "text": format_poly(poly)}
    _emit(doc, args.quiet, [f"{format_poly(poly)}"], args.format)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="permdiff",
        description="exact computations in free differential perm algebras")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary on stderr")
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="run identity suites or check a file of "
                            "candidate identities")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--suite", help="suite id a..h, or 'all'")
    g.add_argument("--file", help="file with one candidate identity per line")
    p.add_argument("--product", choices=OPNAMES, default=None,
                   help="product used by assoc(...)/bracket(...)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dim", parents=[common], help="verify multilinear dimensions of the "
                                   "generated subalgebras")
    p.add_argument("--variant", choices=("star", "prime"), required=True)
    p.add_argument("--n", required=True, help="degree or range, e.g. 4 or 2..6")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("table", parents=[common], help="emit Witt-type bracket tables")
    p.add_argument("--n", type=int, choices=(1, 2), required=True)
    p.add_argument("--kind", choices=("lie", "leibniz"), required=True)
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--verify", action="store_true",
                   help="also check the computed brackets against every "
                        "embedded coefficient rule (rank-one Lie, rank-two "
                        "Lie and Leibniz; no rank-one Leibniz rule is "
                        "embedded) over exponents 0..max(bound, 3), "
                        "whatever --n and --kind say")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("reduce", parents=[common], help="run the identity reduction pipeline")
    p.add_argument("expr", help="multilinear identity candidate")
    p.add_argument("--product", choices=OPNAMES, default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("expand", parents=[common], help="expand an expression to normal form")
    p.add_argument("expr")
    p.add_argument("--product", choices=OPNAMES, default=None)
    p.set_defaults(func=_cmd_expand)
    return ap


def main(argv: list[str] | None = None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass
    threads = os.environ.get("PERMDIFF_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            sys.stderr.write("PERMDIFF_THREADS must be a positive integer\n")
            return 2
        # all computations run on one thread, which respects any cap
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except AlgebraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RecursionError:
        sys.stderr.write("error: input nested too deeply\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
