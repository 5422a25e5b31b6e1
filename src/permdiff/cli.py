"""Command-line front end: parse expressions, run suites, compute dimensions,
emit tables and reduction traces.

Machine-readable JSON goes to stdout; a human summary goes to stderr unless
--quiet is given.  Exit codes: 0 success, 1 verification failure, 2 usage or
parse error, 3 internal error.  All output is deterministic byte-for-byte
given the same flags.

Expression grammar::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | 'delta' | var | 'd(' expr ')' | 'star(' expr ')'
            | opname '(' expr ',' expr ')'
            | 'assoc(' expr ',' expr ',' expr ')' | 'bracket(' expr ',' expr ')'
            | '(' expr ')'
    var    := 'x' digits        rational := digits ['/' digits]
    opname := prec | succ | loz | bullet | diamond | circ

Digits are ASCII ``0-9`` and names ASCII ``[A-Za-z][A-Za-z0-9_]*``; blanks
and tabs separate tokens, and any other character is a syntax error.
``assoc``/``bracket`` use the product selected with --product.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import string
import sys
from dataclasses import asdict, fields
from fractions import Fraction
from types import GeneratorType

from .algebra import (
    AlgebraError,
    DELTA,
    DeltaPoly,
    DERIVED_PRODUCT_TAGS,
    FrozenDoc,
    format_monomial,
    format_poly,
    format_scalar,
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
    eval_on_generators,
    run_suite,
    SUITE_IDS,
)
from .reduction import reduce_identity
from .spans import MAX_DIM_DEGREE, verify_dimension
from .witt import structure_table, table_patterns, verify_tables

OPNAMES = DERIVED_PRODUCT_TAGS


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# One token after optional blanks: a number, a name, an operator, any other
# character, which no rule accepts, or "" at the end of the text.
_TOKEN = re.compile(r"[ \t]*([0-9]+(?:/[0-9]+)?|[A-Za-z][A-Za-z0-9_]*"
                    r"|[-+*(),]|\Z|.)", re.S)
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset(string.ascii_letters)
_STARTS = _DIGITS | _LETTERS | frozenset("+-*(),")  # first chars of tokens

# The call forms of the grammar: name -> (node class, operand count).  A
# derived product is tagged with its own name; assoc and bracket are tagged
# with the product chosen by --product.
CALL_FORMS = {"d": (Der, 1), "star": (Star, 1),
              **dict.fromkeys(OPNAMES, (DerOp, 2)),
              "assoc": (Assoc, 3), "bracket": (Bracket, 2)}

# The inverse: node class -> (call name, operand fields).  A DerOp prints as
# its tag.
_PRINTED_FORMS = {
    cls: (None if cls is DerOp else name,
          [f.name for f in fields(cls) if f.name != "tag"][:arity])
    for name, (cls, arity) in CALL_FORMS.items()}


class _Parser:
    """Recursive descent over the tokens of one line.  Columns are found
    again only when an error is raised.

    Every node is made by ``node``, through a table local to the parser, so
    equal subtrees of the line are one object.  A key holds the node class,
    its scalar (a tag, a variable index or a coefficient with its type) and
    its operands' identities: ``Bracket`` and ``DerOp`` nodes, and the
    coefficients 2, ``Fraction(2)`` and ``DeltaPoly.const(2)``, which compare
    equal, stay apart."""

    def __init__(self, text: str, line: int, product: str | None):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.pos = 0
        self.line = line
        self.product = product
        self.nodes: dict[tuple, Expr] = {}

    def node(self, key: tuple, cls, *args) -> Expr:
        """The one node ``cls(*args)`` of this parse with the given key."""
        got = self.nodes.get(key)
        if got is None:
            got = self.nodes[key] = cls(*args)
        return got

    def scale(self, c, body: Expr) -> Expr:
        return self.node((Scale, type(c), c, id(body)), Scale, c, body)

    def negate(self, node: Expr) -> Expr:
        """Fold a leading minus into a rational scalar coefficient."""
        if isinstance(node, Scale) and not isinstance(node.coeff, DeltaPoly):
            c = -node.coeff
            return node.body if c == 1 else self.scale(c, node.body)
        return self.scale(-1, node)

    def error(self, message: str) -> ParseError:
        """The error at the next token; a character outside the grammar
        anywhere in the line is reported instead, as the first error."""
        matches = list(_TOKEN.finditer(self.text))
        for m in matches:
            if m[1] and m[1][0] not in _STARTS:
                return ParseError(f"unexpected character {m[1]!r}",
                                  self.line, m.start(1) + 1)
        return ParseError(message, self.line, matches[self.pos].start(1) + 1)

    def expect_op(self, op: str) -> None:
        if self.toks[self.pos] != op:
            raise self.error(f"expected {op!r}")
        self.pos += 1

    def integer(self, digits: str) -> int:
        """The value of ASCII digits in the next token; more digits than the
        interpreter converts are a parse error."""
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"number of {len(digits)} digits is too long"
                             ) from None

    def parse_expr(self) -> Expr:
        toks = self.toks
        t = toks[self.pos]
        if t == "+" or t == "-":
            self.pos += 1
        node = self.parse_term()
        if t == "-":
            node = self.negate(node)
        t = toks[self.pos]
        if t != "+" and t != "-":
            return node
        terms = [node]
        while t == "+" or t == "-":
            self.pos += 1
            nxt = self.parse_term()
            terms.append(nxt if t == "+" else self.negate(nxt))
            t = toks[self.pos]
        return self.node((Sum, *map(id, terms)), Sum, tuple(terms))

    def parse_term(self) -> Expr:
        """Factors joined by '*': the generator factors multiplied from the
        left, scaled by the product of the scalar factors unless it is 1."""
        toks = self.toks
        node = coeff = None
        while True:
            t = toks[self.pos]
            if t[:1] in _DIGITS:
                num, _, den = t.partition("/")
                num, den = self.integer(num), self.integer(den or "1")
                if den == 0:
                    raise self.error("zero denominator")
                c = Fraction(num, den)
            elif t == "delta":
                c = DELTA
            else:
                nxt = self.parse_atom()
                node = nxt if node is None else self.node(
                    (Mul, id(node), id(nxt)), Mul, node, nxt)
                c = None
            if c is not None:
                self.pos += 1
                coeff = c if coeff is None else coeff * c
            if toks[self.pos] != "*":
                break
            self.pos += 1
        if node is None:
            raise self.error("term has no generator factor")
        if coeff is not None and coeff != 1:
            node = self.scale(coeff if isinstance(coeff, DeltaPoly)
                              else _as_int(coeff), node)
        return node

    def parse_atom(self) -> Expr:
        t = self.toks[self.pos]
        if t == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if t[:1] == "x" and t[1:].isdigit():
            idx = self.integer(t[1:])
            if idx < 1:
                raise self.error("variable index must be >= 1")
            self.pos += 1
            return self.node((Var, idx), Var, idx)
        form = CALL_FORMS.get(t)
        if form is None:
            raise self.error("expected factor" if t[:1] not in _LETTERS
                             else f"unknown operation name {t!r}")
        cls, arity = form
        tag = None
        if hasattr(cls, "tag"):  # a derived product, assoc or bracket
            tag = t if cls is DerOp else self.product
            if tag is None:
                raise self.error(f"{t}(...) needs --product")
        self.pos += 1
        self.expect_op("(")
        ops = [self.parse_expr()]
        for _ in range(arity - 1):
            self.expect_op(",")
            ops.append(self.parse_expr())
        self.expect_op(")")
        args = ops if tag is None else [tag, *ops]
        return self.node((cls, tag, *map(id, ops)), cls, *args)


def _as_int(c: Fraction):
    return int(c) if isinstance(c, Fraction) and c.denominator == 1 else c


def parse_expr(text: str, product: str | None = None, line: int = 1) -> Expr:
    """Parse one expression; whitespace-insensitive.  Unbound variables are
    an evaluation-time error, not a parse error."""
    parser = _Parser(text, line, product)
    node = parser.parse_expr()
    if parser.toks[parser.pos]:
        raise parser.error("trailing input")
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
    return format_scalar(c)


def pretty(e: Expr, _prec: int = 0) -> str:
    """Render a tree in the expression grammar; parsing the result gives the
    tree back."""
    if isinstance(e, Var):
        return f"x{e.index}"
    form = _PRINTED_FORMS.get(type(e))
    if form is not None:
        name, operands = form
        args = ", ".join(pretty(getattr(e, f)) for f in operands)
        return f"{name or e.tag}({args})"
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


def _term_json(m, c) -> dict:
    return {"monomial": format_monomial(m), "coeff": format_scalar(c)}


_QUOTE = json.encoder.encode_basestring  # JSON string literal, non-ASCII kept
# the JSON text of a scalar, by exact type
_SCALARS = {str: _QUOTE, int: int.__repr__, type(None): lambda _: "null",
            bool: lambda b: "true" if b else "false"}
_BATCH = 4096  # pieces per write: one write per piece is slow on an
               # unbuffered stdout (python -u)


def write_json(obj, write) -> None:
    """Pass ``json.dumps(obj, indent=2, ensure_ascii=False)`` to ``write``
    in batches of pieces, as it is encoded.

    Scalars are of the exact types ``str``, ``int``, ``bool`` and ``None``,
    containers lists, tuples and dicts with ``str`` keys; anything else
    raises ``TypeError``.  A generator is written as the list it yields,
    read in a single pass as it is written, so a long one (the entries of
    ``structure_table``) need never be held whole.  A ``FrozenDoc`` (a
    basis element of a table, met thousands of times) is encoded once for
    each indent it is written at; its text is kept in the doc and written
    whole from then on.  The standard encoder runs in pure Python when it
    indents; this writer makes one call per container, not per value.
    """
    out: list[str] = []
    put = out.append
    scalar = _SCALARS.get

    def value(o, pad: str) -> None:
        if isinstance(o, dict):
            if type(o) is FrozenDoc:
                text = o.encoded.get(pad)
                if text is None:
                    text = o.encoded[pad] = _frozen_text(o, pad)
                return put(text)
            if not o:
                return put("{}")
            inner = pad + "  "
            sep = "{\n" + inner
            for k, item in o.items():
                head = sep + _QUOTE(k) + ": "  # TypeError unless k is a str
                text = scalar(type(item))
                if text is None:
                    put(head)
                    value(item, inner)
                else:
                    put(head + text(item))
                sep = ",\n" + inner
            put("\n" + pad + "}")
        elif isinstance(o, (list, tuple, GeneratorType)):
            inner = pad + "  "
            sep = first = "[\n" + inner
            for item in o:
                text = scalar(type(item))
                if text is None:
                    put(sep)
                    value(item, inner)
                else:
                    put(sep + text(item))
                sep = ",\n" + inner
            put("[]" if sep is first else "\n" + pad + "]")
        else:
            text = scalar(type(o))
            if text is None:
                raise TypeError(f"Object of type {type(o).__name__} "
                                "is not JSON serializable")
            return put(text(o))
        if len(out) >= _BATCH:
            write("".join(out))
            out.clear()

    value(obj, "")
    if out:
        write("".join(out))


def _frozen_text(doc: FrozenDoc, pad: str) -> str:
    """The text of ``doc`` written at indent ``pad``.  Every newline in the
    text is structure (strings escape theirs), so each is followed by
    ``pad`` more blanks than at the top level."""
    pieces: list[str] = []
    write_json(dict(doc), pieces.append)
    return "".join(pieces).replace("\n", "\n" + pad)


def _emit(obj, quiet: bool, summary: list[str], fmt: str = "json") -> None:
    if fmt == "json":
        write_json(obj, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        for line in summary:
            sys.stdout.write(line + "\n")
    if not quiet and fmt == "json":
        for line in summary:
            sys.stderr.write(line + "\n")


def _cmd_check(args) -> int:
    if args.suite:
        suite_list = list(SUITE_IDS) if args.suite == "all" else [args.suite]
        for sid in suite_list:
            if sid not in SUITE_IDS:
                sys.stderr.write(f"unknown suite: {sid}\n")
                return 2
        label = args.suite
        results = [(r.name, r.expected, r.verdict)
                   for sid in suite_list for r in run_suite(sid)]
    else:
        label = args.file
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            sys.stderr.write(f"cannot read {args.file}: {exc}\n")
            return 2
        results = []
        for lineno, raw in enumerate(lines, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            expr = parse_expr(text, product=args.product, line=lineno)
            try:
                results.append((f"line{lineno}", True, check_identity(expr)))
            except AlgebraError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
    cases = []
    for name, expected, verdict in results:
        entry = {"name": name, "expected": expected,
                 "got": verdict.is_identity}
        if verdict.witness is not None:
            entry["witness"] = _term_json(*verdict.witness)
        cases.append(entry)
    ok = all(c["got"] == c["expected"] for c in cases)
    report = {"suite": label, "cases": cases}
    summary = [f"{'ok' if c['got'] == c['expected'] else 'FAIL'}  "
               f"{c['name']}: got={c['got']} expected={c['expected']}"
               for c in cases]
    summary.append(f"{'all verdicts as expected' if ok else 'UNEXPECTED VERDICTS'}"
                   f" ({len(cases)} cases)")
    _emit(report, args.quiet, summary, args.format)
    return 0 if ok else 1


def _parse_range(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    try:
        out = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise AlgebraError(f"bad degree range {spec!r}; use N or LO..HI")
    if not out:
        raise AlgebraError(f"empty degree range {spec!r}")
    if out.start < 2 or out[-1] > MAX_DIM_DEGREE:
        raise AlgebraError(f"degree range {spec!r} is outside "
                           f"2..{MAX_DIM_DEGREE}")
    return out


def _cmd_dim(args) -> int:
    degrees = _parse_range(args.n)
    top = verify_dimension(degrees[-1], args.variant)  # proves every degree
    records = [r.record() for r in top.lower + [top] if r.n in degrees]
    ok = all(r["ok"] for r in records)
    summary = [f"{'ok' if r['ok'] else 'FAIL'}  n={r['n']} variant={r['variant']}"
               f" dim={r['rank_closure']} formula={r['formula']}"
               + (f" failed: {r['failed']}" if "failed" in r else "")
               for r in records]
    _emit(records, args.quiet, summary, args.format)
    return 0 if ok else 1


def _cmd_table(args) -> int:
    doc = structure_table(args.n, args.kind, args.bound)
    count = (len(table_patterns(args.n, args.kind))
             * (args.bound + 1) ** (2 * args.n))
    summary = [f"table n={args.n} kind={args.kind} bound={args.bound}: "
               f"{count} entries"]
    code = 0
    if args.verify:
        ver = verify_tables(args.bound if args.bound >= 3 else 3)
        doc["verification"] = {"ok": ver.ok,
                               "rules": [asdict(r) for r in ver.rules]}
        summary.append(f"verification: {ver.total_checks} instantiations, "
                       f"{'all match' if ver.ok else 'MISMATCHES FOUND'}")
        code = 0 if ver.ok else 1
    _emit(doc, args.quiet, summary, args.format)
    return code


def _cmd_reduce(args) -> int:
    poly = eval_on_generators(parse_expr(args.expr, product=args.product))
    result = reduce_identity(poly)
    # each trace polynomial is formatted once; the first step is the input
    texts = [format_poly(s.poly) for s in result.trace]
    doc = {"input": texts[0], "outcome": result.outcome}
    summary = [f"outcome: {result.outcome}"]
    if result.certificate is not None:
        (mono, coeff), = result.certificate.terms.items()
        doc["m"] = result.m
        doc["coefficient"] = format_scalar(coeff)
        doc["certificate"] = format_poly(result.certificate)
        summary.append(f"certificate: {doc['certificate']} = 0")
    doc["trace"] = [{"step": i, "name": s.name,
                     "rule": {k: (list(v) if isinstance(v, (tuple, list))
                                  else v) for k, v in s.rule.items()},
                     "poly": text}
                    for i, (s, text) in enumerate(zip(result.trace, texts))]
    summary += [f"  {s.name}: {text}" for s, text in zip(result.trace, texts)]
    _emit(doc, args.quiet, summary, args.format)
    return 0


def _cmd_expand(args) -> int:
    expr = parse_expr(args.expr, product=args.product)
    poly = eval_on_generators(expr)
    doc = {"expression": pretty(expr),
           "terms": [_term_json(m, c) for m, c in poly.sorted_terms()],
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
    p.add_argument("--n", required=True,
                   help=f"degree or range within 2..{MAX_DIM_DEGREE}, "
                        "e.g. 4 or 2..6")
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
    except BrokenPipeError:
        # the reader closed stdout early: say nothing, point stdout at the
        # null device so the interpreter's last flush cannot fail again, and
        # exit as a process killed by SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except AlgebraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RecursionError:
        sys.stderr.write("error: input nested too deeply\n")
        return 2
    except Exception as exc:  # a fault of permdiff, never exit 1's verdict
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
