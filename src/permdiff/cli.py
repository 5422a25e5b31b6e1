"""Command-line front end: check identities, compute dimensions, emit tables
and reduction traces, expand and print expressions.

Machine-readable JSON goes to stdout, streamed from the standard encoder in
batches as ``json.dumps(obj, indent=2, ensure_ascii=False)`` would write it
(a table's entries from texts made as they are computed); a human summary
goes to stderr unless --quiet is given.  Exit codes: 0 success, 1
verification failure, 2 usage or parse error, 3 internal error.  All output
is deterministic byte-for-byte given the same flags.  Expressions are read
in the grammar of ``exprs.parse_expr``; ``assoc`` and ``bracket`` use the
product selected with --product.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from typing import Iterable

from .algebra import (
    AlgebraError,
    DERIVED_PRODUCT_TAGS,
    format_monomial,
    format_poly,
    format_scalar,
)
from .exprs import (
    ParseError,
    check_identity,
    eval_on_generators,
    parse_expr,
    pretty,
    run_suite,
    SUITE_IDS,
)
from .reduction import reduce_identity
from .spans import MAX_DIM_DEGREE, verify_dimension
from .witt import basis_doc, structure_table, table_patterns, verify_tables


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _term_json(m, c) -> dict:
    return {"monomial": format_monomial(m), "coeff": format_scalar(c)}


_BATCH = 1 << 16  # characters per write to stdout: one write per encoder
                  # chunk is slow on an unbuffered stdout (python -u)
_ENCODER = json.JSONEncoder(indent=2, ensure_ascii=False)
# stands in a table document for its entries, which _emit writes from the
# texts it is given, as the list of a key of the top-level object
_ENTRIES = "\0entries\0"


def _basis_text(n: int, b, pad: str) -> str:
    """The JSON text of the basis element ``b`` written at indent ``pad``,
    as the encoder lays out ``basis_doc(n, b)``."""
    doc = basis_doc(n, b)
    e = f",\n{pad}    ".join(map(str, doc["e"]))
    return (f'{{\n{pad}  "e": [\n{pad}    {e}\n{pad}  ],\n{pad}  "alpha": '
            f'"{doc["alpha"]}",\n{pad}  "i": "{doc["i"]}"\n{pad}}}')


def _entry_texts(n: int, entries):
    """The text of each entry of a structure table as an item of the
    top-level object's list, as one string.  A basis element's text is
    made the first time it is met at each of its two indents and kept for
    the table: the results reach exponents up to 2 * bound + 1, so a few
    thousand texts."""
    p6, p8, p10 = " " * 6, " " * 8, " " * 10
    side = functools.cache(lambda b: _basis_text(n, b, p6))
    term = functools.cache(lambda b: _basis_text(n, b, p10))
    for left, right, result in entries:
        items = [f'{{\n{p10}"coeff": "{c}",\n{p10}"basis": {term(b)}\n{p8}}}'
                 for b, c in result]
        items = (f"[\n{p8}" + f",\n{p8}".join(items) + f"\n{p6}]"
                 if items else "[]")
        yield (f'{{\n{p6}"left": {side(left)},\n{p6}"right": {side(right)}'
               f',\n{p6}"result": {items}\n    }}')


def _spliced(chunks, items):
    """The encoder's ``chunks`` with the list of ``items`` in place of the
    value ``_ENTRIES``, or ``[]`` when there are none."""
    mark = _ENCODER.encode(_ENTRIES)
    for chunk in chunks:
        if chunk == mark:
            sep = first = "[\n    "
            for text in items:
                yield sep + text
                sep = ",\n    "
            chunk = "[]" if sep is first else "\n  ]"
        yield chunk


def _emit(obj, quiet: bool, summary: Iterable[str], fmt: str = "json",
          items: Iterable[str] | None = None) -> None:
    """Write ``obj`` to stdout as ``json.dumps(obj, indent=2,
    ensure_ascii=False)`` and the summary lines to stderr, unless
    ``quiet``; or, as text, the summary lines to stdout.  The JSON is
    written in batches of about ``_BATCH`` characters as it is encoded,
    with ``items``, if given, as the list in place of ``_ENTRIES``, so a
    long list need never be held whole.  The lines are read only when they
    are written."""
    if fmt == "json":
        chunks = _ENCODER.iterencode(obj)
        if items is not None:
            chunks = _spliced(chunks, items)
        batch, size = [], 0
        for chunk in chunks:
            batch.append(chunk)
            size += len(chunk)
            if size >= _BATCH:
                sys.stdout.write("".join(batch))
                batch.clear()
                size = 0
        batch.append("\n")
        sys.stdout.write("".join(batch))
        out = None if quiet else sys.stderr
    else:
        out = sys.stdout
    if out is not None:
        for line in summary:
            out.write(line + "\n")


def _cmd_check(args) -> int:
    if args.suite:
        suite_list = list(SUITE_IDS) if args.suite == "all" else [args.suite]
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
    records = [r.record() for r in verify_dimension(degrees[-1], args.variant)
               if r.n in degrees]  # one proof through every degree
    ok = all(r["ok"] for r in records)
    summary = [f"{'ok' if r['ok'] else 'FAIL'}  n={r['n']} variant={r['variant']}"
               f" dim={r['rank_closure']} formula={r['formula']}"
               + (f" failed: {r['failed']}" if "failed" in r else "")
               for r in records]
    _emit(records, args.quiet, summary, args.format)
    return 0 if ok else 1


def _cmd_table(args) -> int:
    doc = structure_table(args.n, args.kind, args.bound)
    entries, doc["entries"] = _entry_texts(args.n, doc["entries"]), _ENTRIES
    count = (len(table_patterns(args.n, args.kind))
             * (args.bound + 1) ** (2 * args.n))
    summary = [f"table n={args.n} kind={args.kind} bound={args.bound}: "
               f"{count} entries"]
    code = 0
    if args.verify:
        ver = verify_tables(args.bound if args.bound >= 3 else 3)
        doc["verification"] = {"ok": ver.ok,
                               "rules": [r._asdict() for r in ver.rules]}
        summary.append(f"verification: {ver.total_checks} instantiations, "
                       f"{'all match' if ver.ok else 'MISMATCHES FOUND'}")
        code = 0 if ver.ok else 1
    _emit(doc, args.quiet, summary, args.format, entries)
    return code


def _cmd_reduce(args) -> int:
    poly = eval_on_generators(parse_expr(args.expr, product=args.product))
    result = reduce_identity(poly)
    # each step printed once: the first is the input, the last the
    # certificate when there is one
    texts = [s.text() for s in result.trace]
    doc = {"input": texts[0], "outcome": result.outcome}
    summary = [f"outcome: {result.outcome}"]
    if result.certificate is not None:
        (_, coeff), = result.certificate.terms.items()
        doc.update(m=result.m, coefficient=format_scalar(coeff),
                   certificate=texts[-1])
        summary.append(f"certificate: {texts[-1]} = 0")
    doc["trace"] = [{"step": i, "name": s.name,
                     "rule": s.rule, "poly": text}
                    for i, (s, text) in enumerate(zip(result.trace, texts))]
    steps = (f"  {s.name}: {text}" for s, text in zip(result.trace, texts))
    _emit(doc, args.quiet, chain(summary, steps), args.format)
    return 0


def _cmd_expand(args) -> int:
    expr = parse_expr(args.expr, product=args.product)
    poly = eval_on_generators(expr)
    text = format_poly(poly)
    doc = {"expression": pretty(expr),
           "terms": [_term_json(m, c) for m, c in poly.sorted_terms()],
           "text": text}
    _emit(doc, args.quiet, [text], args.format)
    return 0


@functools.cache
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
    g.add_argument("--suite", choices=(*SUITE_IDS, "all"),
                   help="suite id a..h, or 'all'")
    g.add_argument("--file", help="file with one candidate identity per line")
    p.add_argument("--product", choices=DERIVED_PRODUCT_TAGS, default=None,
                   help="product used by assoc(...)/bracket(...)")

    p = sub.add_parser("dim", parents=[common], help="verify multilinear dimensions of the "
                                   "generated subalgebras")
    p.add_argument("--variant", choices=("star", "prime"), required=True)
    p.add_argument("--n", required=True,
                   help=f"degree or range within 2..{MAX_DIM_DEGREE}, "
                        "e.g. 4 or 2..6")

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

    p = sub.add_parser("reduce", parents=[common], help="run the identity reduction pipeline")
    p.add_argument("expr", help="multilinear identity candidate")
    p.add_argument("--product", choices=DERIVED_PRODUCT_TAGS, default=None)

    p = sub.add_parser("expand", parents=[common], help="expand an expression to normal form")
    p.add_argument("expr")
    p.add_argument("--product", choices=DERIVED_PRODUCT_TAGS, default=None)
    return ap


def main(argv: list[str] | None = None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # looked up here, not bound into the cached parser, so a command
        # function rebound in this module is the one that runs
        return globals()[f"_cmd_{args.command}"](args)
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
    except Exception as exc:  # a fault of permdiff, never exit 1's verdict
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
