import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from conftest import break_family
from hypothesis import example, given, settings

from permdiff import cli, exprs, spans
from permdiff.algebra import (
    DELTA,
    DERIVED_PRODUCT_TAGS,
    DeltaPoly,
    DiffPermPoly,
)
from permdiff.cli import ParseError, main, parse_expr, pretty
from permdiff.exprs import (
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
    eval_expr,
    run_suite,
    standard_identity,
    suite_cases,
)
from permdiff.spans import MAX_DIM_DEGREE
from permdiff.witt import MAX_TABLE_BOUND

DEEP = "d(" * 3000 + "x1" + ")" * 3000
# a product of 1000 factors with no parentheses, which parses into a chain
# of 999 products down the left operands
FLAT = " * ".join(f"x{i}" for i in range(1, 1001))
BIG = "1" + "0" * 4000
UNPRINTABLE = (f"error: a coefficient has more than "
               f"{sys.get_int_max_str_digits()} digits and cannot be printed")


# forms that keep one term per level, each with the offset of the name or
# parenthesis that opens a level and the product that assoc and bracket
# read; forms that double their terms, such as assoc under diamond, are
# exponential at any depth
NESTINGS = pytest.mark.parametrize("wrap,opener,product", [
    (lambda t: f"d({t})", 0, None),
    (lambda t: f"star({t})", 0, None),
    (lambda t: f"({t})", 0, None),
    (lambda t: f"x1 * ({t})", 5, None),
    (lambda t: f"x1 + ({t})", 5, None),
    (lambda t: f"x1 - ({t})", 5, None),
    (lambda t: f"succ(x1, {t})", 0, None),
    (lambda t: f"prec({t}, x1)", 0, None),
    (lambda t: f"bracket({t}, x1)", 0, "prec"),
    (lambda t: f"assoc({t}, x1, x1)", 0, "prec"),
], ids=["d", "star", "paren", "mul", "sum", "difference", "succ", "prec",
        "bracket", "assoc"])


def nest(wrap, levels: int) -> str:
    text = "x2"
    for _ in range(levels):
        text = wrap(text)
    return text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def find_tag(e):
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, (DerOp, Bracket)):
            return n.tag
        if isinstance(n, Assoc):
            return n.tag
        if isinstance(n, Mul):
            stack += [n.lhs, n.rhs]
        elif isinstance(n, (Der, Star, Scale)):
            stack.append(n.body)
        elif isinstance(n, Sum):
            stack.extend(n.terms)
    return None


def grammar_trees(product):
    """Trees the parser can produce with ``--product`` set to ``product``:
    no scalar 1 and no -1 directly over a scaled node, which the parser
    folds into one coefficient."""
    coeff = st.sampled_from((-2, -1, 0, 2, Fraction(1, 2), Fraction(-3, 2)))
    return st.recursive(
        st.integers(1, 3).map(Var),
        lambda sub: st.one_of(
            sub.map(Der),
            sub.map(Star),
            st.tuples(st.sampled_from(DERIVED_PRODUCT_TAGS), sub, sub).map(
                lambda t: DerOp(*t)),
            st.tuples(sub, sub).map(lambda t: Bracket(product, *t)),
            st.tuples(sub, sub, sub).map(lambda t: Assoc(product, *t)),
            st.tuples(sub, sub).map(lambda t: Mul(*t)),
            st.tuples(coeff, sub).filter(
                lambda t: not (t[0] == -1 and isinstance(t[1], Scale))).map(
                lambda t: Scale(*t)),
            st.lists(sub, min_size=2, max_size=3).map(
                lambda ts: Sum(tuple(ts))),
        ),
        max_leaves=5)


class TestParse:
    def test_mul_der(self):
        assert parse_expr("x1 * d(x2)") == Mul(Var(1), Der(Var(2)))

    def test_nested_derived_ops(self):
        got = parse_expr("loz(x1, loz(x2, x3))")
        assert got == DerOp("loz", Var(1), DerOp("loz", Var(2), Var(3)))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 *")
        assert err.value.col == 5
        assert "column 5" in str(err.value)

    def test_unknown_operation(self):
        with pytest.raises(ParseError, match="unknown operation"):
            parse_expr("frob(x1, x2)")

    def test_rational_coefficient(self):
        from fractions import Fraction
        got = parse_expr("3/2 * x1 * x2")
        assert got == Scale(Fraction(3, 2), Mul(Var(1), Var(2)))

    def test_whitespace_insensitive(self):
        assert parse_expr("x1*d(x2)") == parse_expr("  x1  *  d( x2 ) ")

    def test_signs_and_difference(self):
        got = parse_expr("x1 * x2 - 2 * x2 * x1")
        assert got == Sum((Mul(Var(1), Var(2)),
                           Scale(-2, Mul(Var(2), Var(1)))))

    def test_constant_term_rejected(self):
        with pytest.raises(ParseError, match="generator factor"):
            parse_expr("3 + x1 * x2")

    def test_assoc_needs_product(self):
        with pytest.raises(ParseError, match="--product"):
            parse_expr("assoc(x1, x2, x3)")
        got = parse_expr("assoc(x1, x2, x3)", product="loz")
        assert got == Assoc("loz", Var(1), Var(2), Var(3))

    @given(st.sampled_from(DERIVED_PRODUCT_TAGS).flatmap(
        lambda p: st.tuples(st.just(p), grammar_trees(p))))
    @settings(max_examples=150, deadline=None)
    # a right operand that is a product whose text starts with "("
    @example(product_tree=("loz", Mul(Var(1), Mul(Sum((Var(2), Var(3))),
                                                  Var(1)))))
    @example(product_tree=("loz", Mul(Var(1), Mul(Scale(2, Var(2)),
                                                  Var(3)))))
    # a sum as a term of a sum and as the body of a scale
    @example(product_tree=("loz", Sum((Var(1), Sum((Var(2), Var(3)))))))
    @example(product_tree=("loz", Scale(2, Sum((Var(1), Var(2))))))
    @example(product_tree=("loz", Scale(-1, Sum((Var(1), Var(2))))))
    def test_round_trip_on_random_trees(self, product_tree):
        product, tree = product_tree
        text = pretty(tree)
        back = parse_expr(text, product=product)
        assert pretty(back) == text
        assert back == tree  # equality is class-exact: Bracket is no DerOp
        gens = {i: DiffPermPoly.generator(i) for i in (1, 2, 3)}
        assert eval_expr(back, gens) == eval_expr(tree, gens)

    def test_round_trip_on_all_suite_expressions(self):
        for sid in ("a", "b", "c", "d", "e", "f"):
            for case in suite_cases(sid):
                text = pretty(case.expr)
                back = parse_expr(text, product=find_tag(case.expr))
                assert back == case.expr, case.name

    def test_suite_texts_are_printed_as_written(self):
        assert len(exprs._IDENTITIES) == 11
        for _, name, product, _, text in exprs._IDENTITIES:
            assert pretty(parse_expr(text, product)) == text, name

    def test_equal_subtrees_of_a_line_are_one_object(self):
        got = parse_expr("diamond(x1, diamond(x2, x3)) - 2 * x4 * diamond(x2,"
                         " x3) + (x4 * diamond(x2, x3) + x1)")
        first, second, third = got.terms
        inner = first.rhs
        assert second.body.lhs is third.terms[0].lhs
        assert second.body.rhs is inner and third.terms[0].rhs is inner
        assert first.lhs is third.terms[1]
        assert second.body is third.terms[0]

    def test_sharing_keeps_classes_apart(self):
        got = parse_expr("bracket(x1, x2) + diamond(x1, x2) + bracket(x1, x2)",
                         product="diamond")
        bracket, derop, again = got.terms
        assert type(bracket) is Bracket and type(derop) is DerOp
        assert bracket is again and bracket is not derop
        assert bracket.lhs is derop.lhs and bracket.rhs is derop.rhs

    def test_sharing_keeps_coefficient_types(self):
        # an integral rational is an int and a zero multiple of delta has
        # no delta term, so 0*x1 and 0*delta*x1 are one node of the rational
        # 0; a coefficient of 1 makes no node
        got = parse_expr("2*x1 + 1/2*x1 + delta*x1 + 0*x1 + 0*delta*x1"
                         " + 2*x1 - 2*x1 + 4/2*x1 + 1*x1")
        terms = got.terms
        assert [type(t.coeff) for t in terms[:8]] == [
            int, Fraction, DeltaPoly, int, int, int, int, int]
        assert [t.coeff for t in terms[:8]] == [2, Fraction(1, 2), DELTA, 0,
                                                0, 2, -2, 2]
        assert terms[3] is terms[4]
        assert terms[0] is terms[5] is terms[7]
        assert terms[8] is terms[0].body

    def test_negative_term_left_by_its_sign_prints_parseable(self):
        # -1 times a negative multiple: the sign is printed, and the term it
        # leaves, negative itself, is parenthesised
        gens = {i: DiffPermPoly.generator(i) for i in (1, 2, 3, 4)}
        for tree, text in (
                (Sum((Var(2), Scale(-1, Scale(-3, Var(4))))),
                 "x2 - (-3 * x4)"),
                (Sum((Scale(-1, Scale(Fraction(-1, 2), Var(4))), Var(2))),
                 "-(-1/2 * x4) + x2")):
            assert pretty(tree) == text
            assert eval_expr(parse_expr(text), gens) == eval_expr(tree, gens)

    def test_library_tree_prints_text_of_the_same_value(self):
        # -1 times a positive multiple prints as one negative term, which
        # parses as another tree of the same value
        tree = Sum((Var(2), Scale(-1, Scale(3, Var(4)))))
        text = pretty(tree)
        back = parse_expr(text)
        assert text == "x2 - 3 * x4"
        assert back == Sum((Var(2), Scale(-3, Var(4)))) != tree
        gens = {i: DiffPermPoly.generator(i) for i in (2, 4)}
        assert eval_expr(back, gens) == eval_expr(tree, gens)

    @pytest.mark.parametrize("n", [4, 5])
    def test_shared_parse_round_trips(self, n):
        library = standard_identity("diamond", n)
        text = pretty(library)
        got = parse_expr(text)
        assert got == library and pretty(got) == text

    def test_two_parses_share_no_node(self):
        text = "loz(x1, x2) * d(x3) - 1/2 * loz(x1, x2) * d(x3)"
        a, b = parse_expr(text), parse_expr(text)
        assert a == b and a is not b
        assert a.terms[0] is a.terms[1].body
        assert a.terms[0] is not b.terms[0]
        assert a.terms[0].lhs.lhs is not b.terms[0].lhs.lhs

    # grammar pieces mixed with characters outside the grammar: non-ASCII
    # digits and letters, an underscore, a lone slash, a newline
    FRAGMENTS = ("x1", "x2", "x", "d(", "star(", "diamond(", "assoc(",
                 "bracket(", "(", ")", ",", "+", "-", "*", " ", "\t", "3",
                 "1/2", "2/0", "/", "delta", "_", "\n", "\u00b2", "\u0663",
                 "\u00e9", "\u03b4", "x1\u00b2", "\uff11")

    @given(st.one_of(st.text(), st.lists(st.sampled_from(FRAGMENTS)).map(
        "".join)), st.sampled_from((None, "diamond")))
    @settings(max_examples=400, deadline=None)
    def test_any_text_parses_or_is_a_parse_error(self, text, product):
        try:
            got = parse_expr(text, product=product)
        except ParseError as exc:
            assert exc.line == 1 and 1 <= exc.col <= len(text) + 1
        else:
            assert isinstance(got, Expr)


class TestDispatch:
    def test_check_suite_all_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "check", "--suite", "all", "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "all"
        assert len(doc["cases"]) == 15
        std5, = [c for c in doc["cases"] if c["name"] == "diamond-std5"]
        assert std5["expected"] is False and std5["got"] is False
        assert std5["witness"]["coeff"] == "-2"

    def test_check_unknown_suite_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "--suite", "zz", "--quiet")
        assert code == 2 and out == ""
        assert "argument --suite: invalid choice: 'zz'" in err

    def test_dim_star_range(self, capsys):
        code, out, err = run_cli(capsys, "dim", "--variant", "star",
                                 "--n", "2..5", "--quiet")
        assert code == 0
        recs = json.loads(out)
        assert [r["rank_closure"] for r in recs] == [1, 3, 10, 35]
        assert all(r["ok"] for r in recs)
        assert set(recs[0]) == {"n", "variant", "formula", "rank_closure",
                                "rank_S", "ok"}

    def test_table_with_verification(self, capsys):
        code, out, err = run_cli(capsys, "table", "--n", "2", "--kind",
                                 "leibniz", "--bound", "1", "--verify",
                                 "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "leibniz" and doc["verification"]["ok"]

    def test_reduce_command(self, capsys):
        code, out, err = run_cli(capsys, "reduce", "x1 * d(x2)", "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "derivative_only"
        assert doc["m"] == 5
        assert doc["certificate"] == "x1' x3' x4' x5' x6'"
        assert doc["trace"][0]["name"] == "input"

    def test_reduce_annihilator(self, capsys):
        code, out, err = run_cli(capsys, "reduce", "x1 * x2 - x2 * x1",
                                 "--quiet")
        assert code == 0
        assert json.loads(out)["outcome"] == "right_annihilator"

    def test_expand(self, capsys):
        code, out, err = run_cli(capsys, "expand", "loz(x1, x2)", "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["text"] == "x1 x2' + x2 x1'"

    def test_expand_prints_bracket_and_assoc(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--product", "diamond",
                                 "bracket(x1, x2) - assoc(x1, x2, x3)",
                                 "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["expression"] == "bracket(x1, x2) - assoc(x1, x2, x3)"

    @pytest.mark.parametrize("text,printed", [
        ("x1 + (x2 + x3)", "x1 + (x2 + x3)"),
        ("2 * (x1 + x2)", "2 * (x1 + x2)"),
        ("-(x1 + x2)", "-1 * (x1 + x2)"),
    ])
    def test_expand_prints_a_nested_sum_in_one_pair_of_parentheses(
            self, capsys, text, printed):
        code, out, err = run_cli(capsys, "expand", text, "--quiet")
        assert code == 0
        assert json.loads(out)["expression"] == printed

    @pytest.mark.parametrize("argv,message", [
        (("expand", "x\u00b2"),
         "syntax error at line 1, column 2: unexpected character '\u00b2'"),
        (("expand", "\u00b2"),
         "syntax error at line 1, column 1: unexpected character '\u00b2'"),
        (("expand", "\u0663 * x1"),
         "syntax error at line 1, column 1: unexpected character '\u0663'"),
        (("expand", "x\u0663"),
         "syntax error at line 1, column 2: unexpected character '\u0663'"),
        (("expand", "x" + "7" * 5000),
         "syntax error at line 1, column 1: number of 5000 digits is too long"),
        (("expand", "7" * 5000 + " * x1"),
         "syntax error at line 1, column 1: number of 5000 digits is too long"),
        # every number is short enough to read, but their product is too
        # long to print
        (("expand", f"{BIG} * {BIG} * x1"), UNPRINTABLE),
        (("reduce", f"{BIG} * {BIG} * x1 * x2"), UNPRINTABLE),
    ], ids=["superscript-after-x", "superscript", "arabic-indic-digit",
            "arabic-indic-index", "long-index", "long-coefficient",
            "unprintable-coefficient-expand",
            "unprintable-coefficient-reduce"])
    def test_hostile_expression_exit_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--quiet")
        assert code == 2 and out == ""
        assert err == f"{message}\n"

    def test_check_file_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + "x1 * x2\n".encode("utf-16-le"))
        code, out, err = run_cli(capsys, "check", "--file", str(path),
                                 "--quiet")
        assert code == 2 and out == ""
        assert err.startswith(f"cannot read {path}: 'utf-8' codec")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["d(0*x1) + d(0*delta*x1)",
                                      "d(0*delta*x1) + d(0*x1)"])
    def test_zero_multiple_of_delta_expands_to_zero(self, capsys, text):
        # 0*delta is the rational 0, in either order of the two terms
        code, out, err = run_cli(capsys, "expand", text, "--quiet")
        assert code == 0 and err == ""
        assert json.loads(out) == {"expression": "d(0 * x1) + d(0 * x1)",
                                   "terms": [], "text": "0"}

    def test_parse_error_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "expand", "x1 *", "--quiet")
        assert code == 2
        assert "column 5" in err

    @pytest.mark.parametrize("expr", ["d(" * 3000 + "x1" + ")" * 3000,
                                      "(" * 3000 + "x1" + ")" * 3000])
    def test_deep_nesting_exit_two(self, capsys, expr):
        code, out, err = run_cli(capsys, "expand", expr, "--quiet")
        assert code == 2
        assert out == ""
        col = 513 if expr.startswith("d") else 257  # the 257th level opens
        assert err == (f"syntax error at line 1, column {col}: "
                       "nested deeper than 256 levels\n")

    @NESTINGS
    def test_deep_input_that_parses_expands(self, capsys, wrap, opener,
                                            product):
        # MAX_NESTING levels expand in process, on pytest's deeper stack
        text = nest(wrap, exprs.MAX_NESTING)
        flags = ("--product", product) if product else ()
        code, out, err = run_cli(capsys, "expand", text, "--quiet", *flags)
        assert code == 0 and err == ""
        assert json.loads(out)["terms"]

    @NESTINGS
    def test_one_level_deeper_is_refused(self, capsys, wrap, opener,
                                         product):
        # refused at the name or parenthesis that opens the extra level
        text = nest(wrap, exprs.MAX_NESTING + 1)
        flags = ("--product", product) if product else ()
        code, out, err = run_cli(capsys, "expand", text, "--quiet", *flags)
        col = wrap("x2").index("x2") * exprs.MAX_NESTING + opener + 1
        assert (code, out) == (2, "")
        assert err == (f"syntax error at line 1, column {col}: "
                       "nested deeper than 256 levels\n")

    @pytest.mark.parametrize("text,col", [
        (DEEP, 513),
        (f"{DEEP} + {DEEP.replace('x1', 'x2')}", 513),
        (f"diamond({DEEP}, x2) - diamond({DEEP}, x3)", 519),
    ], ids=["deep", "sum-of-two", "deep-left-operands"])
    def test_deep_check_file_and_reduce_exit_two(self, tmp_path, capsys,
                                                  text, col):
        path = tmp_path / "deep.txt"
        path.write_text(text + "\n")
        for argv in (("check", "--file", str(path)), ("reduce", text)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv[0]
            assert out == ""
            assert err == (f"syntax error at line 1, column {col}: "
                           "nested deeper than 256 levels\n")

    def test_recursion_error_is_an_internal_error(self, capsys, monkeypatch):
        # only the parser bounds nesting: a RecursionError is a fault
        def overflow(*args):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(cli, "verify_dimension", overflow)
        code, out, err = run_cli(capsys, "dim", "--variant", "star", "--n",
                                 "3", "--quiet")
        assert (code, out) == (3, "")
        assert err == ("internal error: RecursionError: maximum recursion "
                       "depth exceeded\n")

    @pytest.mark.parametrize("argv,code,want", [
        (("expand", "x3000000"), 0, '"text": "x3000000"'),
        (("reduce", "x3000000*x1"), 0, '"certificate": "x1\' x3000000\'"'),
        (("check", "--file", "{big}"), 2,
         "error: line 1: expansion is not multilinear in x1..x3000000: "
         "monomial variables (1, 3000000)\n"),
    ], ids=["expand", "reduce", "check-file"])
    def test_huge_variable_index_is_fast(self, tmp_path, argv, code, want):
        # generators are built for the variables used, not for x1..x3000000
        big = tmp_path / "big.txt"
        big.write_text("x3000000 * x1\n")
        argv = [a.format(big=big) for a in argv]
        r = subprocess.run([sys.executable, "-m", "permdiff", *argv,
                            "--quiet"], capture_output=True, text=True,
                           timeout=10)
        assert r.returncode == code
        assert want in (r.stdout if code == 0 else r.stderr)

    def test_closed_stdout_exits_141_silently(self):
        # a reader that stops early (``| head -c 10``) breaks the pipe
        # while the table is still being written
        proc = subprocess.Popen(
            [sys.executable, "-m", "permdiff", "table", "--n", "2", "--kind",
             "lie", "--bound", "6", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10) == b'{\n  "n": 2'
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""

    def test_table_bound_above_the_cap_usage_error(self, capsys):
        for bound in ("100000000000000000000", str(MAX_TABLE_BOUND + 1)):
            code, out, err = run_cli(capsys, "table", "--n", "1", "--kind",
                                     "lie", "--bound", bound, "--quiet")
            assert code == 2 and out == ""
            assert err == f"error: bound must be in 0..{MAX_TABLE_BOUND}\n"

    def test_check_file_relabelled_std7(self, tmp_path, capsys):
        image = {1: 4, 2: 7, 3: 1, 4: 6, 5: 2, 6: 5, 7: 3}
        text = re.sub(r"x(\d+)", lambda m: f"x{image[int(m.group(1))]}",
                      pretty(standard_identity("diamond", 7)))
        path = tmp_path / "std7.txt"
        path.write_text("# degree-7 diamond standard identity\n" + text + "\n")
        code, out, err = run_cli(capsys, "check", "--file", str(path),
                                 "--quiet")
        assert code == 0
        assert json.loads(out)["cases"] == [
            {"name": "line2", "expected": True, "got": True}]

    def test_check_file(self, tmp_path, capsys):
        good = tmp_path / "ids.txt"
        good.write_text("# commutativity of the symmetrized product\n"
                        "loz(x1, x2) - loz(x2, x1)\n"
                        "bracket(x1, x2) + bracket(x2, x1)\n")
        code, out, err = run_cli(capsys, "check", "--file", str(good),
                                 "--product", "diamond", "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert [c["name"] for c in doc["cases"]] == ["line2", "line3"]

    def test_suite_identities_hold_from_files(self, tmp_path, capsys):
        # the identities of suites a-d, one file per product that their
        # assoc(...) reads, hold under check --file as in their suites (e
        # and f are evaluated over Q[delta], which check --file is not)
        verdicts = {r.name: r.verdict for sid in "abcd"
                    for r in run_suite(sid)}
        files = {}
        for sid, name, product, _, text in exprs._IDENTITIES:
            if sid in "abcd":
                files.setdefault(product, []).append((name, text))
        assert set(files) == {None, "bullet", "loz", "prec"}
        for product, cases in files.items():
            path = tmp_path / f"{product}.txt"
            path.write_text("".join(f"{text}\n" for _, text in cases))
            argv = ["check", "--file", str(path), "--quiet"]
            code, out, err = run_cli(capsys, *argv, *(
                ("--product", product) if product else ()))
            assert code == 0, product
            got = [c["got"] for c in json.loads(out)["cases"]]
            assert got == [verdicts[name].is_identity for name, _ in cases]
            assert all(got)

    def test_flat_product_check_file_and_expand(self, tmp_path, capsys):
        # the perm law lets the first two factors swap; no step may recurse
        # once per factor of the chain
        path = tmp_path / "flat.txt"
        path.write_text(f"{FLAT} - x2 * x1 * {FLAT[10:]}\n")
        code, out, err = run_cli(capsys, "check", "--file", str(path),
                                 "--quiet")
        assert code == 0 and err == ""
        assert json.loads(out)["cases"] == [
            {"name": "line1", "expected": True, "got": True}]
        code, out, err = run_cli(capsys, "expand", FLAT, "--quiet")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["expression"] == FLAT
        assert doc["text"] == FLAT.replace(" * ", " ")

    def test_check_file_failing_identity(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("x1 * x2\n")
        code, out, err = run_cli(capsys, "check", "--file", str(bad),
                                 "--quiet")
        assert code == 1
        doc = json.loads(out)
        assert doc["cases"][0]["got"] is False
        assert "witness" in doc["cases"][0]

    def test_check_file_reports_error_line(self, tmp_path, capsys):
        broken = tmp_path / "broken.txt"
        broken.write_text("loz(x1, x2) - loz(x2, x1)\n\nx1 * * x2\n")
        code, out, err = run_cli(capsys, "check", "--file", str(broken),
                                 "--quiet")
        assert code == 2
        assert "line 3" in err

    def test_check_file_names_the_line_that_fails_to_evaluate(self, tmp_path,
                                                             capsys):
        path = tmp_path / "square.txt"
        path.write_text("loz(x1, x2) - loz(x2, x1)\nx1 * x1\n")
        code, out, err = run_cli(capsys, "check", "--file", str(path),
                                 "--quiet")
        assert code == 2 and out == ""
        assert err == ("error: line 2: expansion is not multilinear in "
                       "x1..x1: monomial variables (1, 1)\n")

    def test_summary_goes_to_stderr_unless_quiet(self, capsys):
        code, out, err = run_cli(capsys, "check", "--suite", "d")
        assert code == 0 and "prec-pre-lie" in err
        code, out, err = run_cli(capsys, "check", "--suite", "d", "--quiet")
        assert err == ""

    def test_text_format(self, capsys):
        # --format comes from the common parent parser of every subcommand
        for argv, marker in [
                (("check", "--suite", "d"), "prec-pre-lie"),
                (("dim", "--variant", "star", "--n", "2..3"), "dim=3"),
                (("table", "--n", "1", "--kind", "lie", "--bound", "1"),
                 "4 entries"),
                (("reduce", "x1 * d(x2)"), "outcome: derivative_only"),
                (("expand", "loz(x1, x2)"), "x1 x2'")]:
            code, out, err = run_cli(capsys, *argv, "--format", "text",
                                     "--quiet")
            assert code == 0, argv
            assert marker in out and not out.startswith(("{", "[")), argv
            assert err == "", argv

    def test_dim_bad_range_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "dim", "--variant", "star",
                                 "--n", "two", "--quiet")
        assert code == 2 and "range" in err
        code, out, err = run_cli(capsys, "dim", "--variant", "star",
                                 "--n", "5..2", "--quiet")
        assert code == 2

    @pytest.mark.parametrize("degrees", ["2..1000000000000",
                                         str(MAX_DIM_DEGREE + 1), "0..3"])
    def test_dim_degree_outside_the_cap_usage_error(self, capsys, degrees):
        # refused before any degree is proved, and the range is never built
        code, out, err = run_cli(capsys, "dim", "--variant", "star",
                                 "--n", degrees)
        assert code == 2 and out == ""
        assert err == (f"error: degree range {degrees!r} is outside "
                       f"2..{MAX_DIM_DEGREE}\n")

    def test_dim_failed_proof_exit_one(self, capsys, monkeypatch):
        # an element dropped from the degree-3 family fails check 2 there
        break_family(monkeypatch, lambda k, family: (
            family[1:] if k == 3 else family))
        code, out, err = run_cli(capsys, "dim", "--variant", "star",
                                 "--n", "2..3")
        assert code == 1
        assert json.loads(out)[1] == {
            "n": 3, "variant": "star", "formula": 3, "rank_closure": None,
            "rank_S": None, "ok": False, "failed": "degree 3: check 2"}
        assert err.splitlines() == [
            "ok  n=2 variant=star dim=1 formula=1",
            "FAIL  n=3 variant=star dim=None formula=3 "
            "failed: degree 3: check 2"]

    @pytest.mark.parametrize("variant", ["star", "prime"])
    def test_dim_range_is_the_per_degree_records(self, capsys, variant):
        # one proof over the range reports what a proof per degree reports
        code, out, _ = run_cli(capsys, "dim", "--variant", variant, "--n",
                               "2..7", "--quiet")
        assert code == 0
        single = []
        for k in range(2, 8):
            code, one, _ = run_cli(capsys, "dim", "--variant", variant,
                                   "--n", str(k), "--quiet")
            assert code == 0
            single += json.loads(one)
        assert json.loads(out) == single

    def test_dim_range_after_a_rank_shortfall(self, capsys, monkeypatch):
        # modulo 2 degree 3 falls short; every degree above it names that
        monkeypatch.setattr(spans, "MODULUS", 2)
        code, out, _ = run_cli(capsys, "dim", "--variant", "star", "--n",
                               "2..5", "--quiet")
        assert code == 1
        recs = json.loads(out)
        assert recs[0]["ok"] and "failed" not in recs[0]
        assert [(r["n"], r["ok"], r["rank_closure"], r.get("failed"))
                for r in recs[1:]] == [(k, False, None, "degree 3: rank")
                                       for k in (3, 4, 5)]

    def test_dim_range_is_one_proof(self, capsys, monkeypatch):
        calls = []
        real = cli.verify_dimension
        monkeypatch.setattr(cli, "verify_dimension",
                            lambda n, v: calls.append(n) or real(n, v))
        for degrees, top in (("2..5", 5), ("4", 4), ("3..6", 6)):
            calls.clear()
            code, out, _ = run_cli(capsys, "dim", "--variant", "prime",
                                   "--n", degrees, "--quiet")
            assert code == 0 and calls == [top]
            assert [r["n"] for r in json.loads(out)] == list(
                cli._parse_range(degrees))

    def test_unexpected_exception_exit_three(self, capsys, monkeypatch):
        # a fault of the program is neither a usage error nor a verdict
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_table", broken)
        code, out, err = run_cli(capsys, "table", "--n", "1", "--kind",
                                 "lie", "--quiet")
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: boom\n"
        assert "Traceback" not in err

    def test_threads_env_is_ignored(self, capsys, monkeypatch):
        # PERMDIFF_THREADS drives nothing: no value of it, not even one
        # that is no number, changes the exit code or the output
        monkeypatch.delenv("PERMDIFF_THREADS", raising=False)
        unset = run_cli(capsys, "check", "--suite", "d", "--quiet")
        assert unset[0] == 0
        for threads in ("not-a-number", "0", "4"):
            monkeypatch.setenv("PERMDIFF_THREADS", threads)
            assert run_cli(capsys, "check", "--suite", "d",
                           "--quiet") == unset, threads


class TestDeterminism:
    def test_check_all_byte_identical_in_process(self, capsys):
        _, out1, _ = run_cli(capsys, "check", "--suite", "all", "--quiet")
        _, out2, _ = run_cli(capsys, "check", "--suite", "all", "--quiet")
        assert out1 == out2

    def test_table_byte_identical_in_process(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "--n", "2", "--kind", "lie",
                             "--bound", "2", "--quiet")
        _, out2, _ = run_cli(capsys, "table", "--n", "2", "--kind", "lie",
                             "--bound", "2", "--quiet")
        assert out1 == out2

    def test_check_all_byte_identical_subprocess(self):
        cmd = [sys.executable, "-m", "permdiff", "check", "--suite", "all",
               "--format", "json", "--quiet"]
        r1 = subprocess.run(cmd, capture_output=True, check=True)
        r2 = subprocess.run(cmd, capture_output=True, check=True)
        assert r1.stdout == r2.stdout
        assert r1.stdout.startswith(b"{")


# JSON leaves: non-ASCII and control-character strings, ints past 2**64,
# bools and None; containers may be empty
_json_leaves = st.one_of(
    st.text(), st.sampled_from(["é∂☃", "\x00\x1f\x7f ", '"\\/', ""]),
    st.integers(), st.integers(2**64, 2**80).flatmap(
        lambda n: st.sampled_from([n, -n])),
    st.booleans(), st.none())
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=30)


class TestJsonWriter:
    @staticmethod
    def written(obj):
        pieces = []
        cli.write_json(obj, pieces.append)
        return "".join(pieces)

    @given(_json_values)
    @settings(max_examples=300)
    def test_matches_json_dumps(self, obj):
        assert self.written(obj) == json.dumps(obj, indent=2,
                                               ensure_ascii=False)

    def test_empty_generator(self):
        assert self.written({"a": lambda pad: ()}) == '{\n  "a": []\n}'
        assert self.written([lambda pad: [repr(pad)]]) \
            == "[\n  [\n    '    '\n  ]\n]"

    @pytest.mark.parametrize("obj", [Fraction(1, 2), 0.5, [1, Fraction(3)],
                                     {"coeff": 1.0}, {1: "int key"},
                                     (x for x in ())])
    def test_other_values_are_type_errors(self, obj):
        with pytest.raises(TypeError):
            self.written(obj)

    def test_table_is_written_in_few_batches(self, monkeypatch):
        class CountingStdout(io.StringIO):
            writes = largest = 0

            def write(self, text):
                self.writes += 1
                self.largest = max(self.largest, len(text))
                return super().write(text)

        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["table", "--n", "2", "--kind", "lie", "--bound", "4",
                     "--quiet"]) == 0
        assert len(out.getvalue()) > 5_000_000
        assert out.writes <= 200
        assert out.largest <= 256 * 1024

    def test_each_basis_text_is_encoded_once(self, monkeypatch):
        encoded = []
        encode = cli._encoded

        def counted(obj, pad):
            encoded.append((json.dumps(obj), pad))
            return encode(obj, pad)

        monkeypatch.setattr(cli, "_encoded", counted)
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["table", "--n", "2", "--kind", "lie", "--bound", "2",
                     "--quiet"]) == 0
        # each basis element at most once at each of its two indents, and
        # the results reach past the box
        assert len(encoded) == len(set(encoded)) > 2 * 9 * 4
        assert {pad for _, pad in encoded} == {" " * 6, " " * 10}
        assert out.getvalue().count('"alpha"') > 10 * len(encoded)

    def test_table_is_written_while_its_entries_are_made(self, monkeypatch):
        finished = []  # set once the entry generator is exhausted
        seen = []  # whether it was, at each write to stdout
        table = cli.structure_table

        def watched(*args):
            doc = table(*args)
            entries = doc["entries"]

            def watched_entries():
                yield from entries
                finished.append(True)
            doc["entries"] = watched_entries()
            return doc

        class WatchedStdout(io.StringIO):
            def write(self, text):
                seen.append(bool(finished))
                return super().write(text)

        monkeypatch.setattr(cli, "structure_table", watched)
        monkeypatch.setattr(sys, "stdout", WatchedStdout())
        assert main(["table", "--n", "2", "--kind", "lie", "--bound", "4",
                     "--quiet"]) == 0
        assert finished
        assert seen[0] is False and seen.count(False) > 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak from /proc/self/status")
    def test_table_peak_memory_stays_near_one_entry(self):
        # about 79 MB when the whole table was built before writing it.  The
        # child reads its own VmHWM: ru_maxrss would count the peak of this
        # test process too, which a forked child inherits across exec.
        code = ("from permdiff.cli import main\n"
                "assert main(['table', '--n', '2', '--kind', 'lie',"
                " '--bound', '6', '--quiet']) == 0\n"
                "import sys\n"
                "print([line.split()[1] for line in open('/proc/self/status')"
                " if line.startswith('VmHWM:')][0], file=sys.stderr)\n")
        r = subprocess.run([sys.executable, "-c", code], check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        assert int(r.stderr) < 40 * 1024  # kB


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["lie", "leibniz"])
@pytest.mark.parametrize("verify", [(), ("--verify",)],
                         ids=["plain", "verify"])
def test_table_layout_is_json_dumps(capsys, n, kind, verify):
    # the entries are written from texts made once per basis element; the
    # whole document must still be laid out as the standard encoder would
    for bound in range(4):
        code, out, _ = run_cli(capsys, "table", "--n", str(n), "--kind", kind,
                               "--bound", str(bound), *verify, "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == (
            len(cli.table_patterns(n, kind)) * (bound + 1) ** (2 * n))
        assert out == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# sha256 of stdout, recorded when tables were still built whole before
# writing, for the table runs that the benchmark's digests do not cover
TABLE_DIGESTS = [
    (("--n", "1", "--kind", "lie", "--bound", "2", "--verify"),
     "837f9a29401b7ca8241831206d718573b71ce07fe3cc7f4280f50d306c6f5d54"),
    (("--n", "1", "--kind", "leibniz", "--bound", "2", "--verify"),
     "9e7c4ce1c49d7fd55d5939ebc582023c24c07e4d96c1e6240326e67bdd958e55"),
    # the table at bound 1, its verification at bound 3
    (("--n", "2", "--kind", "leibniz", "--bound", "1", "--verify"),
     "ecf6fb007573e47ce6b5c5e8fe68c371b2e96e4314695dae1510d8e9023339bd"),
    (("--n", "2", "--kind", "lie", "--bound", "2", "--format", "text"),
     "097cb4e862bd83b1086c4009c56f39db2270e68ad94d91492f6cda2e2e683f5b"),
    (("--n", "2", "--kind", "lie", "--bound", "2", "--verify",
      "--format", "text"),
     "100963c2358694e48dc7724d1e05c2f73a467ebdaf52e61e05f09ae9bcaa21d1"),
    (("--n", "1", "--kind", "leibniz", "--bound", "0", "--format", "text"),
     "1295f2bdd0de6a0a04d0034c79142019460d4492c428039c443ad36a47b2ca70"),
]


@pytest.mark.parametrize("argv, digest", TABLE_DIGESTS)
def test_table_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "table", *argv, "--quiet")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
