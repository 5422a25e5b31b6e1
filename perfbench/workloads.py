"""The CLI jobs of each benchmark workload, the checks on their output, and
the pass that runs them.

Every input is built here from the seed, as text and argv lists; the program
under test only sees ``permdiff.cli.main(argv)``.  The seed picks one
permutation of the variable indices and relabels every expression input with
it, so an optimisation that only works for the canonical labelling x1..xn
shows up as a failed check.  The checks read facts that do not depend on the
seed: dimensions, verdicts, certificate shapes and instantiation counts.  For
the default seed they also compare the sha256 of each job's stdout with the
digest recorded at commit 31cbcea (``digests.json``), which enforces the
byte-stable stdout rule.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from tracer import Tracer

DEFAULT_SEED = 0
MAX_VARS = 8
WORKLOADS = ("dims", "identities", "certify")
# A seconds-long configuration for the benchmark's own tests; not measured.
SMOKE = "smoke"

STAR_DIMS = {2: 1, 3: 3, 4: 10, 5: 35, 6: 126}
PRIME_DIMS = {2: 2, 3: 9, 4: 40, 5: 175}
SUITE_CASES = 15
TABLE_CHECKS = 20025  # instantiations of verify_tables(4)
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


class CheckFailed(Exception):
    """A job's output contradicts a fact the benchmark knows."""


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str], None]  # raises CheckFailed
    digest: str | None = None  # sha256 of stdout, checked when set


def relabelling(seed: int) -> list[int]:
    """The seed's permutation of 1..MAX_VARS, as a list of images."""
    perm = list(range(1, MAX_VARS + 1))
    random.Random(seed).shuffle(perm)
    return perm


def relabel(text: str, nvars: int, perm: list[int]) -> str:
    """Rename x1..x<nvars> by the order pattern of ``perm`` on 1..nvars, a
    permutation of the same variables."""
    order = sorted(range(nvars), key=lambda i: perm[i])
    new = {i + 1: rank + 1 for rank, i in enumerate(order)}
    return re.sub(r"x(\d+)", lambda m: f"x{new[int(m.group(1))]}", text)


def left_chain(op: str, nvars: int) -> str:
    expr = "x1"
    for i in range(2, nvars + 1):
        expr = f"{op}({expr}, x{i})"
    return expr


def _sign(perm: tuple[int, ...]) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def standard_identity(op: str, nvars: int) -> str:
    """Alternating sum over permutations of the first nvars-1 arguments of
    the right-nested products op(x_s1, op(x_s2, ... op(x_s(n-1), x_n)))."""
    out = []
    for perm in itertools.permutations(range(1, nvars)):
        term = f"x{nvars}"
        for i in reversed(perm):
            term = f"{op}(x{i}, {term})"
        sign = "-" if _sign(perm) < 0 else "+"
        out.append(term if not out and sign == "+" else f"{sign} {term}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_dims(variant: str, expected: dict[int, int]) -> Callable[[str], None]:
    def check(out: str) -> None:
        records = json.loads(out)
        got = {r["n"]: r["rank_closure"] for r in records}
        _require(got == expected, f"dimensions {got}, expected {expected}")
        bad = [r["n"] for r in records
               if r["ok"] is not True or r["variant"] != variant]
        _require(not bad, f"records not ok for n={bad}")
    return check


def check_suites(out: str) -> None:
    cases = json.loads(out)["cases"]
    _require(len(cases) == SUITE_CASES,
             f"{len(cases)} suite cases, expected {SUITE_CASES}")
    wrong = [c["name"] for c in cases if c["got"] != c["expected"]]
    _require(not wrong, f"unexpected verdicts: {wrong}")
    std5 = [c for c in cases if c["name"] == "diamond-std5"]
    _require(len(std5) == 1 and "witness" in std5[0],
             "diamond-std5 witness missing")


def check_single_identity(out: str) -> None:
    cases = json.loads(out)["cases"]
    _require([c["got"] for c in cases] == [True],
             f"verdicts {[c['got'] for c in cases]}, expected [True]")


def check_reduce(m: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        doc = json.loads(out)
        _require(doc["outcome"] == "derivative_only",
                 f"outcome {doc['outcome']!r}")
        _require(doc["m"] == m, f"m={doc['m']}, expected {m}")
        tokens = doc["certificate"].lstrip("-").split()
        if tokens and re.fullmatch(r"\d+(/\d+)?", tokens[0]):
            tokens = tokens[1:]  # the coefficient
        factors = [re.fullmatch(r"x(\d+)'", t) for t in tokens]
        _require(all(factors) and len(factors) == m
                 and len({f.group(1) for f in factors}) == m,
                 f"certificate {doc['certificate']!r} is not {m} distinct "
                 "factors each derived once")
    return check


def check_table(out: str) -> None:
    ver = json.loads(out)["verification"]
    checked = sum(r["checked"] for r in ver["rules"])
    _require(ver["ok"] is True, "table verification not ok")
    _require(checked == TABLE_CHECKS,
             f"{checked} instantiations, expected {TABLE_CHECKS}")


def check_output(job: Job, out: str) -> None:
    """Raise CheckFailed, naming the job, when ``out`` is wrong."""
    try:
        job.check(out)
    except CheckFailed as exc:
        raise CheckFailed(f"{job.name}: {exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckFailed(f"{job.name}: malformed output "
                          f"({type(exc).__name__}: {exc})") from None
    if job.digest is not None:
        got = hashlib.sha256(out.encode("utf-8")).hexdigest()
        _require(got == job.digest, f"{job.name}: stdout sha256 {got}, "
                                    f"recorded {job.digest}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _dim(variant: str, expected: dict[int, int]) -> Job:
    span = f"{min(expected)}..{max(expected)}"
    return Job(f"dim-{variant}", ("dim", "--variant", variant, "--n", span),
               check_dims(variant, expected))


def build_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's jobs for ``seed``.  Files the jobs read are written
    under ``workdir``, a path relative to the working directory the jobs run
    in, so that stdout does not depend on where the checkout is."""
    perm = relabelling(seed)
    if workload == SMOKE:
        jobs = [_dim("star", {n: STAR_DIMS[n] for n in (2, 3, 4)}),
                _dim("prime", {n: PRIME_DIMS[n] for n in (2, 3)})]
    elif workload == "dims":
        jobs = [_dim("star", STAR_DIMS), _dim("prime", PRIME_DIMS)]
    elif workload == "identities":
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"std7-{seed}.txt"
        path.write_text("# degree-7 diamond standard identity\n"
                        + relabel(standard_identity("diamond", 7), 7, perm)
                        + "\n", encoding="utf-8")
        jobs = [Job("suite-all", ("check", "--suite", "all"), check_suites),
                Job("std7-file", ("check", "--file", path.as_posix()),
                    check_single_identity)]
    elif workload == "certify":
        d6 = "d(d(d(d(d(d(x1*x2*x3*x4))))))*x5"
        jobs = [
            Job("reduce-bullet8",
                ("reduce", relabel(left_chain("bullet", 8), 8, perm)),
                check_reduce(17)),
            Job("reduce-circ8",
                ("reduce", relabel(left_chain("circ", 8), 8, perm)),
                check_reduce(17)),
            Job("reduce-d6", ("reduce", relabel(d6, 5, perm)),
                check_reduce(13)),
            Job("table-leibniz", ("table", "--n", "2", "--kind", "leibniz",
                                  "--bound", "4", "--verify"), check_table),
            Job("table-lie", ("table", "--n", "2", "--kind", "lie",
                              "--bound", "4", "--verify"), check_table),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    digests = DIGESTS.get(workload, {}) if seed == DEFAULT_SEED else {}
    return [Job(j.name, j.argv + ("--quiet",), j.check, digests.get(j.name))
            for j in jobs]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_job(cli, job: Job) -> tuple[str, str | None]:
    """Run one job through ``cli.main``; return its stdout and an error
    message naming the job, or None when every check passed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception as exc:  # a job that raises is a failed job
        return out.getvalue(), f"{job.name}: raised {type(exc).__name__}: {exc}"
    if code != 0:
        tail = err.getvalue().strip().splitlines()[-1:]
        return out.getvalue(), f"{job.name}: exit code {code} {tail}"
    try:
        check_output(job, out.getvalue())
    except CheckFailed as exc:
        return out.getvalue(), str(exc)
    return out.getvalue(), None


def run_pass(cli, jobs: list[Job], tracer: Tracer | None = None
             ) -> tuple[float, list[str]]:
    """Run every job once.  Returns the seconds from the start of the first
    job to the last verified result, and the failures."""
    errors = []
    start = perf_counter()
    for job in jobs:
        out, error = run_job(cli, job)
        if error is not None:
            errors.append(error)
        if tracer is not None:
            tracer.count_stdout(out)
    return perf_counter() - start, errors


def traced_pass(cli, jobs: list[Job], tracer: Tracer
                ) -> tuple[float, list[str]]:
    """One pass with the tracer installed; it is removed even on error."""
    tracer.install()
    try:
        return run_pass(cli, jobs, tracer)
    finally:
        tracer.uninstall()
