"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import permdiff.cli as cli  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SMOKE, Job, build_jobs, check_dims, relabel, relabelling, run_pass,
    traced_pass)

WORKDIR = Path(".bench_build") / "perfbench-test"


def smoke_jobs() -> list[Job]:
    return build_jobs(SMOKE, 0, WORKDIR)


def test_wrong_expected_value_counts_as_failed():
    jobs = smoke_jobs()
    wrong = Job(jobs[0].name, jobs[0].argv,
                check_dims("star", {2: 1, 3: 3, 4: 11}))
    _, errors = run_pass(cli, [wrong] + jobs[1:])
    assert len(errors) == 1 and errors[0].startswith("dim-star:")
    assert len(errors) / len(jobs) > 0


def test_wrong_digest_counts_as_failed():
    job = smoke_jobs()[1]
    _, errors = run_pass(cli, [Job(job.name, job.argv, job.check, "0" * 64)])
    assert len(errors) == 1 and "sha256" in errors[0]


def test_smoke_jobs_pass():
    _, errors = run_pass(cli, smoke_jobs())
    assert errors == []


def test_self_time_is_inclusive_minus_children():
    tracer = Tracer()
    inner = tracer.wrap("t.inner", lambda: time.sleep(0.002))

    def outer_body():
        time.sleep(0.001)
        inner()
        inner()

    outer = tracer.wrap("t.outer", outer_body)
    outer()
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    assert list(tracer.parents) == [-1, 0, 0]
    own = tracer.self_times()
    assert own[0] == pytest.approx(dur[0] - (dur[1] + dur[2]), abs=1e-12)
    assert own[1:] == dur[1:]
    metrics = tracer.layer_metrics()
    assert metrics["t.inner.calls"] == 2
    assert metrics["t.outer.self_s"] == own[0]


def test_counts_are_charged_to_the_counted_call():
    tracer = Tracer()
    seen = []

    def slow_count(args, result):
        time.sleep(0.005)
        return (result, result)

    inner = tracer.wrap("t.inner", lambda n: n, ("items", "peak_items"),
                        slow_count)
    outer = tracer.wrap("t.outer", lambda: seen.extend([inner(3), inner(2)]))
    unused = tracer.wrap("t.unused", len, ("items",), None)
    outer()
    own = tracer.self_times()
    assert own[0] < 0.005 <= min(own[1:])
    metrics = tracer.layer_metrics()
    assert metrics["t.inner.items"] == 5
    assert metrics["t.inner.peak_items"] == 3
    assert metrics["t.unused.calls"] == 0 and metrics["t.unused.items"] == 0
    assert unused.__wrapped__ is len


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "permdiff" or name.startswith("permdiff."):
            for attr, value in vars(mod).items():
                out[name, attr] = value
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        out[name, f"{attr}.{meth}"] = fn
    return out


def test_wrappers_are_gone_after_traced_pass():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        import permdiff.exprs as exprs
        import permdiff.spans as spans
        wrapped = spans.derived_product
        assert wrapped.__wrapped__ is before["permdiff.algebra",
                                             "derived_product"]
        assert exprs.derived_product is wrapped
        assert cli.format_poly.__wrapped__ is spans.format_poly.__wrapped__
    finally:
        tracer.uninstall()
    assert _bindings() == before

    tracer = Tracer()
    _, errors = traced_pass(cli, smoke_jobs(), tracer)
    assert errors == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tracer.layer_metrics()
    assert metrics["spans.add.calls"] > 0
    assert metrics["spans.add.terms_in"] > 0
    assert metrics["cli.main.calls"] == 2
    assert metrics["reduction.reduce_identity.calls"] == 0
    assert 0 < metrics["trace.overhead_s"] < 1
    assert {f"{name}.calls" for name, *_ in TARGETS} <= metrics.keys()


def test_relabelling_permutes_the_variables():
    perm = relabelling(7)
    assert sorted(perm) == list(range(1, 9))
    text = relabel("loz(x1, x2) + x3 * x10", 10, list(range(10, 0, -1)))
    assert text == "loz(x10, x9) + x8 * x1"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def test_smoke_run_finishes_in_seconds():
    start = time.monotonic()
    proc = _run(ROOT, "--workload", SMOKE, "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert time.monotonic() - start < 30

    proc = _run(ROOT, "--workload", SMOKE, "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["spans.verify_dimension.calls"]["value"] == 5


def test_fails_without_the_program():
    bare = ROOT / WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, "--workload", "dims", "--seconds", "1")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
