"""permdiff benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload {dims,identities,certify,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each pass over a workload's jobs runs in
a fresh single-threaded child process (``worker.py``), one at a time, with
``PERMDIFF_THREADS=1``.

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``: ``wall_s``, the time from the start of a pass's first
job to its last verified result, as the mean over at least ``MIN_PASSES``
passes and about ``--seconds`` seconds; ``setup_s``, the median time
to import ``permdiff.cli`` and build the inputs, over the pass children and
``SETUPS_PER_PASS`` set-up-only children before each pass, so that the
set-up samples are spread over the whole run as the passes are; and
``peak_rss_mb``, the median of the pass children's peak resident memory.
The host's speed changes in phases that last several passes, so a mean over
the whole run, which weighs every phase by its length, moves less from run
to run than a median, which settles on whichever phase held most passes.  With ``--trace 1``
they are the ``per_layer`` ones, from one traced pass.

Human-readable lines, including ``failed_frac``, come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 1 means the benchmark could not run, for example
because the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, SMOKE, WORKLOADS  # noqa: E402

WORKDIR = Path(".bench_build") / "perfbench"
THREADS = 1  # the children are single-threaded and run one at a time
MIN_PASSES = 3  # each pass is one child
SETUPS_PER_PASS = 4  # set-up-only children before each pass child
TIME_LIMIT_S = 170.0  # per workload, inside the 180 s a run may take


class HarnessError(Exception):
    """The benchmark itself could not run."""


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker child to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--workdir", str(WORKDIR)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PERMDIFF_THREADS=str(THREADS))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} {mode} child ran out of time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise HarnessError(f"{workload} {mode} child exited "
                           f"{proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> tuple[dict[str, float], int, list[str]]:
    """Values of the workload's metrics, jobs attempted, and failures."""
    deadline = monotonic() + TIME_LIMIT_S
    if trace:
        traced = spawn("trace", workload, seed, deadline)
        return traced["metrics"], traced["attempted"], traced["errors"]
    setups: list[dict] = []
    passes: list[dict] = []
    start = monotonic()
    while True:
        setups += [spawn("setup", workload, seed, deadline)
                   for _ in range(SETUPS_PER_PASS)]
        passes.append(spawn("run", workload, seed, deadline))
        elapsed = monotonic() - start
        # stop before a pass of average length would overrun ``seconds``
        if (len(passes) >= MIN_PASSES
                and elapsed * (1 + 1 / len(passes)) > seconds):
            break
    walls = [p["wall_s"] for p in passes]
    print(f"{workload}: {len(passes)} passes; wall_s per pass "
          + " ".join(f"{w:.3f}" for w in walls))
    values = {"wall_s": fmean(walls),
              "setup_s": median(c["setup_s"] for c in setups + passes),
              "peak_rss_mb": median(p["peak_rss_mb"] for p in passes)}
    return (values, sum(p["attempted"] for p in passes),
            [e for p in passes for e in p["errors"]])


def main(argv: list[str] | None = None) -> int:
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running child before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(
        description="permdiff benchmark; the last stdout line is JSON")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all", SMOKE))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "permdiff" / "cli.py").is_file():
        sys.stderr.write(f"no permdiff sources under {ROOT / 'src'}\n")
        return 1
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"PERMDIFF_THREADS={THREADS} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        try:
            values, n, errors = measure(workload, args.seed, args.seconds,
                                        bool(args.trace))
        except HarnessError as exc:
            sys.stderr.write(f"benchmark failed: {exc}\n")
            return 1
        attempted += n
        failed += len(errors)
        for error in errors:
            sys.stderr.write(f"FAILED {workload} {error}\n")
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
            print(f"{workload} {name} = {values[name]:.6g} {unit}")
        print(f"{workload} failed_frac = {len(errors) / n:.6g} "
              f"({len(errors)} of {n} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
