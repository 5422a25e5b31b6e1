"""One benchmark child process: set up a workload, run one pass over its
jobs, print one JSON line.

    python3 perfbench/worker.py --mode {setup,run,trace} --workload NAME \
        --seed N --workdir DIR

``run.py`` starts it with the checkout root as working directory and the
checkout's ``src`` as the only ``PYTHONPATH`` entry.  Every mode first times
the set-up: importing ``permdiff.cli`` and building the inputs.  Then
``setup`` exits, ``run`` runs one untraced pass and reports its wall time
and the process's peak resident memory, and ``trace`` runs one pass with the
tracer installed, removes the tracer, reports the per-layer metrics and
writes the spans to ``--workdir``.  A pass runs in a fresh process, as a
command-line user's invocation does, so nothing a pass leaves in memory
speeds up the next.

The import of ``permdiff.cli`` is timed before this file imports anything
beyond what the interpreter loads at start-up, so the standard-library
modules the program pulls in count towards ``setup_s``.  The harness's own
imports come between the import and the building of the inputs, untimed.
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    start = perf_counter()
    import permdiff.cli as cli
    import_s = perf_counter() - start

    import argparse
    import json
    import resource
    from pathlib import Path

    from tracer import Tracer
    from workloads import build_jobs, run_pass, traced_pass

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()
    root = Path.cwd()
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        sys.stderr.write(f"permdiff imported from {cli.__file__}, "
                         f"not from {root / 'src'}\n")
        return 2

    start = perf_counter()
    jobs = build_jobs(args.workload, args.seed, args.workdir)
    result: dict = {"setup_s": import_s + perf_counter() - start}
    if args.mode == "run":
        wall_s, errors = run_pass(cli, jobs)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(wall_s=wall_s, peak_rss_mb=rss_kb / 1024,
                      attempted=len(jobs), errors=errors)
    elif args.mode == "trace":
        tracer = Tracer()
        _, errors = traced_pass(cli, jobs, tracer)
        tracer.dump(args.workdir / f"spans-{args.workload}-{args.seed}.json")
        result.update(metrics=tracer.layer_metrics(),
                      attempted=len(jobs), errors=errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
