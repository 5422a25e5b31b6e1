#!/usr/bin/env python3
"""Run every built-in identity suite and print a one-line verdict per case."""

import sys
import time

from permdiff import SUITE_IDS, format_monomial, run_suite


def main() -> int:
    t0 = time.time()
    bad = 0
    for sid in SUITE_IDS:
        for r in run_suite(sid):
            mark = "ok " if r.ok else "BAD"
            line = (f"{mark} [{sid}] {r.name}: identity={r.verdict.is_identity}"
                    f" expected={r.expected}")
            if r.verdict.witness is not None:
                m, c = r.verdict.witness
                line += f"  witness {c} * {format_monomial(m)}"
            print(line)
            bad += not r.ok
    print(f"{bad} unexpected verdicts, {time.time() - t0:.2f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
