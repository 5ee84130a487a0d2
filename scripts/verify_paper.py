#!/usr/bin/env python3
"""Run the full verification harness and print one line per check.

Equivalent to `psilab verify-paper`; exits nonzero when a sound check fails.
"""

import sys

from psilab.verify import run_suites


def main() -> int:
    names = sys.argv[1:] or None
    ok = True
    for res in run_suites(names):
        print(*res.render(), sep="\n")
        ok = ok and res.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
