"""Workload definitions, the seeded input generator and the correctness gate.

A workload is a fixed instance list: the CLI requests one round makes.  Every
round draws fresh polynomials from the workload seed, so two rounds of one run
never repeat an input, and the same (workload, seed, round) always gives the
same files.  Nothing here imports psilab: the generator and the gate's closed
form are the benchmark's own, so the program receives only generated inputs
and is judged against values it did not compute.
"""

from __future__ import annotations

import json
import os
import random
from math import comb

COEFF_BOUND = 99
MODP = 1051


# name -> the instance list of one round: (n, d, field, request) and an
# optional index "f" that gives instances of one shape distinct polynomials
WORKLOADS = {
    # The Q orbit walk visits all 7! permuted copies of f: psi + linalg inserts.
    "orbit-q": [
        {"n": 7, "d": 3, "field": "q", "request": "betti --both"},
    ],
    # Koszul ranks and the GF(p) row-closure orbit path, no Fraction arithmetic.
    "koszul-modp": [
        {"n": 14, "d": 2, "field": f"fp:{MODP}", "request": "betti --both"},
        {"n": 11, "d": 3, "field": f"fp:{MODP}", "request": "betti --both"},
    ],
    # The k-resolution: reductions against fixed ideal components (linalg reads).
    "kres-q": [
        {"n": 5, "d": 3, "field": "q", "request": "golod-check --max-i 3", "f": k}
        for k in range(3)
    ],
    # One Tor character per nonzero bidegree: SpanSolver builds under equivariant.
    "tor-char-q": [
        {"n": 5, "d": 3, "field": "q", "request": f"equivariant --i {i} --j {j}"}
        for i, j in ((0, 0), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (5, 8))
    ],
}

KRES_TOTALS = [1, 5, 43, 270]


def monomials(n: int, d: int):
    """Exponent vectors of the degree-d monomials in n variables."""
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in monomials(n - 1, d - a)]


def draw_polynomial(rng: random.Random, n: int, d: int, field: str) -> dict:
    """Dense degree-d f, coefficients nonzero in [-99, 99], redrawn while the
    pure-power coefficient sum is zero in the field."""
    basis = monomials(n, d)
    p = int(field[3:]) if field.startswith("fp:") else None
    while True:
        coeffs = [rng.randint(1, COEFF_BOUND) * rng.choice((-1, 1)) for _ in basis]
        power_sum = sum(c for c, e in zip(coeffs, basis) if max(e) == d)
        if (power_sum % p if p else power_sum) != 0:
            break
    return {
        "n": n,
        "terms": [{"coeff": str(c), "exps": list(e)} for c, e in zip(coeffs, basis)],
    }


def round_requests(workload: str, seed: int, rnd: int, workdir: str):
    """Write round `rnd`'s polynomial files and return its requests as
    (argv, instance) pairs.  Instances that share an `f` key share one file;
    all equivariant bidegrees of a round share one f."""
    requests = []
    files = {}
    for inst in WORKLOADS[workload]:
        key = (inst["n"], inst["d"], inst["field"], inst.get("f", 0))
        if key not in files:
            rng = random.Random(f"perfbench:{workload}:{seed}:{rnd}:{key}")
            path = os.path.join(workdir, f"{workload}-r{rnd}-{len(files)}.json")
            with open(path, "w") as fh:
                json.dump(draw_polynomial(rng, inst["n"], inst["d"], inst["field"]), fh)
            files[key] = path
        argv = inst["request"].split() + [
            "--field", inst["field"], "--poly", files[key], "--json",
        ]
        requests.append((argv, inst))
    return requests


# -- the closed form, independent of psilab ----------------------------------


def partition_count(d: int) -> int:
    """P(d) by the standard parts-at-most-k recurrence."""
    ways = [1] + [0] * d
    for part in range(1, d + 1):
        for total in range(part, d + 1):
            ways[total] += ways[total - part]
    return ways[d]


def closed_form_table(n: int, d: int) -> dict:
    """{(i, j): beta} of a general principal symmetric quotient, zeros dropped."""
    a = partition_count(d) - 1
    ell = partition_count(d) - partition_count(d - 1) - 1
    b = comb(n + d - 2, d - 1) - a * n + ell
    values = {(0, 0): 1}
    for i in range(1, n):
        u = comb(n + d - 1, d + i - 1) * comb(d + i - 2, i - 1) - a * comb(n, i - 1)
        values[(i, i + d - 1)] = values.get((i, i + d - 1), 0) + u
    for key, v in (((n - 1, n - 1 + d), ell), ((n, n + d - 1), b), ((n, n + d), a)):
        values[key] = values.get(key, 0) + v
    return {k: v for k, v in values.items() if v}


def _table(entries) -> dict:
    return {(e["i"], e["j"]): e["beta"] for e in entries}


def check_report(inst: dict, report: dict) -> list[str]:
    """Reasons the report fails the gate; empty when it passes.

    Reads only the JSON report, never the exit code.
    """
    problems = []
    if report.get("pass") is not True:
        problems.append("report pass is not true")
    res = report.get("results", {})
    n, d = inst["n"], inst["d"]
    command = inst["request"].split()[0]
    expected = closed_form_table(n, d)
    if command == "betti":
        oracle = _table(res.get("oracle", []))
        if oracle != expected:
            problems.append(f"oracle table {sorted(oracle.items())} != closed form")
        if _table(res.get("formula", [])) != expected:
            problems.append("reported formula table != closed form")
        if (n, d) == (7, 3) and oracle.get((1, 3)) != 82:
            problems.append(f"beta_1,3 = {oracle.get((1, 3))}, expected 82")
    elif command == "golod-check":
        if res.get("totals") != KRES_TOTALS:
            problems.append(f"totals {res.get('totals')} != {KRES_TOTALS}")
        if res.get("golod_bound") != res.get("totals"):
            problems.append("totals != golod_bound")
    elif command == "equivariant":
        argv = inst["request"].split()
        i, j = int(argv[argv.index("--i") + 1]), int(argv[argv.index("--j") + 1])
        want = expected.get((i, j))
        if not (res.get("dimension") == res.get("betti") == want):
            problems.append(
                f"dimension {res.get('dimension')}, betti {res.get('betti')}, "
                f"closed form {want}"
            )
    else:
        problems.append(f"no gate for command {command!r}")
    return problems
