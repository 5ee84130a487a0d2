#!/usr/bin/env python3
"""Print the symmetric-reduced relation matrix for chosen d and n, its
square minor, the determinant factorization at t = 0, and generic ranks."""

import argparse

from psilab.fields import QQ
from psilab.linrel import (
    analyze_Aprime,
    build_symmetric_matrix,
    generic_t,
    reduced_minor,
)

parser = argparse.ArgumentParser()
parser.add_argument("--d", type=int, default=5)
parser.add_argument("--n", type=int, default=6)
parser.add_argument("--seed", type=int, default=1)
args = parser.parse_args()

system = build_symmetric_matrix(args.n, args.d)
print(f"rows (partitions of {args.d - 1}):", system.row_partitions)
print(f"columns (partitions of {args.d}, without ({args.d},)):", system.column_partitions)
for q, row in zip(system.row_partitions, system.entries):
    print(f"  {q}: [" + ", ".join(e.render(QQ) for e in row) + "]")

keep, _ = reduced_minor(system)
print("minor keeps columns:", [system.column_partitions[i] for i in keep])

rep0 = analyze_Aprime({}, args.n, args.d)
print(f"det(A')|t=0 = {rep0.det_at_zero} (predicted {rep0.det_at_zero_predicted})")

t = generic_t(args.d, args.seed)
rep = analyze_Aprime(t, args.n, args.d)
print(f"generic t (seed {args.seed}): rank {rep.rank}, solution dim {rep.solution_dim}")
