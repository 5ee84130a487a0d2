"""Command-line surface: construct and sample principal symmetric ideals,
compute inverse systems, classifications, betti tables, relation systems,
equivariant decompositions, and run the verification suites.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dc_field, replace

from .fields import QQ, ConfigError, check_prime_field_bound, field_from_spec
from .poly import element_from_json, format_element, parse_element
from .psi import PsiIdeal, build_construction_f, sample_general_f
from .inverse import (
    QuotientAlgebra,
    classify,
    inverse_system_component,
    module_of_quotient,
)
from .homology import (
    ResourceLimit,
    closed_form_b_variants,
    closed_form_betti,
    koszul_betti,
    residue_field_resolution,
)
from .linrel import analyze_Aprime, build_full_system, generic_t
from .equivariant import (
    quotient_module_action,
    restriction_decomposition,
    specht_decompose,
    tor_character,
)
from . import verify as verify_mod


@dataclass
class RunConfig:
    n: int | None = None
    d: int | None = None
    field: object = QQ
    seed: int = 0
    coeff_bound: int = 99
    degree_cap: int | None = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        field = field_from_spec(getattr(args, "field", "q"))
        cfg = cls(
            n=getattr(args, "n", None),
            d=getattr(args, "d", None),
            field=field,
            seed=getattr(args, "seed", 0),
            coeff_bound=getattr(args, "bound", 99),
            degree_cap=getattr(args, "cap", None),
        )
        if cfg.n and cfg.d:
            check_prime_field_bound(field, cfg.n, cfg.d)
        return cfg

    def echo(self, **extra) -> dict:
        out = {"field": repr(self.field), "seed": self.seed}
        if self.n is not None:
            out["n"] = self.n
        if self.d is not None:
            out["d"] = self.d
        if self.degree_cap is not None:
            out["cap"] = self.degree_cap
        out.update(extra)
        return out


@dataclass
class Report:
    command: str
    inputs: dict
    results: dict = dc_field(default_factory=dict)
    verdicts: list = dc_field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return verify_mod.sound_checks_pass(self.verdicts)

    def verdict(self, name, ok, provenance, detail="", known_defect=False):
        self.verdicts.append(verify_mod.Check(name, bool(ok), provenance, detail, known_defect))

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "verdicts": [v.to_json() for v in self.verdicts],
            "seconds": round(self.seconds, 3),
            "pass": self.passed,
        }


def _load_polynomial(args, field):
    if getattr(args, "poly", None):
        try:
            with open(args.poly) as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise ConfigError(f"cannot read --poly file {args.poly}: {exc.strerror}") from exc
        if text.startswith("{"):
            return element_from_json(text, field)
        return parse_element(text, n=getattr(args, "n", None), field=field)
    if args.n is None or args.d is None:
        raise ConfigError("need --poly FILE or both --n and --d (with --seed)")
    return sample_general_f(args.n, args.d, args.seed, args.bound, field)


def _emit(report: Report, args, text_lines):
    report.seconds = time.perf_counter() - args.started
    if args.json:
        print(json.dumps(report.to_json(), indent=2, default=str))
    else:
        for line in text_lines:
            print(line)
        for v in report.verdicts:
            mark = "PASS" if v.passed else ("KNOWN-DEFECT" if v.known_defect else "FAIL")
            print(f"[{mark}] {v.name}" + (f" -- {v.detail}" if v.detail else ""))
    return 0 if report.passed else 1


def _parse_partition(text):
    parts = tuple(int(p) for p in text.replace("(", "").replace(")", "").split(",") if p.strip())
    return parts


def cmd_sample(args):
    cfg = RunConfig.from_args(args)
    f = sample_general_f(cfg.n, cfg.d, cfg.seed, cfg.coeff_bound, cfg.field)
    rep = Report("sample", cfg.echo(bound=cfg.coeff_bound))
    rep.results["polynomial"] = format_element(f)
    rep.results["json"] = f.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_element(f) + "\n")
    return _emit(rep, args, [format_element(f)])


def cmd_construct(args):
    cfg = RunConfig.from_args(args)
    f, nmin = build_construction_f(cfg.d, cfg.n, cfg.field)
    rep = Report("construct", cfg.echo(n=cfg.n or nmin))
    n = f.n
    rep.results["polynomial"] = format_element(f)
    rep.results["minimal_n"] = nmin
    rep.results["hypotheses"] = {
        "n_at_least_construction_minimum": n >= nmin,
        "n_greater_than_3d": n > 3 * args.d,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_element(f) + "\n")
    return _emit(
        rep,
        args,
        [
            format_element(f),
            f"minimal n for d={args.d}: {nmin}",
            f"hypotheses: n >= minimum: {n >= nmin}; n > 3d: {n > 3 * args.d}",
        ],
    )


def cmd_orbit_dim(args):
    cfg = RunConfig.from_args(args)
    f = _load_polynomial(args, cfg.field)
    ps = PsiIdeal.from_polynomial(f)
    rep = Report("orbit-dim", cfg.echo(n=f.n, degree=f.degree()))
    rep.results["dimension"] = ps.minimal_generator_count
    return _emit(rep, args, [f"dim span(orbit) = {ps.minimal_generator_count}"])


def cmd_inverse(args):
    cfg = RunConfig.from_args(args)
    f = _load_polynomial(args, cfg.field)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), cfg.degree_cap)
    comp = inverse_system_component(Q, args.degree)
    rep = Report("inverse", cfg.echo(n=f.n, component_degree=args.degree))
    rep.results["dimension"] = comp.dim
    rep.results["basis"] = [format_element(g) for g in comp.elements()]
    lines = [f"dim (Iperp)_(-{args.degree}) = {comp.dim}"] + rep.results["basis"]
    return _emit(rep, args, lines)


def cmd_classify(args):
    cfg = RunConfig.from_args(args)
    f = _load_polynomial(args, cfg.field)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), cfg.degree_cap)
    cl = classify(Q)
    rep = Report("classify", cfg.echo(n=f.n, degree=f.degree()))
    rep.results.update(
        {
            "hilbert": cl.hilbert,
            "socle_polynomial": {str(k): v for k, v in cl.socle.items()},
            "initial_degree": cl.initial_degree,
            "top_socle_degree": cl.top_socle_degree,
            "narrow": cl.narrow,
            "extremely_narrow": cl.extremely_narrow,
            "witness": format_element(cl.witness) if cl.witness else None,
            "compressed": cl.compressed,
            "permissible_socle": cl.permissible_socle,
            "gorenstein": cl.gorenstein,
            "relation_space_dim": cl.relation_dim,
        }
    )
    lines = [
        f"hilbert: {cl.hilbert}",
        f"socle polynomial: {cl.socle}",
        f"t(I) = {cl.initial_degree}, s(A) = {cl.top_socle_degree}",
        f"narrow: {cl.narrow}; extremely narrow: {cl.extremely_narrow}"
        + (f" (witness {format_element(cl.witness)})" if cl.witness else ""),
        f"compressed: {cl.compressed}; permissible socle: {cl.permissible_socle}; "
        f"gorenstein: {cl.gorenstein}",
    ]
    return _emit(rep, args, lines)


def cmd_betti(args):
    cfg = RunConfig.from_args(args)
    f = _load_polynomial(args, cfg.field)
    rep = Report("betti", cfg.echo(n=f.n, degree=f.degree(), mode=args.mode))
    lines = []
    oracle = formula = None
    if args.mode in ("oracle", "both"):
        Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), cfg.degree_cap)
        oracle = koszul_betti(module_of_quotient(Q))
        rep.results["oracle"] = oracle.to_json()
        lines += ["oracle (Koszul homology):", oracle.render()]
    if args.mode in ("formula", "both"):
        formula = closed_form_betti(f.n, f.degree())
        rep.results["formula"] = formula.to_json()
        rep.results["b_variants"] = closed_form_b_variants(f.n, f.degree())
        lines += ["closed form:", formula.render()]
    if args.mode == "both":
        rep.verdict("oracle == formula", oracle == formula, "oracle vs formula")
    return _emit(rep, args, lines)


def cmd_golod_check(args):
    cfg = RunConfig.from_args(args)
    f = _load_polynomial(args, cfg.field)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), cfg.degree_cap)
    A = module_of_quotient(Q)
    table = koszul_betti(A)
    betti_k = residue_field_resolution(A, max_i=args.max_i)
    totals = {}
    for (i, j), v in betti_k.items():
        totals[i] = totals.get(i, 0) + v
    got = [totals.get(i, 0) for i in range(args.max_i + 1)]
    bound = [int(c) for c in verify_mod.golod_bound_series(f.n, table, args.max_i)]
    rep = Report("golod-check", cfg.echo(n=f.n, degree=f.degree(), max_i=args.max_i))
    rep.results["betti_of_k_over_A"] = {f"{i},{j}": v for (i, j), v in sorted(betti_k.items())}
    rep.results["totals"] = got
    rep.results["golod_bound"] = bound
    diagonal = all(i == j for (i, j) in betti_k)
    rep.results["koszul_algebra_window"] = diagonal
    d = f.degree()
    if d is not None and d > 2:
        rep.verdict("Golod: k-resolution attains the Serre bound", got == bound, "oracle vs formula")
    if d == 2:
        rep.verdict("Koszul: beta^A_{i,j}(k) = 0 for i != j in window", diagonal, "oracle")
    lines = [
        f"beta^A_i(k) totals: {got}",
        f"Golod bound coefficients: {bound}",
        f"diagonal (Koszul) in window: {diagonal}",
    ]
    return _emit(rep, args, lines)


def cmd_linrel(args):
    cfg = RunConfig.from_args(args)
    field = cfg.field
    if args.t_json:
        raw = json.loads(args.t_json)
        t = {tuple(int(x) for x in k.strip("()").split(",") if x): field.parse(str(v)) for k, v in raw.items()}
    elif args.t_seed is not None:
        t = generic_t(args.d, args.t_seed, field)
    else:
        t = {}
    rep = Report(
        "linrel",
        cfg.echo(t={str(k): str(v) for k, v in t.items()} or "zero"),
    )
    system = build_full_system(t, args.n, args.d, field)
    kernel = system.kernel()
    rep.results["full_system_rows"] = len(system.rows)
    rep.results["full_system_cols"] = len(system.columns)
    rep.results["kernel_dim"] = len(kernel)
    ap = analyze_Aprime(t, args.n, args.d, field)
    rep.results["reduced_rank"] = ap.rank
    rep.results["reduced_solution_dim"] = ap.solution_dim
    rep.results["det_Aprime_at_zero"] = str(ap.det_at_zero)
    rep.verdict(
        "det(A')|t=0 = (n-1) * prod (n - #q)",
        ap.det_factorization_ok,
        "oracle vs formula",
        f"det = {ap.det_at_zero}",
    )
    from .partitions import partition_count

    expected = partition_count(args.d) - partition_count(args.d - 1) - 1
    rep.verdict(
        f"dim L = P(d)-P(d-1)-1 = {expected}",
        len(kernel) == expected,
        "oracle vs formula",
        f"dim {len(kernel)}",
    )
    lines = [
        f"full system: {len(system.rows)} x {len(system.columns)}, kernel dim {len(kernel)}",
        f"reduced matrix rank {ap.rank}, solution dim {ap.solution_dim}",
        f"det(A')|t=0 = {ap.det_at_zero}",
    ]
    return _emit(rep, args, lines)


def cmd_equivariant(args):
    cfg = RunConfig.from_args(args)
    if cfg.field is not QQ:
        raise ConfigError("equivariant decompositions run over the rationals")
    f = _load_polynomial(args, cfg.field)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), cfg.degree_cap)
    M = module_of_quotient(Q)
    act = quotient_module_action(M)
    chi = tor_character(M, act, args.i, args.j, validate=True)
    dec = specht_decompose(chi)
    table = koszul_betti(M)
    rep = Report("equivariant", cfg.echo(n=f.n, i=args.i, j=args.j))
    rep.results["multiplicities"] = {str(list(k)): v for k, v in dec.nonzero().items()}
    rep.results["dimension"] = dec.dimension()
    rep.results["betti"] = table.get(args.i, args.j)
    rep.verdict(
        "decomposition dimension equals betti number",
        dec.dimension() == table.get(args.i, args.j),
        "oracle",
    )
    lines = [f"Tor_{args.i}(A,k)_{args.j}:"] + [
        f"  Sp_{list(lam)} ^ {m}" for lam, m in dec.nonzero().items()
    ]
    return _emit(rep, args, lines)


def cmd_restrict(args):
    lam = _parse_partition(args.schur)
    dec = restriction_decomposition(lam, args.n)
    rep = Report("restrict", {"schur": list(lam), "n": args.n})
    rep.results["multiplicities"] = {str(list(k)): v for k, v in dec.nonzero().items()}
    lines = [f"Res S_{list(lam)} over S_{args.n}:"] + [
        f"  Sp_{list(k)} ^ {v}" for k, v in dec.nonzero().items()
    ]
    return _emit(rep, args, lines)


def cmd_verify_paper(args):
    names = None if args.suite in (None, "all") else [args.suite]
    rep = Report("verify-paper", {"suite": args.suite or "all"})
    results = verify_mod.run_suites(names)
    lines = []
    for res in results:
        rep.verdicts += [replace(c, name=f"{res.name}: {c.name}") for c in res.checks]
        for note in res.notes:
            lines.append(f"note [{res.name}]: {note}")
        lines.append(f"suite {res.name}: {'PASS' if res.passed else 'FAIL'} ({res.seconds:.1f}s)")
    return _emit(rep, args, lines)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="psilab",
        description="exact-arithmetic lab for principal symmetric ideals",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = p.add_subparsers(dest="command", required=True)

    def json_flag(sp):
        # accepted both before and after the subcommand
        sp.add_argument("--json", action="store_true", default=argparse.SUPPRESS)

    def common(sp, poly=False, nd=True):
        sp.add_argument("--field", default="q", help="coefficient field: q or fp:<prime>")
        if poly:
            sp.add_argument("--poly", help="polynomial file (text syntax or JSON)")
        if nd:
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--d", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--bound", type=int, default=99)
        sp.add_argument("--cap", type=int, default=None, help="degree cap for the quotient")
        json_flag(sp)

    sp = sub.add_parser("sample", help="seeded random generator polynomial")
    common(sp)
    sp.add_argument("--out", help="write the polynomial to a file")
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("construct", help="the disjoint-binomial special polynomial")
    common(sp)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("orbit-dim", help="dimension of the orbit span")
    common(sp, poly=True)
    sp.set_defaults(fn=cmd_orbit_dim)

    sp = sub.add_parser("inverse", help="a graded component of the inverse system")
    common(sp, poly=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(fn=cmd_inverse)

    sp = sub.add_parser("classify", help="narrow/extremely-narrow/compressed/... flags")
    common(sp, poly=True)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("betti", help="betti tables by Koszul homology and closed form")
    common(sp, poly=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--oracle", dest="mode", action="store_const", const="oracle")
    g.add_argument("--formula", dest="mode", action="store_const", const="formula")
    g.add_argument("--both", dest="mode", action="store_const", const="both")
    sp.set_defaults(mode="both", fn=cmd_betti)

    sp = sub.add_parser("golod-check", help="resolution of k over the quotient")
    common(sp, poly=True)
    sp.add_argument("--max-i", type=int, default=4, dest="max_i")
    sp.set_defaults(fn=cmd_golod_check)

    sp = sub.add_parser("linrel", help="relation systems for the m_lam spans")
    json_flag(sp)
    sp.add_argument("--field", default="q")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--t", dest="t_json", help='JSON map like {"(2,1)": "3/2"}')
    g.add_argument("--t-zero", action="store_true")
    g.add_argument("--t-seed", type=int, default=None)
    sp.set_defaults(fn=cmd_linrel)

    sp = sub.add_parser("equivariant", help="Specht decomposition of one Tor bidegree")
    common(sp, poly=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.set_defaults(fn=cmd_equivariant)

    sp = sub.add_parser("restrict", help="restriction multiplicities of a Schur module")
    json_flag(sp)
    sp.add_argument("--schur", required=True, help="partition like 2,1")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=cmd_restrict)

    sp = sub.add_parser("verify-paper", help="run the verification suites")
    json_flag(sp)
    sp.add_argument("--suite", default=None, help=f"one of {list(verify_mod.SUITES)} or all")
    sp.set_defaults(fn=cmd_verify_paper)

    return p


def main(argv=None) -> int:
    """Run one command.  Exit codes: 0 every verdict passes, 1 a verdict
    fails, 2 usage or configuration error, 3 a resource limit was hit."""
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    args.started = started
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
