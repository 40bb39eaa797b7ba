"""Command-line interface.

Usage:
    nearfactor construct --n 5 --k 0 --format json
    nearfactor construct --n 5                 # whole factorization
    nearfactor construct --n 4 --k 0 --even    # even-order perfect matching
    nearfactor pairs --n 9 [--matrix]
    nearfactor pairs --n 5 --witness --k 0 --l 1 --format dot
    nearfactor equiv --s 3 --t 5
    nearfactor oracle --n 5 [--expensive]
    nearfactor verify --input factorization.json

Exit codes: 0 success, 2 validation error, 3 cost-guard refusal.
All output is deterministic: canonical edge order, sorted JSON keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

from .factors import (
    Factor,
    Factorization,
    build_modular_factor,
    build_modular_factor_even,
    build_modular_factorization,
    factorization_problems,
)
from .numtheory import totient
from .oracle import CostGuardError, oracle_summary
from .pairing import _is_perfect, classify_pair, count_perfect_pairs, is_perfect_by_gcd
from .equivalence import build_equivalence_report

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COST_GUARD = 3

WITNESS_COLORS = ("blue", "red")


def _to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- rendering


def _factor_dot(factor: Factor) -> str:
    label = "factor" if factor.index is None else f"factor_{factor.index}"
    lines = [f"graph {label} {{"]
    for v in range(factor.n):
        mark = ' [shape="doublecircle"]' if v == factor.isolated else ""
        lines.append(f"  {v}{mark};")
    for u, v in factor.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _witness_dot(f: Factor, g: Factor) -> str:
    lines = [f"graph pair_k{f.index}_l{g.index} {{"]
    for v in range(f.n):
        mark = ' [shape="doublecircle"]' if v in (f.isolated, g.isolated) else ""
        lines.append(f"  {v}{mark};")
    for factor, color in zip((f, g), WITNESS_COLORS):
        for u, v in factor.edges:
            lines.append(f'  {u} -- {v} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _factor_text(factor: Factor) -> str:
    kind = "near-one-factor" if factor.n % 2 else "one-factor"
    label = "" if factor.index is None else f" k={factor.index}"
    iso = "" if factor.isolated is None else f" isolated {factor.isolated};"
    edges = " ".join(f"({u},{v})" for u, v in factor.edges)
    return f"{kind}{label} of K_{factor.n}:{iso} edges {edges}\n"


# ------------------------------------------------------------- subcommands


def cmd_construct(args: argparse.Namespace) -> int:
    n = args.n
    if args.even:
        if args.k is None:
            raise ValueError("--even requires --k (one factor at a time)")
        record = build_modular_factor_even(n, args.k)
    elif args.k is not None:
        record = build_modular_factor(n, args.k)
    else:
        record = build_modular_factorization(n)
    factors = record.factors if isinstance(record, Factorization) else (record,)
    if args.format == "json":
        text = _to_json(record.to_dict())
    elif args.format == "dot":
        text = "".join(map(_factor_dot, factors))
    else:
        text = "".join(map(_factor_text, factors))
    _emit(text, args.output)
    return EXIT_OK


def cmd_pairs(args: argparse.Namespace) -> int:
    n = args.n
    if args.witness:
        if args.k is None or args.l is None:
            raise ValueError("--witness requires --k and --l")
        f = build_modular_factor(n, args.k)
        g = build_modular_factor(n, args.l)
        outcome = classify_pair(f, g)
        if args.format == "dot":
            _emit(_witness_dot(f, g), args.output)
        elif args.format == "json":
            payload = {
                "n": n,
                "k": args.k,
                "l": args.l,
                "perfect": outcome.perfect,
                "walk": outcome.witness.to_dict(),
            }
            _emit(_to_json(payload), args.output)
        else:
            verdict = "perfect" if outcome.perfect else "not perfect"
            _emit(f"pair (k={args.k}, l={args.l}) of K_{n}: {verdict}\n", args.output)
        return EXIT_OK
    if args.format == "dot":
        raise ValueError("dot output for pairs needs --witness with --k and --l")

    fz = build_modular_factorization(n)
    count = 0
    agree = True
    verdicts = [[0] * n for _ in range(n)] if args.matrix else None
    for f, g in combinations(fz.factors, 2):
        perfect = _is_perfect(f, g)
        if perfect:
            count += 1
            if verdicts is not None:
                verdicts[f.index][g.index] = verdicts[g.index][f.index] = 1
        if is_perfect_by_gcd(f.index, g.index, n) != perfect:
            agree = False
    formula_value = n * totient(n) // 2
    payload = {
        "n": n,
        "perfect_pairs": count,
        "formula": "n*phi(n)/2",
        "formula_value": formula_value,
        "agree": agree and count == formula_value,
    }
    if args.matrix:
        payload["matrix"] = verdicts
    if args.format == "json":
        _emit(_to_json(payload), args.output)
    else:
        _emit(
            f"K_{n}: {count} perfect pairs; formula n*phi(n)/2 = {formula_value}; "
            f"agree: {payload['agree']}\n",
            args.output,
        )
    return EXIT_OK


def cmd_equiv(args: argparse.Namespace) -> int:
    report = build_equivalence_report(args.s, args.t)
    text = (
        f"K_{report.n} as K_{report.s} x K_{report.t}: "
        f"factors equal: {report.all_edge_sets_equal}; "
        f"bounds {report.direct_bound} vs {report.product_bound}: "
        f"equal: {report.bounds_equal}\n"
    )
    _emit(_to_json(report.to_dict()) if args.format == "json" else text, args.output)
    if report.all_edge_sets_equal and report.bounds_equal:
        return EXIT_OK
    return EXIT_VALIDATION


def cmd_oracle(args: argparse.Namespace) -> int:
    summary = oracle_summary(args.n, expensive=args.expensive)
    text = (
        f"K_{summary.n}: exact_c = {summary.exact_c}, "
        f"lower bound n*phi(n)/2 = {summary.lower_bound}, "
        f"factorizations seen = {summary.factorizations_seen}\n"
    )
    _emit(_to_json(summary.to_dict()) if args.format == "json" else text, args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON in {args.input}: {exc}") from None
    try:
        fz = Factorization.from_dict(data)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed factorization object: {exc!r}") from None

    problems = factorization_problems(fz)
    payload = {
        "n": fz.n,
        "factor_count": len(fz.factors),
        "valid": not problems,
        "problems": problems,
        "perfect_pairs": None,
    }
    if not problems:
        payload["perfect_pairs"] = count_perfect_pairs(fz)
    if args.format == "json":
        _emit(_to_json(payload), args.output)
    else:
        status = "valid" if payload["valid"] else "INVALID"
        lines = [f"factorization of K_{fz.n}: {status}"]
        lines.extend(f"  problem: {p}" for p in problems)
        if payload["perfect_pairs"] is not None:
            lines.append(f"  perfect pairs: {payload['perfect_pairs']}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if payload["valid"] else EXIT_VALIDATION


# ------------------------------------------------------------------ driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearfactor",
        description="Modular (near-)one-factorizations of complete graphs "
        "and their perfect pairs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="build a modular factor or factorization")
    p.add_argument("--n", type=int, required=True, help="graph order")
    p.add_argument("--k", type=int, default=None, help="factor index (omit for all)")
    p.add_argument("--even", action="store_true", help="even-order builder")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("pairs", help="count and classify perfect pairs")
    p.add_argument("--n", type=int, required=True, help="odd graph order")
    p.add_argument("--matrix", action="store_true", help="include the verdict matrix")
    p.add_argument("--witness", action="store_true", help="show one pair's witness")
    p.add_argument("--k", type=int, default=None, help="first factor index (witness)")
    p.add_argument("--l", type=int, default=None, help="second factor index (witness)")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.add_argument("--output", default=None)

    p = sub.add_parser("equiv", help="compare direct and product constructions")
    p.add_argument("--s", type=int, required=True, help="first constituent order")
    p.add_argument("--t", type=int, required=True, help="second constituent order")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None)

    p = sub.add_parser("oracle", help="exact counts from exhaustive enumeration")
    p.add_argument("--n", type=int, required=True, help="odd order, 3 to 9")
    p.add_argument("--expensive", action="store_true", help="allow the n=9 search")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="validate and classify an external file")
    p.add_argument("--input", required=True, help="factorization JSON file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None)

    return parser


COMMANDS = {
    "construct": cmd_construct,
    "pairs": cmd_pairs,
    "equiv": cmd_equiv,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.subcommand](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CostGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_COST_GUARD


if __name__ == "__main__":
    sys.exit(main())
