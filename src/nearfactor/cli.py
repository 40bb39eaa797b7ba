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
import io
import json
import sys
from itertools import combinations

from ._record import to_json
from .factors import (
    Factor,
    Factorization,
    build_modular_factor,
    build_modular_factor_even,
    build_modular_factorization,
    factorization_problems,
)
from .numtheory import CostGuardError, totient
from .pairing import (
    _pair_verdicts,
    classify_pair,
    count_perfect_pairs,
    is_perfect_by_gcd,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COST_GUARD = 3

# The most bytes `verify` reads; the modular family's JSON is 1.22 MB at
# n = 501 and grows about as n^2.
MAX_INPUT_BYTES = 16 * 1024 * 1024

# Out of the f-strings: before Python 3.12 their expressions cannot hold a `"`.
DOUBLE_CIRCLE = ' [shape="doublecircle"]'
WITNESS_STYLES = (' [color="blue"]', ' [color="red"]')


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- rendering


def _dot(label: str, factors: tuple[Factor, ...], styles: tuple[str, ...]) -> str:
    """Every vertex, isolated ones doubled, then each factor's edges in its style."""
    isolated = {f.isolated for f in factors}
    lines = [f"graph {label} {{"]
    for v in range(factors[0].n):
        lines.append(f"  {v}{DOUBLE_CIRCLE if v in isolated else ''};")
    for factor, style in zip(factors, styles):
        lines.extend(f"  {u} -- {v}{style};" for u, v in factor.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _factor_text(factor: Factor) -> str:
    kind = "near-one-factor" if factor.n % 2 else "one-factor"
    label = "" if factor.index is None else f" k={factor.index}"
    iso = "" if factor.isolated is None else f" isolated {factor.isolated};"
    edges = " ".join(f"({u},{v})" for u, v in factor.edges)
    return f"{kind}{label} of K_{factor.n}:{iso} edges {edges}\n"


# ------------------------------------------------------------- subcommands
# Each returns its output text and exit code; main runs it as `args.run`
# and writes the text.


def cmd_construct(args: argparse.Namespace) -> tuple[str, int]:
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
        text = to_json(record.to_dict())
    elif args.format == "dot":
        text = "".join(
            _dot("factor" if f.index is None else f"factor_{f.index}", (f,), ("",))
            for f in factors
        )
    else:
        text = "".join(map(_factor_text, factors))
    return text, EXIT_OK


def cmd_pairs(args: argparse.Namespace) -> tuple[str, int]:
    n = args.n
    if args.witness:
        if args.k is None or args.l is None:
            raise ValueError("--witness requires --k and --l")
        f = build_modular_factor(n, args.k)
        g = build_modular_factor(n, args.l)
        outcome = classify_pair(f, g)
        if args.format == "dot":
            return _dot(f"pair_k{f.index}_l{g.index}", (f, g), WITNESS_STYLES), EXIT_OK
        if args.format == "json":
            payload = {
                "n": n,
                "k": args.k,
                "l": args.l,
                "perfect": outcome.perfect,
                "walk": outcome.witness.to_dict(),
            }
            return to_json(payload), EXIT_OK
        verdict = "perfect" if outcome.perfect else "not perfect"
        return f"pair (k={args.k}, l={args.l}) of K_{n}: {verdict}\n", EXIT_OK
    if args.format == "dot":
        raise ValueError("dot output for pairs needs --witness with --k and --l")

    fz = build_modular_factorization(n)
    count = 0
    agree = True
    verdicts = [[0] * n for _ in range(n)] if args.matrix else None
    for (f, g), perfect in zip(combinations(fz.factors, 2), _pair_verdicts(fz)):
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
        return to_json(payload), EXIT_OK
    text = (
        f"K_{n}: {count} perfect pairs; formula n*phi(n)/2 = {formula_value}; "
        f"agree: {payload['agree']}\n"
    )
    return text, EXIT_OK


def cmd_equiv(args: argparse.Namespace) -> tuple[str, int]:
    from .equivalence import build_equivalence_report

    report = build_equivalence_report(args.s, args.t)
    ok = report.all_edge_sets_equal and report.bounds_equal
    code = EXIT_OK if ok else EXIT_VALIDATION
    if args.format == "json":
        return to_json(report.to_dict()), code
    text = (
        f"K_{report.n} as K_{report.s} x K_{report.t}: "
        f"factors equal: {report.all_edge_sets_equal}; "
        f"bounds {report.direct_bound} vs {report.product_bound}: "
        f"equal: {report.bounds_equal}\n"
    )
    return text, code


def cmd_oracle(args: argparse.Namespace) -> tuple[str, int]:
    from .oracle import oracle_summary

    summary = oracle_summary(args.n, expensive=args.expensive)
    if args.format == "json":
        return to_json(summary.to_dict()), EXIT_OK
    text = (
        f"K_{summary.n}: exact_c = {summary.exact_c}, "
        f"lower bound n*phi(n)/2 = {summary.lower_bound}, "
        f"factorizations seen = {summary.factorizations_seen}\n"
    )
    return text, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    try:
        with open(args.input, "rb") as handle:
            # In chunks: one read of the cap would allocate the whole cap.
            raw = bytearray()
            while chunk := handle.read(min(1 << 16, MAX_INPUT_BYTES + 1 - len(raw))):
                raw += chunk
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    if len(raw) > MAX_INPUT_BYTES:
        raise ValueError(f"{args.input} is larger than {MAX_INPUT_BYTES} bytes")
    # Decoded in one go, as a text-mode read() decodes a whole file.
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    try:
        data = json.loads(text)
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
    code = EXIT_OK if payload["valid"] else EXIT_VALIDATION
    if args.format == "json":
        return to_json(payload), code
    status = "valid" if payload["valid"] else "INVALID"
    lines = [f"factorization of K_{fz.n}: {status}"]
    lines.extend(f"  problem: {p}" for p in problems)
    if payload["perfect_pairs"] is not None:
        lines.append(f"  perfect pairs: {payload['perfect_pairs']}")
    return "\n".join(lines) + "\n", code


# ------------------------------------------------------------------ driver


def _bind(p: argparse.ArgumentParser, run, formats=("json", "text")) -> None:
    """Make `p` run `run`, which writes one of `formats` to stdout or --output."""
    p.set_defaults(run=run)
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--output", default=None, help="write to file instead of stdout")


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
    _bind(p, cmd_construct, ("json", "dot", "text"))

    p = sub.add_parser("pairs", help="count and classify perfect pairs")
    p.add_argument("--n", type=int, required=True, help="odd graph order")
    p.add_argument("--matrix", action="store_true", help="include the verdict matrix")
    p.add_argument("--witness", action="store_true", help="show one pair's witness")
    p.add_argument("--k", type=int, default=None, help="first factor index (witness)")
    p.add_argument("--l", type=int, default=None, help="second factor index (witness)")
    _bind(p, cmd_pairs, ("json", "dot", "text"))

    p = sub.add_parser("equiv", help="compare direct and product constructions")
    p.add_argument("--s", type=int, required=True, help="first constituent order")
    p.add_argument("--t", type=int, required=True, help="second constituent order")
    _bind(p, cmd_equiv)

    p = sub.add_parser("oracle", help="exact counts from exhaustive enumeration")
    p.add_argument("--n", type=int, required=True, help="odd order, 3 to 9")
    p.add_argument("--expensive", action="store_true", help="allow the n=9 search")
    _bind(p, cmd_oracle)

    p = sub.add_parser("verify", help="validate and classify an external file")
    p.add_argument("--input", required=True, help="factorization JSON file")
    _bind(p, cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
        _emit(text, args.output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CostGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_COST_GUARD
    return code


if __name__ == "__main__":
    sys.exit(main())
