"""Compare the constructive lower bound against exhaustive ground truth.

Enumerates every near-one-factorization of K_n for small odd n, takes the
maximum perfect-pair count, and sets it against the n * phi(n) / 2 pairs
the sum-rule family guarantees.  At n = 3, 5, 7 the bound is tight and
equals C(n, 2): every pair of factors is perfect.

The n = 7 sweep visits 6240 factorizations and takes about 0.1 s; it is
skipped unless requested.  n = 9 (over a billion factorizations) is
far beyond a demo and always refused here.
"""

import argparse

from nearfactor import enumerate_factorizations, oracle_summary, totient


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-n",
        type=int,
        default=5,
        choices=(3, 5, 7),
        help="largest order to sweep exhaustively (default 5)",
    )
    args = parser.parse_args()

    print("n   factorizations   exact max   n*phi(n)/2   tight")
    for n in range(3, args.max_n + 1, 2):
        summary = oracle_summary(n)
        bound = n * totient(n) // 2
        tight = summary.exact_c == bound
        print(f"{n}   {summary.factorizations_seen:14d}   "
              f"{summary.exact_c:9d}   {bound:10d}   {tight}")
    print()

    print("the six essentially different factorizations of K_5, by isolated-")
    print("vertex order of their lexicographically sorted factors:")
    for i, fz in enumerate(enumerate_factorizations(5)):
        order = [f.isolated for f in fz.factors]
        first = "  ".join(f"{u}-{v}" for u, v in fz.factors[0].edges)
        print(f"  #{i}: isolated order {order}, first factor {first}")


if __name__ == "__main__":
    main()
