"""One benchmark set-up in a fresh interpreter; run.py times it from outside.

Does what a run does before its first timed call: import nearfactor from the
checkout, turn the seed into inputs, write the input files.  Then it removes
the files and exits.
"""

from __future__ import annotations

import argparse

from checkout import load_nearfactor


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", required=True)
    args = parser.parse_args()
    load_nearfactor()
    from workloads import prepare

    prepare(args.workload, args.seed, args.profile).cleanup()


if __name__ == "__main__":
    main()
