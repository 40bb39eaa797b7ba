"""Record the reference results the benchmark checks against, into golden.json.

    python3 perfbench/golden.py

For every CLI call any seed can produce, in both profiles, it stores the exit
code and the sha256 of stdout; for the oracle prefix, the best and the total
perfect-pair count.  Run it only at a commit whose output is the contract:
a later run of the benchmark counts every difference as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys

from checkout import load_nearfactor


def main() -> int:
    nf = load_nearfactor()
    from run import run_child
    from workloads import GOLDEN, PROFILES, WORKLOADS, Prepared, prefix_key

    cli: dict[str, list] = {}
    library: dict[str, list] = {}
    for sizes in PROFILES.values():
        for workload in WORKLOADS.values():
            for inputs in workload.golden_inputs(sizes):
                prepared = Prepared.write(workload, inputs)
                try:
                    for call in prepared.calls:
                        if not call.key or call.key in cli:
                            continue
                        _, proc = run_child([sys.executable, "-m", "nearfactor.cli", *call.args])
                        digest = hashlib.sha256(proc.stdout).hexdigest()
                        cli[call.key] = [proc.returncode, digest]
                        print(call.key, proc.returncode, digest[:12], flush=True)
                finally:
                    prepared.cleanup()
        m, length = sizes["prefix_n"], sizes["prefix_len"]
        stream = nf.enumerate_factorizations(m)
        counts = [nf.count_perfect_pairs(next(stream)) for _ in range(length)]
        stream.close()
        library[prefix_key(m, length)] = [max(counts), sum(counts)]
    GOLDEN.write_text(json.dumps({"cli": cli, "library": library}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
