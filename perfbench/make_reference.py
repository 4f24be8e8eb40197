"""Regenerate perfbench/reference.json: each workload's outcome at the reference seed.

Usage, from the repository root: python3 perfbench/make_reference.py

Run it only when a deliberate, reviewed change alters the program's seeded
results; the benchmark's correctness gate compares every run against this file.
"""

import json
import os
import sys

from source import load_package, pin_blas

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    pin_blas()
    load_package(os.getcwd())
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        result = workload.run_pass(workloads.REFERENCE_SEED)
        if result.errors:
            sys.exit(f"{name}: {result.errors}")
        reference[name] = result.record
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
