"""Set-up probe: ``import entlab`` in a fresh interpreter, then build every
system of one workload.  Prints one JSON line with ``import_s`` and
``build_s``; run.py starts it with ``src/`` on PYTHONPATH.  Drawing the
seeded inputs (numpy only) is not timed.
"""

import argparse
import json
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    args = p.parse_args()

    t0 = time.perf_counter()
    import entlab  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    t1 = time.perf_counter()
    workloads.build_systems(args.workload, inputs)
    build_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "build_s": build_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
