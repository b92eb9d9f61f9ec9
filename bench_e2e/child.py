"""One workload, one mode, in one fresh process (spawned by ``run.py``
with the BLAS thread pins already in the environment).  Prints its
measurements as one JSON object on the last line of stdout."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args()

    import numpy
    import scipy

    import batch
    import serve_load
    from harness import Run, SameProgramError

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.smoke, args.oracle, args.spawned)
    try:
        {**batch.WORKLOADS, **serve_load.WORKLOADS}[args.workload](run)
    except SameProgramError as exc:
        print(f"traced run aborted: {exc}", file=sys.stderr)
        return 3
    result = run.result()
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
