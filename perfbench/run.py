"""Run one critnet benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload solve-ba --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the program is imported from ``src/``
next to this directory, never from an installed copy. The lines before the
last one carry the environment, the determinism digest, the sample counts
and the first failed checks; the last line is the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    # must precede the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve-ba", "train-mix", "dismantle-er"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "critnet" / "__init__.py").is_file():
        print(f"error: no critnet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import critnet

    if Path(critnet.__file__).resolve().parent != (src / "critnet").resolve():
        print(f"error: critnet was imported from {critnet.__file__}, not {src}", file=sys.stderr)
        return 2

    import harness

    info, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), BLAS_THREADS)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
