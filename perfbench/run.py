"""gintail benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload gin_qq --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program is imported from src/ next to
this directory; nothing needs building.  Prints one line per metric, then,
as the last line, a JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gin_qq", "gin_fp", "saturate_qq", "borel_tailing")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "gintail" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    lines, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
