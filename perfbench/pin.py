"""Re-pin the expected outputs the seed-0 checks compare against.

    python3 perfbench/pin.py --scale full|toy [--write]

Runs every workload's window once at seed 0 and prints the pinned
fields of each operation; ``--write`` stores them in ``expected.json``
(other scales' entries are kept).  Re-pin only when a change is meant
to alter the program's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import EXPECTED_PATH, observed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=("full", "toy"), required=True)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    pinned = {}
    for name, bench in WORKLOADS.items():
        outcome = bench.run(bench.build_setup(args.scale), args.scale, 0)
        pinned[name] = {op.op_id: observed(op) for op in outcome.operations}
        print(f"{name}: {len(pinned[name])} operations", file=sys.stderr)
    if not args.write:
        print(json.dumps(pinned, indent=1, sort_keys=True))
        return 0
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    expected[args.scale] = pinned
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
