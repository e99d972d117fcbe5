"""Self-test of the benchmark: every workload at toy scale, in seconds.

    python3 perfbench/selftest.py

Runs each workload through ``run.py --scale toy`` at seed 0, untraced
and traced, and asserts that

* the untraced run prints every end-to-end metric of
  ``BENCHMARK.json``, and the traced run every per-layer metric, each
  with its declared unit;
* both pass every output check (exit 0, ``failed`` 0);
* a perturbed pinned value is caught: the run exits 1, the result is
  not ``correct``, and the failed operation shows in ``failed`` and in
  the record's ``ops_failed_frac``.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (workload, operation, field, factor): pinned values to perturb, one
#: LP-derived float and one exact count.
PERTURBATIONS = (
    ("replay-europe-1m", "day30/titan-next", "sum_of_peaks_gbps", 1.001),
    ("replan-emea-stress", "holiday/day30/titan-next", "calls", 2),
)


def run(workload: str, trace: int, expected: Optional[Path] = None) -> Tuple[int, dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
        "--seconds", "0", "--trace", str(trace), "--scale", "toy",
    ]
    if expected is not None:
        command += ["--expected", str(expected)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"{workload}: no result printed\n{done.stderr}")
    return done.returncode, json.loads(lines[-1]), json.loads(lines[-2])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []

    for entry in bench["workloads"]:
        name = entry["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run(name, trace)
            label = f"{name} --trace {trace}"
            before = len(problems)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: exit {code}, result {result}")
            if result["attempted"] < 1:
                problems.append(f"{label}: attempted {result['attempted']}")
            declared = {m["name"]: m["unit"] for m in bench[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared:
                problems.append(f"{label}: metrics {sorted(printed)} != {sorted(declared)}")
            status = "ok" if len(problems) == before else "FAIL"
            print(f"{status:4} {label}: {len(printed)} metrics, {result['attempted']} operations")

    expected = json.loads((HERE / "expected.json").read_text())
    for workload, op_id, field, factor in PERTURBATIONS:
        expected["toy"][workload][op_id][field] *= factor
    perturbed = ROOT / ".bench_build" / "selftest-expected.json"
    perturbed.parent.mkdir(parents=True, exist_ok=True)
    perturbed.write_text(json.dumps(expected))
    for workload, op_id, field, _ in PERTURBATIONS:
        code, result, record = run(workload, 0, perturbed)
        caught = (
            code == 1
            and not result["correct"]
            and result["failed"] >= 1
            and record["ops_failed_frac"] == result["failed"] / result["attempted"] > 0
            and any(op_id in s.get("errors", {}) for s in record["samples"])
        )
        if not caught:
            problems.append(f"perturbed {workload} {op_id}.{field} not caught: {result}")
        print(f"{'ok' if caught else 'FAIL':4} perturbed {workload} {op_id}.{field} caught")

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
