"""Print every end-to-end metric, one row per workload.

Runs ``run.py --trace 0`` once per workload, each in its own process (so that
peak RSS is the workload's own), and prints the metrics by name and unit,
with the fail ratio, the tail percentile and its sample count, and, for
tt_verify, how many ops checked planted mismatches.

    python3 perfbench/report.py --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, RESULTS  # noqa: E402
from workloads import GENERATORS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    columns = [f"{name} [{unit}]" for name, unit in END_TO_END_UNITS.items()]
    columns += ["fail_ratio [1]", "tail percentile", "samples", "planted ops"]
    print("\t".join(["workload", *columns]))
    status = 0
    for workload in GENERATORS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        if done.returncode != 0:
            print(f"{workload}\trun failed with exit {done.returncode}: {done.stderr.strip()}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads((RESULTS / f"{workload}-seed{args.seed}-trace0.json").read_text(encoding="utf-8"))
        row = [f"{result['metrics'][name]['value']:.4g}" for name in END_TO_END_UNITS]
        row += [f"{record['fail_ratio']:.4g}", f"p{record['tail_percentile']:.1f}", str(record["samples"]),
                str(record.get("planted_ops", "-"))]
        print("\t".join([workload, *row]))
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
