"""Run every workload untraced and traced, print every metric by name with
its unit, and run the output checks.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--record-digests]

Each run is its own ``run.py`` process, one after the other.  The exit code
is 1 if any operation or check failed.  ``--record-digests`` stores the
untraced runs' model sha256 digests for this seed in digests.json, which
later runs compare against (a change that alters a model must say why).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    failed = 0
    digests_path = os.path.join(HERE, "digests.json")
    with open(digests_path, encoding="utf-8") as handle:
        digests = json.load(handle)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: run failed\n{proc.stderr}")
                failed += 1
                continue
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(f"== {name} trace={trace}: {result['attempted']} operations, "
                  f"{result['failed']} failed; model digests match record: "
                  f"{record['digests_match']}")
            for metric, m in result["metrics"].items():
                print(f"   {metric:28s} {m['value']:>16.6g} {m['unit']}")
            for check in record["checks"]:
                if not check["ok"]:
                    print(f"   FAILED CHECK {check['check']}: {check['detail']}")
            for op in record["failed_ops"]:
                print(f"   FAILED OP {op['op']}: {op['error']}")
            failed += result["failed"]
            if args.record_digests and trace == 0:
                digests.setdefault(name, {})[str(args.seed)] = record["model_sha256"]
    if args.record_digests:
        with open(digests_path, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
