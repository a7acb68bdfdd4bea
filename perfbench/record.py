"""Record expected.json: the output and exit code of every catalog operation.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known to be right.  The
benchmark compares catalog outputs with these records and checks rotated
inputs against the values of the algebra they were rotated from.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    env = run.child_env()
    expected = {}
    for op in workloads.CATALOG_OPS:
        _, rc, out = run.run_process(op.argv({}), env)
        if rc is None:
            print(f"{op.source_key()}: timed out", file=sys.stderr)
            return 1
        expected[op.source_key()] = {"rc": rc, "out": json.loads(out)}
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
