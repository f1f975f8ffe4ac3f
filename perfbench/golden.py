"""Regenerate ``golden.json``, the answers every benchmark run checks.

Runs one untraced repetition of each workload and pins, per search, the
digest of the final configuration's exchange text, ``tested``,
``static_pct``, ``dynamic_pct`` and the final verdict; in-process
searches also pin a digest of their ``(label, passed, cycles)`` history.
Only regenerate when a change is meant to alter search results::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, SRC, run_rep
from rep import WORKLOADS

PINNED = ("config", "tested", "static_pct", "dynamic_pct", "final",
          "history", "history_len")


def main() -> int:
    sys.path.insert(0, SRC)
    golden = {}
    for workload in WORKLOADS:
        rep = run_rep(workload, 1, False, 0, 150.0)
        if "error" in rep:
            print(f"{workload}: {rep['error']}", file=sys.stderr)
            return 1
        answers = {}
        for record in rep["records"]:
            if "error" in record:
                print(f"{workload}: {record['error']}", file=sys.stderr)
                return 1
            if record.get("resubmit"):
                continue
            answers[record["name"]] = {
                k: record[k] for k in PINNED if k in record
            }
        golden[workload] = dict(sorted(answers.items()))
        print(f"{workload}: {len(answers)} searches pinned")
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
