"""Write perfbench/digests.json: the reference output of every operation.

    python3 perfbench/record_digests.py

Runs one untraced pass of each workload and stores the sha256 of each
operation's deterministic output (``DualityReport.to_json()``, or the exit
code and stdout of a CLI call).  An operation is recorded only when it shows
its expected class (pass verdict, or the negative control's witness); the
window-edge CLI calls are judged by exit class alone and get no digest.
Re-record only on a commit whose reports are known to be right.
"""

from __future__ import annotations

import json
import sys

from run import HERE, child_env, judge, run_child
from workloads import WORKLOADS, expectations


def main() -> int:
    root = HERE.parent
    env = child_env(root)
    digests = {}
    for workload in WORKLOADS:
        result = run_child(root, env, "--workload", workload, "--seed", "0")
        digests[workload] = {}
        for key, expect in expectations(workload).items():
            if expect == "edge":
                continue
            outcome = result["ops"][key]
            if not judge(expect, outcome, outcome.get("digest")):
                print(f"not recorded: {workload}: {key}: {outcome}", file=sys.stderr)
                return 1
            digests[workload][key] = outcome["digest"]
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
