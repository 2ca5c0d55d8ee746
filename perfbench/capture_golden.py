"""Record the stdout and exit code of each README example as the cli workload's answers.

    python3 perfbench/capture_golden.py

Run it only at a commit whose CLI output is known to be right: the cli
workload then requires every later commit to print the same bytes.
"""

from __future__ import annotations

import json

import worker
import workloads


def main() -> None:
    run = worker.ChildRunner()
    golden = []
    for argv in workloads.README_EXAMPLES:
        code, stdout = run(argv)
        golden.append({"argv": list(argv), "exit": code, "stdout": stdout})
    with open(worker.HERE / "golden.json", "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
