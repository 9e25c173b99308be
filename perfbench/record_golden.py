"""Record the digest of every grid the benchmark can run into golden.json.

    python3 perfbench/record_golden.py

Records the grids of both the full and the quick mode.  Run it once on a
commit whose rows are trusted; afterwards every benchmark run compares its
grids against these digests.  Re-record only when a change is meant to alter
results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.api import run_grid  # noqa: E402

from perfbench.gate import GOLDEN_PATH, row_violations, rows_digest  # noqa: E402
from perfbench.workloads import record_keys  # noqa: E402


def main() -> int:
    golden = {}
    bad = 0
    for mode in ("quick", "full"):
        for key, config, backend in record_keys(mode):
            rows = list(run_grid(config, backend=backend, jobs=1))
            problems = [p for row in rows for p in row_violations(row)]
            for problem in problems:
                print(f"{key}: {problem}", file=sys.stderr)
            bad += bool(problems)
            golden[key] = rows_digest(rows)
            print(key, golden[key][:16], flush=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
