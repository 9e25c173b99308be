"""The correctness gate: paper bounds on every row, digests against golden.

A run is correct only if every row it produced satisfies the paper's bounds
and every grid's digest equals the one recorded in ``golden.json`` for that
grid.  The digest leaves out the ``backend`` provenance column, so a change
that swaps the engine but keeps every measurement bit-equal still passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.analysis.bounds import (
    broadcast_round_bound,
    distinct_label_bound,
    scheme_length_bound,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")

PAPER_SCHEMES = ("lambda", "lambda_ack", "lambda_arb")
#: A gate keeps this many failure messages; the rest are summarized.
FAILURE_LIMIT = 20


def row_violations(row: Any) -> List[str]:
    """Every way ``row`` breaks the paper's guarantees (empty when none).

    * λ and λ_ack inform every node within 2n − 3 rounds (Theorem 2.9);
    * λ_ack's source hears the acknowledgement in [t + 1, t + n − 1], the
      window ``repro.core.verify.check_theorem_3_9`` uses for Theorem 3.9;
    * λ / λ_ack / λ_arb use 2 / 3 / 3-bit labels, and at most 4 / 5 / 6
      distinct labels.

    The paper bounds no other column; the recorded digest pins the rest.
    """
    tag = f"{row.scheme} {row.family}:{row.n}"
    if row.status != "ok":
        return [f"{tag}: status {row.status}"]
    out: List[str] = []
    t = row.completion_round
    if row.scheme in ("lambda", "lambda_ack"):
        if t is None or t > broadcast_round_bound(row.n):
            out.append(f"{tag}: Theorem 2.9: completion round {t} > 2n-3")
    if row.scheme == "lambda_ack" and row.n > 1 and t is not None:
        ack = row.acknowledgement_round
        if ack is None or not t + 1 <= ack <= t + max(1, row.n - 1):
            out.append(f"{tag}: Theorem 3.9: ack round {ack} outside "
                       f"[{t + 1}, {t + max(1, row.n - 1)}]")
    if row.scheme in PAPER_SCHEMES:
        if row.label_bits != scheme_length_bound(row.scheme):
            out.append(f"{tag}: {row.label_bits}-bit labels")
        if row.distinct_labels > distinct_label_bound(row.scheme):
            out.append(f"{tag}: {row.distinct_labels} distinct labels")
    return out


def rows_digest(rows: Iterable[Any]) -> str:
    """SHA-256 over the rows' canonical JSON, without ``backend``."""
    digest = hashlib.sha256()
    for row in rows:
        doc = row.as_dict()
        doc.pop("backend", None)
        digest.update(json.dumps(doc, sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, str]:
    return json.loads(path.read_text())


class Gate:
    """Collects every failed check of one run."""

    def __init__(self, golden: Dict[str, str]) -> None:
        self.golden = golden
        self.failures: List[str] = []
        self.checked_rows = 0
        self.checked_grids = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        if len(self.failures) < FAILURE_LIMIT:
            self.failures.append(message)
        elif len(self.failures) == FAILURE_LIMIT:
            self.failures.append("... further failures omitted")

    def check_rows(self, rows: Iterable[Any]) -> None:
        for row in rows:
            self.checked_rows += 1
            for problem in row_violations(row):
                self.fail(problem)

    def check_grid(self, grid_key: str, rows: List[Any],
                   expected_rows: Optional[int] = None) -> None:
        """Bounds on every row, row count, and the digest recorded for
        ``grid_key``."""
        self.checked_grids += 1
        self.check_rows(rows)
        if expected_rows is not None and len(rows) != expected_rows:
            self.fail(f"{grid_key}: {len(rows)} rows, expected {expected_rows}")
        recorded = self.golden.get(grid_key)
        if recorded is None:
            self.fail(f"{grid_key}: no recorded digest")
        elif rows_digest(rows) != recorded:
            self.fail(f"{grid_key}: digest differs from the recorded one")
