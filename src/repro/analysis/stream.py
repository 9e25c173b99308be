"""Single-pass streaming groupby/aggregate over result rows.

The eager path (``ResultSet.groupby(...)[g].aggregate(col)``) wants every row
columnar in memory; this module answers the same questions from a *stream* of
row dicts — ``store.iter_docs()``, a service scan, a JSONL pipe — holding
only the aggregated column's values per group, so a store too big to
materialize still aggregates in one pass.

The statistical kernel (:func:`compute_stats`) is shared by
``ResultSet.aggregate``, the streaming aggregator and the service
coordinator's ``aggregate`` frames, so all three surfaces return *identical*
numbers for the same rows — including the bootstrap confidence interval,
which resamples with a fixed-seed generator over the sorted values.  Groups
are reported in sorted key order and each group's values are sorted before
the statistics are taken, so an answer depends only on the *multiset* of
rows, never on the order a store or a worker pool delivered them in.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .metrics import (
    METRIC_FIELDS,
    METRIC_INT_FIELDS,
    METRIC_OPTIONAL_INT_FIELDS,
)

__all__ = [
    "COLUMN_ALIASES",
    "NUMERIC_COLUMNS",
    "StreamAggregator",
    "compute_stats",
    "resolve_column",
    "resolve_group_columns",
    "status_matches",
    "stream_aggregate",
    "aggregate_result_set",
    "filter_result_set",
]

#: CLI-friendly shorthands for the most-asked-about columns.
COLUMN_ALIASES = {
    "rounds": "completion_round",
    "acks": "acknowledgement_round",
    "bits": "total_message_bits",
}

#: Columns :func:`compute_stats` accepts (ints and optional ints).
NUMERIC_COLUMNS = tuple(METRIC_INT_FIELDS) + tuple(METRIC_OPTIONAL_INT_FIELDS)

#: Bootstrap resamples behind ``ci=True``.
BOOTSTRAP_RESAMPLES = 200


def resolve_column(name: str, *, numeric: bool = True) -> str:
    """Canonical column name for ``name`` (aliases allowed); raises KeyError."""
    resolved = COLUMN_ALIASES.get(name, name)
    allowed = NUMERIC_COLUMNS if numeric else METRIC_FIELDS
    if resolved not in allowed:
        kind = "numeric column" if numeric else "column"
        raise KeyError(
            f"unknown {kind} {name!r}; choose from {sorted(allowed)} "
            f"(aliases: {COLUMN_ALIASES})"
        )
    return resolved


def resolve_group_columns(spec: Union[str, Sequence[str], None]) -> Tuple[str, ...]:
    """Normalize a ``--by`` spec (``"scheme,n"`` or a sequence) to column names."""
    if not spec:
        return ()
    names = spec.split(",") if isinstance(spec, str) else list(spec)
    return tuple(
        resolve_column(name.strip(), numeric=False)
        for name in names if name.strip()
    )


def status_matches(value: str, wanted: str) -> bool:
    """Whether a row's status matches a filter value.

    A bare class like ``error`` matches every ``error:...`` tag (prefix
    semantics); a full string like ``error:ValueError`` — or ``ok`` — still
    matches exactly.
    """
    return value == wanted or value.startswith(wanted + ":")


def compute_stats(
    values: np.ndarray,
    *,
    ci: bool = False,
    seed: int = 0,
) -> Dict[str, float]:
    """Summary statistics of a 1-D numeric array (the shared kernel).

    Returns ``count``/``mean``/``std``/``min``/``p05``/``median``/``p95``/
    ``max`` — every statistic NaN when the array is empty (``count=0``),
    which is how an all-``None`` optional column aggregates without tripping
    on an empty percentile input.  With ``ci=True`` a seeded bootstrap over
    the mean adds ``ci95_low``/``ci95_high`` (:data:`BOOTSTRAP_RESAMPLES`
    resamples).  The values are sorted first, so every statistic is the same
    for any order of the same values.
    """
    values = np.sort(np.asarray(values))
    if values.size == 0:
        nan = float("nan")
        out: Dict[str, float] = {
            "count": 0, "mean": nan, "std": nan, "min": nan,
            "p05": nan, "median": nan, "p95": nan, "max": nan,
        }
        if ci:
            out["ci95_low"] = out["ci95_high"] = nan
        return out
    p05, median, p95 = np.percentile(values, (5.0, 50.0, 95.0))
    out = {
        "count": int(values.size),
        "mean": float(values.mean()),
        "std": float(values.std()),
        "min": float(values.min()),
        "p05": float(p05),
        "median": float(median),
        "p95": float(p95),
        "max": float(values.max()),
    }
    if ci:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, values.size,
                           size=(BOOTSTRAP_RESAMPLES, values.size))
        means = values[idx].mean(axis=1)
        low, high = np.percentile(means, (2.5, 97.5))
        out["ci95_low"] = float(low)
        out["ci95_high"] = float(high)
    return out


def _group_order(key: Tuple) -> Tuple:
    """Sort key of a group key tuple: by value, missing cells (``None``/NaN) last.

    Every grouping column holds one type, so the values compare; a missing
    cell sorts after every present one.
    """
    return tuple((True, 0) if v is None or v != v else (False, v) for v in key)


class StreamAggregator:
    """Accumulate one numeric column, grouped, from a stream of row dicts.

    Memory is O(groups + values of the aggregated column): the group keys and
    the aggregated values are retained (percentiles are exact, not sketched),
    every other column of every row is dropped on sight.  Groups report in
    sorted key order (see :func:`_group_order`).
    """

    def __init__(
        self,
        column: str,
        by: Sequence[str] = (),
        *,
        ci: bool = False,
        seed: int = 0,
    ) -> None:
        self.column = resolve_column(column)
        self.by = tuple(resolve_column(b, numeric=False) for b in by)
        self.ci = bool(ci)
        self.seed = int(seed)
        self.rows_seen = 0
        self._groups: Dict[Tuple, List[int]] = {}

    def add(self, row: Mapping[str, Any]) -> None:
        """Fold one row dict (``None`` cells of the column are skipped)."""
        self.rows_seen += 1
        key = tuple(row.get(b) for b in self.by)
        bucket = self._groups.get(key)
        if bucket is None:
            bucket = self._groups[key] = []
        value = row.get(self.column)
        if value is not None:
            bucket.append(value)

    def result(self) -> List[Dict[str, Any]]:
        """Per-group stats, key order: ``[{"by": {...}, "stats": {...}}]``."""
        out = []
        for key in sorted(self._groups, key=_group_order):
            values = self._groups[key]
            array = np.asarray(values, dtype=np.int64) if values else \
                np.empty(0, dtype=np.int64)
            out.append({
                "by": dict(zip(self.by, key)),
                "stats": compute_stats(array, ci=self.ci, seed=self.seed),
            })
        return out


def stream_aggregate(
    rows: Iterable[Mapping[str, Any]],
    column: str,
    by: Sequence[str] = (),
    *,
    ci: bool = False,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """One-pass groupby/aggregate over an iterable of row dicts.

    ``rows`` may be plain row dicts or full store documents (anything with a
    ``"row"`` key is unwrapped), so ``stream_aggregate(store.iter_docs(), ...)``
    works directly.
    """
    agg = StreamAggregator(column, by, ci=ci, seed=seed)
    for row in rows:
        inner = row.get("row")
        agg.add(inner if isinstance(inner, Mapping) else row)
    return agg.result()


def aggregate_result_set(
    rows: Any,
    column: str,
    by: Sequence[str] = (),
    *,
    ci: bool = False,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Groupby/aggregate a :class:`~repro.store.ResultSet` (the eager twin).

    Touches only the ``by`` columns and the aggregated column — against a
    lazy columnar-backed result set this reads exactly those column blocks.
    Output shape, group order and numbers match :func:`stream_aggregate`
    over the same rows, in any order.
    """
    column = resolve_column(column)
    by = tuple(resolve_column(b, numeric=False) for b in by)
    if by:
        groups = rows.groupby(*by)
        items = [
            (key if len(by) > 1 else (key,), sub) for key, sub in groups.items()
        ]
    else:
        items = [((), rows)]
    items.sort(key=lambda item: _group_order(item[0]))
    return [
        {"by": dict(zip(by, key)),
         "stats": sub.aggregate(column, ci=ci, seed=seed)}
        for key, sub in items
    ]


def filter_result_set(
    rows: Any,
    *,
    schemes: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
    sizes: Optional[Sequence[int]] = None,
    status: Optional[str] = None,
) -> Any:
    """The service/CLI row filters, vectorized over a ResultSet.

    Column-only: no row materialization, so a lazy columnar set stays lazy in
    every untouched column.  ``status`` uses :func:`status_matches` semantics
    (``error`` is a prefix class).
    """
    keep = np.ones(len(rows), dtype=bool)
    if schemes:
        keep &= np.isin(rows.column("scheme"), list(schemes))
    if families:
        keep &= np.isin(rows.column("family"), list(families))
    if sizes:
        keep &= np.isin(rows.column("n"), [int(s) for s in sizes])
    if status:
        col = rows.column("status")
        keep &= (col == status) | np.char.startswith(col, status + ":")
    return rows.where(keep)
