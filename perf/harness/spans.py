"""The benchmark's own span recorder.

Spans are recorded from the benchmark's side of each layer's public
functions, kept in memory while the run measures, and written out as JSONL
when it ends.  One request's spans share a ``trace`` id; a span's ``parent``
is the span that caused it; a span's self time is its duration minus the
part of that interval its children cover.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Slack for float rounding when checking that a child lies inside its parent.
_EPS = 1e-6


class SpanRecorder:
    """Append-only, in-memory span store (one per traced run)."""

    def __init__(self) -> None:
        # (name, layer, start_s, end_s, parent_id | None, trace_id)
        self._rows: list[tuple[str, str, float, float, int | None, int]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def add(
        self,
        name: str,
        layer: str,
        start_s: float,
        end_s: float,
        parent: int | None,
        trace: int,
    ) -> int:
        """Record one finished span and return its id."""
        self._rows.append((name, layer, start_s, end_s, parent, trace))
        return len(self._rows) - 1

    # -- analysis (after the measured window) ---------------------------------
    def _children(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = {}
        for span_id, row in enumerate(self._rows):
            if row[4] is not None:
                children.setdefault(row[4], []).append(span_id)
        return children

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of child intervals."""
        children = self._children()
        result = []
        for span_id, (_, _, start, end, _, _) in enumerate(self._rows):
            covered = 0.0
            cursor = start
            for lo, hi in sorted(
                (max(self._rows[c][2], start), min(self._rows[c][3], end))
                for c in children.get(span_id, ())
            ):
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result.append((end - start) - covered)
        return result

    def check_parenting(self) -> bool:
        """Every child shares its parent's trace and lies inside its interval."""
        for _, _, start, end, parent, trace in self._rows:
            if end < start - _EPS:
                return False
            if parent is None:
                continue
            if not 0 <= parent < len(self._rows):
                return False
            _, _, p_start, p_end, _, p_trace = self._rows[parent]
            if trace != p_trace or start < p_start - _EPS or end > p_end + _EPS:
                return False
        return True

    def total(self, name: str) -> tuple[float, int]:
        """Summed duration and count of the spans called ``name``."""
        total, count = 0.0, 0
        for row in self._rows:
            if row[0] == name:
                total += row[3] - row[2]
                count += 1
        return total, count

    def root_self_share(self, root_name: str) -> float:
        """Summed self time of ``root_name`` spans over their summed duration."""
        self_times = self.self_times()
        own, whole = 0.0, 0.0
        for span_id, row in enumerate(self._rows):
            if row[0] == root_name and row[4] is None:
                own += self_times[span_id]
                whole += row[3] - row[2]
        return own / whole if whole > 0 else 0.0

    def write_jsonl(self, path: Path) -> None:
        """One span per line, times relative to the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((row[2] for row in self._rows), default=0.0)
        self_times = self.self_times()
        with path.open("w", encoding="utf-8") as handle:
            for span_id, (name, layer, start, end, parent, trace) in enumerate(self._rows):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "trace": trace,
                            "name": name,
                            "layer": layer,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "self_s": self_times[span_id],
                        }
                    )
                    + "\n"
                )
