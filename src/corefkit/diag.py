"""Shared diagnostic record for lossy operations (decode, clean, reindex, pipeline)."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Diagnostic:
    """One recoverable anomaly: where it happened, what was done about it."""

    stage: str
    message: str
    position: int | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False, sort_keys=True)
