"""Verdict vocabulary and JSON encoding shared by all property checkers.

A finite computation can refute an infinite-dimensional property or exhibit
a witness, but never verify one outright; the status vocabulary encodes
that honestly.  Every refutation or witness carries exact values that
re-validate in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any

from .spaces import format_rational

VERIFIED = "verified-on-samples"
REFUTED = "refuted"
WITNESS_FOUND = "witness-found"
INCONCLUSIVE = "inconclusive"

STATUSES = (VERIFIED, REFUTED, WITNESS_FOUND, INCONCLUSIVE)


def to_jsonable(value: Any) -> Any:
    """Recursively convert verdict payloads to JSON-serializable values.

    Rationals become "p/q" strings, the infinity sentinels become "+inf"
    and "-inf", domain objects use their own schemas.
    """
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        if value == math.inf:
            return "+inf"
        if value == -math.inf:
            return "-inf"
        raise TypeError("finite floats are not exact; refuse to serialize")
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


@dataclass(frozen=True)
class PropertyVerdict:
    """Result of one property check.

    ``witnesses`` is a tuple of dicts holding the exact points and values
    that make the verdict re-checkable; ``stats`` carries counts and
    extremes.
    """

    status: str
    witnesses: tuple = ()
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
