"""Aggregate collected AXp's into per-feature attribution vectors.

The plain attribution of a feature is the fraction of collected AXp's that
contain it; the weighted variant averages inverse explanation sizes instead,
so shorter explanations count for more and the weighted vector always sums to
one. Attribution over zero collected explanations is an explicit error state,
never a silent zero vector: anytime runs can legitimately hold an empty
collection early on, and that is different from the all-zero vector of a
domain-constant prediction (whose single explanation is the empty set).
"""

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ContractError,
    DegenerateExplanationError,
    UndefinedAttributionError,
)
from .enumeration import EnumerationReport

FFA = "ffa"
WFFA = "wffa"


@dataclass(frozen=True)
class AttributionVector:
    """Per-feature weights plus provenance (what produced them, from how many
    explanations, and whether that collection was complete)."""

    values: tuple[float, ...]
    source: str  # "ffa" | "wffa" | "external:<name>"
    basis: int = 0
    complete: bool = False

    @property
    def m(self) -> int:
        return len(self.values)


def _checked_axps(axps: Iterable[frozenset[int]], m: int) -> list[frozenset[int]]:
    """The collection as a list, after checking it is non-empty and inside 0..m-1."""
    axps = [frozenset(s) for s in axps]
    if not axps:
        raise UndefinedAttributionError("attribution over zero explanations is undefined")
    for s in axps:
        if not all(0 <= fid < m for fid in s):
            raise ContractError(f"explanation {sorted(s)} outside feature range 0..{m - 1}")
    return axps


def ffa(axps: Iterable[frozenset[int]], m: int, complete: bool = False) -> AttributionVector:
    """Occurrence fraction per feature over the collected AXp's."""
    axps = _checked_axps(axps, m)
    counts = [0] * m
    for s in axps:
        for fid in s:
            counts[fid] += 1
    n = len(axps)
    return AttributionVector(
        values=tuple(count / n for count in counts),
        source=FFA,
        basis=n,
        complete=complete,
    )


def wffa(axps: Iterable[frozenset[int]], m: int, complete: bool = False) -> AttributionVector:
    """Inverse-size-weighted occurrence per feature; sums to 1 over features."""
    axps = _checked_axps(axps, m)
    if any(len(s) == 0 for s in axps):
        raise DegenerateExplanationError(
            "weighted attribution divides by explanation size; got an empty explanation"
        )
    n = len(axps)
    # fsum is exactly rounded, so the result is independent of collection order
    values = tuple(
        math.fsum(1.0 / len(s) for s in axps if fid in s) / n for fid in range(m)
    )
    return AttributionVector(values=values, source=WFFA, basis=n, complete=complete)


def conversion_check(
    ffa_vec: AttributionVector,
    wffa_vec: AttributionVector,
    axps: Iterable[frozenset[int]],
    tolerance: float = 1e-9,
) -> bool:
    """Both scales describe the same collection: the unweighted total equals
    the mean explanation size times the weighted total."""
    axps = [frozenset(s) for s in axps]
    if not axps:
        raise UndefinedAttributionError("conversion is undefined for an empty collection")
    mean_size = math.fsum(len(s) for s in axps) / len(axps)
    lhs = math.fsum(ffa_vec.values)
    rhs = mean_size * math.fsum(wffa_vec.values)
    return abs(lhs - rhs) <= tolerance


def manhattan(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise ContractError(f"length mismatch: {len(a)} vs {len(b)}")
    return math.fsum(abs(x - y) for x, y in zip(a, b))


def convergence_series(
    report: EnumerationReport,
    exact: AttributionVector,
    checkpoints: Sequence[float],
) -> list[tuple[float, float | None]]:
    """Attribution error at each budget mark, from the AXp prefix known by then.

    For each mark t the attribution is recomputed over the AXp's whose
    discovery time is <= t and compared to the reference with the Manhattan
    distance; while that prefix is empty the error is undefined (None).
    """
    m = exact.m
    out: list[tuple[float, float | None]] = []
    for mark in checkpoints:
        prefix = [e.features for e in report.axps if e.discovery_time <= mark]
        if not prefix:
            out.append((mark, None))
            continue
        approx = ffa(prefix, m)
        out.append((mark, manhattan(approx.values, exact.values)))
    return out
