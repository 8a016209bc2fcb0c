"""Measurement records in columnar form, the table of quorum families, and their average.

A RecordBatch holds N records of one family as two float64 arrays, the
settings (N, k) and the outcomes (N,). It is validated once, when it is
built, against the family's entry in FAMILIES, so the estimators, the
reconstruction and the CSV writer read the arrays as they are.

Every estimate is an ensemble average over records, taken by walk in
chunks through a single count/mean/M2 accumulator so that partitioned
streams merge exactly; the merge is associative. For complex kernels M2
tracks the total squared deviation |x - mean|^2, whose normalized value
is the variance of the real part plus the variance of the imaginary part.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InvalidSpecError, UsageError

__all__ = ["Family", "FAMILIES", "RecordBatch", "EstimationResult", "Accumulator",
           "estimate", "walk"]


class Family(NamedTuple):
    """Setting arity of a family, and the only values its columns may hold (None: any finite)."""

    arity: int
    settings: Optional[Tuple[float, ...]] = None
    outcomes: Optional[Tuple[float, ...]] = None
    # The power of d - 1 by which the first setting and the outcome (None: neither) multiply
    # in the kernel phases at dimension d, so that sum |column| (d - 1)^power is the largest
    phase: Tuple[Optional[int], Optional[int]] = (None, None)


FAMILIES = {
    "homodyne": Family(1, phase=(1, None)),  # phase phi; quadrature q; kernel phi (k - n)
    "spin": Family(3),  # direction n; eigenvalue m of S.n, in a range the estimators check
    "pauli": Family(1, settings=(0.0, 1.0, 2.0), outcomes=(-0.5, 0.5)),  # axis x, y, z; +-1/2
    "parity": Family(2, outcomes=(-1.0, 1.0)),  # displacement (Re b, Im b); parity +-1
    # Kerr strength psi; measured phase phi; kernel psi (b^2 - a^2) + phi (b - a)
    "kerr": Family(1, phase=(2, 1)),
}


@dataclasses.dataclass(frozen=True, eq=False)
class RecordBatch:
    """N records of one quorum family: settings (N, k) and outcomes (N,).

    The constructor copies both arrays to read-only float64 and raises
    InvalidSpecError unless the family is known, k is its arity, and
    every value is finite and inside the family's allowed set. Two
    batches are equal when their quorum and the bits of their arrays are.
    """

    quorum: str
    settings: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        family = FAMILIES.get(self.quorum)
        if family is None:
            raise InvalidSpecError(
                f"unknown quorum {self.quorum!r}; known families: {', '.join(FAMILIES)}"
            )
        settings = np.array(self.settings, dtype=np.float64)
        outcomes = np.array(self.outcomes, dtype=np.float64)
        if (settings.ndim != 2 or settings.shape[1] != family.arity
                or outcomes.shape != settings.shape[:1]):
            raise InvalidSpecError(
                f"{self.quorum} records need settings of shape (N, {family.arity}) and "
                f"outcomes of shape (N,); got {settings.shape} and {outcomes.shape}"
            )
        for column, values, allowed in (("setting", settings, family.settings),
                                        ("outcome", outcomes, family.outcomes)):
            bad = ~np.isfinite(values) if allowed is None else ~np.isin(values, allowed)
            if bad.any():
                i = int(np.flatnonzero(bad.reshape(len(values), -1).any(axis=1))[0])
                raise InvalidSpecError(
                    f"{self.quorum} record {i}: {column} {values[i].tolist()} must be "
                    + ("finite" if allowed is None else f"one of {allowed}")
                )
            values.setflags(write=False)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return (self.quorum == other.quorum
                and self.settings.shape == other.settings.shape
                and np.array_equal(self.settings.view(np.int64), other.settings.view(np.int64))
                and np.array_equal(self.outcomes.view(np.int64), other.outcomes.view(np.int64)))

    def require(self, quorum: str, at_least: int = 1, dim: int = 1) -> None:
        """Raise UsageError unless these are at least at_least records of the family quorum
        and, at working dimension dim, the largest kernel phase of each is finite."""
        if self.quorum != quorum:
            raise UsageError(
                f"records carry quorum '{self.quorum}' but the method expects '{quorum}'"
            )
        if len(self) < at_least:
            raise UsageError(f"need at least {at_least} {quorum} records, got {len(self)}")
        columns = (self.settings[:, 0], self.outcomes)
        with np.errstate(over="ignore"):  # the overflow is the fault reported
            phase = sum(np.abs(c) * float(dim - 1) ** p
                        for c, p in zip(columns, FAMILIES[quorum].phase) if p is not None)
        bad = np.flatnonzero(~np.isfinite(phase))
        if bad.size:
            i = int(bad[0])
            raise InvalidSpecError(
                f"{quorum} record {i}: setting {self.settings[i].tolist()} and outcome "
                f"{self.outcomes[i].tolist()} overflow the kernel phase at dimension {dim}")


@dataclasses.dataclass(frozen=True)
class EstimationResult:
    mean: complex
    std_error: float
    n_samples: int


class Accumulator:
    """Single-pass mean/M2 accumulation over complex values, mergeable."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0j
        self.m2 = 0.0

    def push(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=complex).ravel()
        if v.size == 0:
            return
        cm = complex(v.mean())
        cm2 = float(np.sum(np.abs(v - cm) ** 2))
        self._combine(v.size, cm, cm2)

    def merge(self, other: "Accumulator") -> None:
        self._combine(other.n, other.mean, other.m2)

    def _combine(self, n2: int, mean2: complex, m2_2: float) -> None:
        if n2 == 0:
            return
        n1 = self.n
        n = n1 + n2
        delta = mean2 - self.mean
        self.mean += delta * (n2 / n)
        self.m2 += m2_2 + abs(delta) ** 2 * (n1 * n2 / n)
        self.n = n

    def result(self) -> EstimationResult:
        if self.n < 2:
            raise UsageError("need at least 2 values for a standard error")
        var = max(self.m2, 0.0) / (self.n - 1)
        return EstimationResult(
            mean=complex(self.mean),
            std_error=math.sqrt(var / self.n),
            n_samples=self.n,
        )


def estimate(values: np.ndarray) -> EstimationResult:
    """Ensemble average of per-record kernel values, with its standard error."""
    if len(values) < 2:
        raise UsageError("estimate needs at least 2 records")
    acc = Accumulator()
    acc.push(values)
    return acc.result()


def walk(records: RecordBatch, values: Callable, columns: Optional[int] = None,
         step: int = 1 << 16) -> List[EstimationResult]:
    """Averages of values(settings, outcomes) over the records, in chunks of step records.

    values returns the kernel values of one chunk's records, an array of
    shape (n,); with columns given, a sequence of that many such arrays,
    one per average. Each array is one Accumulator push; one result comes
    back per average.
    """
    accs = [Accumulator() for _ in range(1 if columns is None else columns)]
    for lo in range(0, len(records), step):
        chunk = values(records.settings[lo : lo + step], records.outcomes[lo : lo + step])
        for acc, column in zip(accs, (chunk,) if columns is None else chunk):
            acc.push(column)
    return [acc.result() for acc in accs]
