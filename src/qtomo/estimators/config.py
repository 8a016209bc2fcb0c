"""Shared estimator configuration; SqueezeParams is re-exported from operators."""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from ..errors import InvalidSpecError
from ..operators import SqueezeParams

__all__ = ["EstimatorConfig", "SqueezeParams"]


@dataclasses.dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by the kernel estimators and samplers.

    k_max and reg_eps set the homodyne kernel's frequency cutoff and
    regularization. proposal_radius left at None resolves to 2 + sqrt(dim-1),
    the parity proposal disk. The exact-average oracles size their own
    grids from dim, and the Glauber check takes its grid as arguments.
    """

    dim: int
    k_max: float = 40.0
    reg_eps: float = 1e-3
    proposal_radius: Optional[float] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidSpecError(f"dim must be >= 1, got {self.dim}")
        for name in ("k_max", "reg_eps", "proposal_radius"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidSpecError(f"{name} must be finite, got {value}")
        if not self.k_max > 0:
            raise InvalidSpecError(f"k_max must be > 0, got {self.k_max}")
        if not self.reg_eps > 0:
            raise InvalidSpecError(f"reg_eps must be > 0, got {self.reg_eps}")
        if self.proposal_radius is not None and not self.proposal_radius > 0:
            raise InvalidSpecError(f"proposal_radius must be > 0, got {self.proposal_radius}")

    def parity_radius(self) -> float:
        if self.proposal_radius is None:
            return 2.0 + math.sqrt(self.dim - 1)
        return self.proposal_radius
