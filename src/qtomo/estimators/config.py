"""Shared estimator configuration; SqueezeParams is re-exported from operators."""

from __future__ import annotations

import dataclasses
import math

from ..errors import GridError, InvalidSpecError
from ..operators import SqueezeParams

__all__ = ["EstimatorConfig", "SqueezeParams"]


@dataclasses.dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by the kernel estimators and samplers.

    Grid fields left at 0 resolve to per-family defaults:
      phi_grid_points   -> 4*dim+1 (homodyne exact average), 2*dim+1 (Kerr)
      psi_grid_points   -> 2*dim^2+1 (Kerr)
      proposal_radius   -> 2 + sqrt(dim-1) (parity disk)
    Family minimums are enforced where the grid is consumed, since the
    same config object may serve several families at once.
    """

    dim: int
    k_max: float = 40.0
    reg_eps: float = 1e-3
    phi_grid_points: int = 0
    psi_grid_points: int = 0
    alpha_grid_points: int = 41
    alpha_max: float = 4.0
    sphere_polar_points: int = 0
    sphere_azimuth_points: int = 0
    proposal_radius: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidSpecError(f"dim must be >= 1, got {self.dim}")
        for name in ("k_max", "reg_eps", "alpha_max", "proposal_radius"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.k_max > 0:
            raise InvalidSpecError(f"k_max must be > 0, got {self.k_max}")
        if not self.reg_eps > 0:
            raise InvalidSpecError(f"reg_eps must be > 0, got {self.reg_eps}")
        for name in ("phi_grid_points", "psi_grid_points", "sphere_polar_points",
                     "sphere_azimuth_points"):
            if getattr(self, name) < 0:
                raise InvalidSpecError(f"{name} must be >= 0")
        if self.alpha_grid_points < 2:
            raise InvalidSpecError("alpha_grid_points must be >= 2")
        if not self.alpha_max > 0:
            raise InvalidSpecError("alpha_max must be > 0")
        if self.proposal_radius < 0:
            raise InvalidSpecError("proposal_radius must be >= 0")

    # resolved per-family grids -------------------------------------------

    def homodyne_phi_points(self) -> int:
        return self.phi_grid_points if self.phi_grid_points else 4 * self.dim + 1

    def kerr_phi_points(self) -> int:
        n = self.phi_grid_points if self.phi_grid_points else 2 * self.dim + 1
        if n < 2 * self.dim + 1:
            raise GridError(f"Kerr phase grid needs >= {2 * self.dim + 1} points, got {n}")
        return n

    def kerr_psi_points(self) -> int:
        need = 2 * self.dim**2 + 1
        n = self.psi_grid_points if self.psi_grid_points else need
        if n < need:
            raise GridError(f"Kerr shift grid needs >= {need} points, got {n}")
        return n

    def parity_radius(self) -> float:
        return self.proposal_radius if self.proposal_radius else 2.0 + math.sqrt(self.dim - 1)
