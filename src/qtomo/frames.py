"""Liouville-space view of operator families.

A spanning set {C_x} with positive weights w_x realizes the measure of a
tomographic resolution sum. A spanning set is one (K, d, d) stack with K
weights and labels. Operators are vectorized row-major; the inner
product on the vectorized space is then exactly the Hilbert-Schmidt one,
so frame checks reduce to small dense linear algebra on (d^2 x |X|)
stacks.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError, InvalidSpecError
from .operators import Operator, hs_norm

__all__ = [
    "SettingLabel",
    "SpanningSet",
    "DualSet",
    "FrameReport",
    "RankReport",
    "check_biorthogonality",
    "check_trace_condition",
    "irreducibility_rank",
    "null_operator_test",
    "superop_matrix_elements",
    "superop_reassemble",
    "default_kernel_matrix",
]


@dataclasses.dataclass(frozen=True, slots=True)
class SettingLabel:
    """Identifies one measurement setting inside a named quorum family."""

    quorum: str
    coords: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))


class SpanningSet:
    """An ordered, weighted operator family on one Hilbert space: read-only copies
    of its (K, d, d) stack, its K weights and its K labels, checked here only."""

    def __init__(self, ops, weights, labels: Sequence[SettingLabel]):
        ops = np.array(ops, dtype=complex)
        weights = np.array(weights, dtype=float)
        labels = tuple(labels)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or 0 in ops.shape:
            raise InvalidSpecError(
                f"spanning set needs a (K, d, d) stack with K, d >= 1, got shape {ops.shape}")
        if weights.shape != (len(ops),) or len(labels) != len(ops):
            raise DimensionMismatchError(
                f"{len(ops)} elements need as many weights and labels, got "
                f"{weights.size} and {len(labels)}")
        if not np.all(np.isfinite(ops)):
            raise InvalidSpecError("spanning set entries must be finite")
        bad = np.flatnonzero(~((weights > 0) & (weights < np.inf)))  # also catches nan
        if bad.size:
            raise InvalidSpecError(f"frame weight of element {labels[bad[0]]} must be finite "
                                   f"and > 0, got {weights[bad[0]]}")
        ops.setflags(write=False)
        weights.setflags(write=False)
        self.ops, self.weights, self.labels = ops, weights, labels

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    def __len__(self) -> int:
        return len(self.ops)

    def stack(self) -> np.ndarray:
        """(|X|, d^2) array of row-major vectorized elements."""
        return self.ops.reshape(len(self), -1)


class DualSet(SpanningSet):
    """Partner family B_x; aligned one-to-one with a SpanningSet.

    Normalization convention: a valid dual satisfies
    sum_x w_x |C_x><B_x| = identity on Liouville space, i.e. the weights
    stay outside the dual elements. For an unweighted basis this is the
    plain bi-orthogonality hs_inner(B_m, C_n) = delta_mn.
    """


def _check_paired(s: SpanningSet, b: DualSet) -> None:
    if s.dim != b.dim:
        raise DimensionMismatchError(f"set dim {s.dim} vs dual dim {b.dim}")
    if len(s) != len(b):
        raise DimensionMismatchError(f"set size {len(s)} vs dual size {len(b)}")
    drift = np.abs(s.weights - b.weights) > 1e-12 * np.maximum(1.0, s.weights)
    if s.labels != b.labels or np.any(drift):
        raise InvalidSpecError("dual elements do not pair with the set's labels and weights")


@dataclasses.dataclass(frozen=True)
class FrameReport:
    max_violation: float
    passed: bool
    verdict: str = ""


@dataclasses.dataclass(frozen=True)
class RankReport:
    rank: int
    irreducible: bool


def check_biorthogonality(s: SpanningSet, b: DualSet, tol: float = 1e-10) -> FrameReport:
    """Does sum_x w_x |C_x><B_x| equal the identity superoperator?"""
    _check_paired(s, b)
    c_stack = s.stack()
    b_stack = b.stack()
    w = s.weights
    # (d^2 x d^2) resolution operator; identity iff the dual is exact
    m = (w[:, None] * c_stack).T @ b_stack.conj()
    dev = float(np.max(np.abs(m - np.eye(s.dim**2))))
    return FrameReport(max_violation=dev, passed=dev <= tol)


def irreducibility_rank(s: SpanningSet) -> RankReport:
    """Rank of the vectorized family; irreducible iff it spans Liouville space."""
    mat = s.stack().T  # d^2 x |X|
    rank = int(np.linalg.matrix_rank(mat))
    return RankReport(rank=rank, irreducible=rank == s.dim**2)


def default_kernel_matrix(s: SpanningSet) -> np.ndarray:
    """K_xy = delta_xy / w_x, the kernel of a weighted orthogonal family."""
    return np.diag(1.0 / s.weights).astype(complex)


def check_trace_condition(
    s: SpanningSet, b: DualSet, kernel: np.ndarray | None = None, tol: float = 1e-10
) -> FrameReport:
    """Verify Tr[B_x^dag C_y] = K_xy plus both reproducing properties.

    The trace condition alone does not certify a quorum: a reducible set
    can satisfy it with a degenerate kernel. The verdict string calls that
    case out instead of passing it.
    """
    _check_paired(s, b)
    k = default_kernel_matrix(s) if kernel is None else np.asarray(kernel, dtype=complex)
    nx = len(s)
    if k.shape != (nx, nx):
        raise DimensionMismatchError(f"kernel shape {k.shape}, expected ({nx},{nx})")
    c_stack = s.stack()
    b_stack = b.stack()
    w = s.weights

    gram = b_stack.conj() @ c_stack.T  # gram[x,y] = Tr[B_x^dag C_y]
    dev_trace = float(np.max(np.abs(gram - k)))
    # kernel must reproduce both families under the measure
    c_rec = (w[:, None] * k).T @ c_stack
    dev_c = float(np.max(np.abs(c_rec - c_stack)))
    b_rec = (k.conj() * w[None, :]) @ b_stack
    dev_b = float(np.max(np.abs(b_rec - b_stack)))

    dev = max(dev_trace, dev_c, dev_b)
    rank = irreducibility_rank(s)
    if dev > tol:
        return FrameReport(dev, False, "trace condition violated")
    if not rank.irreducible:
        return FrameReport(dev, False, "trace condition holds but set reducible")
    return FrameReport(dev, True, "pass")


def null_operator_test(s: SpanningSet, op: Operator, tol: float = 1e-10) -> bool:
    """Quorum sanity probe from the identity-resolution argument.

    If op fails to be orthogonal to every C_x the premise is empty and the
    test passes vacuously. If op is orthogonal to the whole family, a true
    quorum forces op = 0; return whether that holds.
    """
    if op.dim != s.dim:
        raise DimensionMismatchError(f"operator dim {op.dim} vs set dim {s.dim}")
    o_norm = hs_norm(op)
    c_stack = s.stack()
    overlaps = np.abs(c_stack.conj() @ op.mat.reshape(-1))
    scales = np.linalg.norm(c_stack, axis=1) * max(o_norm, 1.0)
    if np.any(overlaps > tol * np.maximum(scales, 1.0)):
        return True  # premise not met, nothing to refute
    return o_norm <= tol


def superop_matrix_elements(lmat: np.ndarray, s: SpanningSet, b: DualSet) -> np.ndarray:
    """Coefficient table coef[x,y] = <B_x| L |C_y> for a d^2 x d^2 map."""
    _check_paired(s, b)
    d2 = s.dim**2
    lmat = np.asarray(lmat, dtype=complex)
    if lmat.shape != (d2, d2):
        raise DimensionMismatchError(f"superoperator shape {lmat.shape}, expected ({d2},{d2})")
    return b.stack().conj() @ lmat @ s.stack().T


def superop_reassemble(coef: np.ndarray, s: SpanningSet, b: DualSet) -> np.ndarray:
    """Rebuild the map: L = sum_xy w_x w_y |C_x> coef[x,y] <B_y|."""
    _check_paired(s, b)
    w = s.weights
    c_stack = s.stack()
    b_stack = b.stack()
    return (w[:, None] * c_stack).T @ coef @ (w[:, None] * b_stack).conj()
