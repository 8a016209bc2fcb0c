"""Constructive dual sets: Gram-Schmidt recursion and a frame-operator oracle.

Both constructors return duals in the weighted normalization of DualSet
(sum_x w_x |C_x><B_x| = identity). On a basis the dual is unique, so the
two routes must agree to roundoff; that cross-check is the main defense
against index bugs in either one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidSpecError, RankDeficientError
from .frames import DualSet, SettingLabel, SpanningSet, irreducibility_rank

__all__ = [
    "GramSchmidtTrace",
    "gram_schmidt_dual",
    "pseudoinverse_dual",
    "weigert_spin_quorum",
    "spiral_directions",
]

# element rejected as dependent when its orthogonal remainder shrinks below this
_INDEPENDENCE_RTOL = 1e-10


@dataclasses.dataclass(frozen=True)
class GramSchmidtTrace:
    """Intermediate products of the orthogonalization, kept for diagnostics."""

    normalizers: np.ndarray  # (K,)
    orthonormal: np.ndarray  # (K, d, d)


def gram_schmidt_dual(s: SpanningSet) -> Tuple[DualSet, GramSchmidtTrace]:
    """Dual of an operator basis via orthogonalization.

    Requires exactly dim^2 independent elements. The recursion is realized
    as one QR factorization C^T = Q R, phased so that diag R > 0: the
    columns of Q are the Gram-Schmidt orthonormal set and diag R its
    normalizers, which gives the same dual as the literal series.
    """
    d = s.dim
    if len(s) != d * d:
        raise InvalidSpecError(f"need exactly {d * d} elements for a basis, got {len(s)}")

    c_stack = s.stack()  # K x d^2
    q, r = np.linalg.qr(c_stack.T)
    diag = np.abs(np.diagonal(r))
    c_norms = np.linalg.norm(c_stack, axis=1)
    for i, label in enumerate(s.labels):
        if c_norms[i] == 0.0:
            raise RankDeficientError(f"element {i} is the zero operator")
        if diag[i] < _INDEPENDENCE_RTOL * c_norms[i]:
            raise RankDeficientError(f"element {i} ({label}) is dependent on its predecessors")
    phase = np.diagonal(r) / diag
    q = q * phase[None, :]
    r = r / phase[:, None]

    # plain dual: rows of inv(R)^* Q^T satisfy <B_m, C_n> = delta_mn
    b_plain = np.linalg.solve(r.conj(), q.T)  # K x d^2, row m = vec(plain B_m)
    dual = DualSet((b_plain / s.weights[:, None]).reshape(-1, d, d), s.weights, s.labels)
    return dual, GramSchmidtTrace(normalizers=diag, orthonormal=q.T.reshape(-1, d, d))


def pseudoinverse_dual(s: SpanningSet) -> DualSet:
    """Canonical dual from inverting the frame operator; allows overcompleteness."""
    rank = irreducibility_rank(s)
    if not rank.irreducible:
        raise RankDeficientError(
            f"set spans rank {rank.rank} < {s.dim ** 2}; no dual exists"
        )
    c_stack = s.stack()
    w = s.weights
    frame_op = (w[:, None] * c_stack).T @ c_stack.conj()
    b_stack = np.linalg.solve(frame_op, c_stack.T).T
    return DualSet(b_stack.reshape(-1, s.dim, s.dim), w, s.labels)


def weigert_spin_quorum(twice_s: int, directions: Sequence[Sequence[float]]) -> SpanningSet:
    """Projectors onto the top S.n eigenstate along (2s+1)^2 directions, unit weights."""
    from .operators import spin_component  # local import keeps module load light

    d = twice_s + 1
    need = d * d
    dirs = [tuple(float(x) for x in v) for v in directions]
    if len(dirs) != need:
        raise InvalidSpecError(f"spin s={twice_s/2} needs {need} directions, got {len(dirs)}")
    tops = [np.linalg.eigh(spin_component(twice_s, nvec).mat)[1][:, -1] for nvec in dirs]
    projectors = [np.outer(top, top.conj()) for top in tops]
    return SpanningSet(projectors, np.ones(need), [SettingLabel("weigert", n) for n in dirs])


def spiral_directions(count: int) -> List[Tuple[float, float, float]]:
    """Generic well-spread unit vectors from a golden-angle spiral."""
    if count < 1:
        raise InvalidSpecError("direction count must be >= 1")
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(count):
        z = 1.0 - 2.0 * (i + 0.5) / count
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        th = golden * i
        out.append((rho * math.cos(th), rho * math.sin(th), z))
    return out
