"""The benchmark's pinned workloads.

Each workload fixes the state recipe, the dimension, the shot count and
the observable; only the sampling seed varies between runs. The digests
are of the files the CLI writes for this workload: the state file (which
does not depend on the seed) and the record CSV at PINNED_SEED. The CSV
format and the chunk-indexed Philox streams are frozen, so a change that
moves either digest changed the program's output.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

PINNED_SEED = 11

# EstimatorConfig's default reg_eps; the homodyne kernel's damping shifts
# <a^dag a> by +4 reg_eps, so the number estimate is checked against that.
HOMODYNE_REG_EPS = 1e-3

# Number of fixed displacements fed to displaced_parity_expectation in the
# traced run, and the seed of the generator that places them.
DISP_ALPHAS = 1 << 16
DISP_ALPHA_SEED = 20000606


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    method: str
    state_args: Tuple[str, ...]
    shots: int
    n_max: Optional[int]
    observable: str
    state_sha256: str
    csv_sha256: str

    @property
    def dim(self) -> int:
        return 2 if self.n_max is None else self.n_max + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="homodyne-d8",
            method="homodyne",
            state_args=("--kind", "coherent", "--dim", "8", "--param", "0.5"),
            shots=200_000,
            n_max=7,
            observable="number",
            state_sha256="4def10e71b4051bf9f6596665e4bbe934d108ed2a7cdca13d26f6a1d56b1d614",
            csv_sha256="924e87e98ed778e9fbde82eed0e686ca6be25f5552d7ce1f3a9475c8c41ddc7b",
        ),
        Workload(
            name="parity-d8",
            method="parity",
            state_args=("--kind", "coherent", "--dim", "8", "--param", "0.5"),
            shots=262_144,
            n_max=7,
            observable="number",
            state_sha256="4def10e71b4051bf9f6596665e4bbe934d108ed2a7cdca13d26f6a1d56b1d614",
            csv_sha256="fcb019fb94ac16108c71fd4887fd0232c75d94626e4992c64efebf98d855022b",
        ),
        Workload(
            name="pauli-qubit",
            method="pauli",
            state_args=("--kind", "random_mixed", "--dim", "2", "--seed", "3"),
            shots=300_000,
            n_max=None,
            observable="number",
            state_sha256="069f60aba90c130c24d1bb56331ab6122066149c80534d0cd8a0c9ef0fb11567",
            csv_sha256="79618164fde3fb7a413427437c0323ab7c4eebd10a8ebee6c997806300d9c2c6",
        ),
        Workload(
            name="kerr-d8",
            method="kerr",
            state_args=("--kind", "coherent", "--dim", "8", "--param", "0.6"),
            shots=200_000,
            n_max=7,
            observable="matrix_unit:0,1",
            state_sha256="d971ccdc1587bf770f9fa93e4091ab75d85de8a4efd454533726d0b89d87f29a",
            csv_sha256="3c28b37d8833485022186c60256dbe31fdf6ddf58cef7b5e843429798a16e847",
        ),
    )
}
