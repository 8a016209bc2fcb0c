"""The Kerr routes' working set is bounded per block, not per chunk or per batch.

Every sampler solve and every estimator kernel is row-local, so their transients need
not grow with the records they run over. tracemalloc counts numpy's data buffers on
every thread, so these bounds hold at a pool size without timing anything.
"""

import tracemalloc

import pytest

from qtomo.estimators import EstimatorConfig, kerr_estimate
from qtomo.operators import fock_matrix_unit
from qtomo.sampler import RngStream, sample_kerr_phase
from qtomo.states import StateSpec, make_state

MIB = 1 << 20
SHOTS = 200_000
CFG = EstimatorConfig(dim=8)
RHO = make_state(StateSpec(kind="coherent", dim=8, beta=0.6))


def _traced(fn):
    """fn()'s result and the peak in bytes of what it allocated; older blocks are not traced."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_kerr_sample_peaks_at_its_blocks(threads, monkeypatch):
    # the records, their uniforms and the pool's blocks of transients; at 32,768-row
    # blocks the peak was 18.6 MiB on one worker and 24.9 MiB on two
    monkeypatch.setenv("QTOMO_THREADS", threads)
    records, peak = _traced(lambda: sample_kerr_phase(RHO, SHOTS, RngStream(11), CFG))
    assert len(records) == SHOTS
    assert peak <= 14 * MIB


def test_kerr_estimate_peaks_at_its_slices():
    # above the records; one unsliced 65,536-record chunk peaked at 26.0 MiB
    records = sample_kerr_phase(RHO, SHOTS, RngStream(11), CFG)
    result, peak = _traced(lambda: kerr_estimate(fock_matrix_unit(0, 1, 8), records, CFG))
    assert result.n_samples == SHOTS
    assert peak <= 8 * MIB
