"""The pool holds numpy's OpenBLAS at one thread and gives the count back, and the sampled
quantities, the sliced Kerr estimate and the homodyne pattern table do not depend on that
count."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qtomo._parallel import _blas_threads_api, chunk_map
from qtomo.estimators import EstimatorConfig, homodyne, kerr_estimate, kerr_sideband_coefficients
from qtomo.estimators.kerr import _phase_vectors
from qtomo.estimators.parity import displaced_parity_expectation
from qtomo.operators import Operator
from qtomo.records import RecordBatch, walk
from qtomo.states import StateSpec, make_state

BLAS = _blas_threads_api()
pytestmark = pytest.mark.skipif(BLAS is None, reason="numpy's OpenBLAS thread count not found")


@pytest.fixture
def three_blas_threads(monkeypatch):
    # a count that neither the pool's 1 nor a one-core default can pass for
    get, put = BLAS
    monkeypatch.setenv("QTOMO_THREADS", "2")
    saved = get()
    put(3)
    yield get
    put(saved)


def test_pool_runs_blas_at_one_thread(three_blas_threads):
    get = three_blas_threads
    # a nested pool must not restore the count while the outer one runs
    seen = chunk_map(lambda i: (get(), chunk_map(lambda j: get(), 2), get()), 4)
    assert seen == [(1, [1, 1], 1)] * 4
    assert get() == 3


def test_count_is_restored_when_fn_raises(three_blas_threads):
    get = three_blas_threads

    def fn(i):
        if i == 1:
            raise RuntimeError("chunk 1 failed")
        return get()

    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        chunk_map(fn, 4)
    assert get() == 3


def test_serial_map_leaves_blas_alone(three_blas_threads, monkeypatch):
    get = three_blas_threads
    monkeypatch.setenv("QTOMO_THREADS", "1")
    assert chunk_map(lambda i: get(), 3) == [3, 3, 3]


def test_concurrent_pools_restore_the_count(three_blas_threads, monkeypatch):
    # more workers than cores, switching threads often: a lost update of the
    # hold count would let a pool run at 3 threads or leave the count at 1
    get = three_blas_threads
    monkeypatch.setenv("QTOMO_THREADS", "3")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            runs = [callers.submit(chunk_map, lambda i: get(), 16) for _ in range(16)]
            seen = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert seen == [[1] * 16] * 16
    assert get() == 3


def at_blas_threads(count, fn):
    get, put = BLAS
    saved = get()
    put(count)
    try:
        return fn()
    finally:
        put(saved)


@pytest.mark.parametrize("dim", [2, 5, 8, 12])
def test_sampled_quantities_keep_their_bytes_at_any_blas_count(dim):
    # the parity sampler's G and the Kerr sampler's sidebands run serially at the process's
    # BLAS count when a batch fits one block or QTOMO_THREADS=1, and on the pool at one thread
    rho = make_state(StateSpec(kind="random_mixed", dim=dim, seed=dim))
    rng = np.random.default_rng(dim)
    radius = EstimatorConfig(dim=dim).parity_radius()
    for n in (1_500, 4_096, 50_000, 70_001):
        betas = radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        psis = rng.uniform(0.0, 2.0 * np.pi, n)
        for quantity in (lambda: displaced_parity_expectation(rho, betas),
                         lambda: kerr_sideband_coefficients(rho, psis)):
            one, three = (at_blas_threads(count, quantity).tobytes() for count in (1, 3))
            assert one == three


@pytest.mark.parametrize("dim", [2, 8, 12])
def test_kerr_estimate_slices_move_no_bit(dim):
    # 70,001 records end in a short slice of a short second chunk, 73,729 in a one-record
    # slice; the reference contracts each whole 65,536-record walk chunk at once
    rng = np.random.default_rng(dim)
    a_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    np.fill_diagonal(a_mat, 0.0)

    def whole(settings, outcomes):
        u = _phase_vectors(settings[:, 0], outcomes, dim)
        return np.einsum("gr,rc,gc->g", u.conj(), a_mat, u, optimize=True)

    for n in (70_001, 73_729):
        records = RecordBatch("kerr", rng.uniform(0.0, 2.0 * np.pi, (n, 1)),
                              rng.uniform(0.0, 2.0 * np.pi, n))
        for count in (1, 3):
            sliced = at_blas_threads(
                count, lambda: kerr_estimate(Operator(a_mat), records, EstimatorConfig(dim=dim)))
            assert sliced == at_blas_threads(count, lambda: walk(records, whole)[0]), (n, count)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 11, 17])
def test_pattern_table_keeps_its_bytes_at_any_pool_and_blas_count(dim, monkeypatch):
    # single-column and odd last chunks, on both sides of d^2 = chunk width; the table
    # holds OpenBLAS at one thread itself, so the caller's count must not reach it
    q_max = np.sqrt(dim) + 6.0
    for size in (1, 21, 257, 513):
        qs = np.linspace(-q_max, q_max, size)
        tables = set()
        for workers in ("1", "2"):
            monkeypatch.setenv("QTOMO_THREADS", workers)
            for count in (1, 3):
                table = at_blas_threads(count, lambda: homodyne._f_at(qs, dim, 40.0, 1e-3))
                tables.add(table.tobytes())
        assert len(tables) == 1, size

