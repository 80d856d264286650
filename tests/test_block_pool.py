"""The block pool: every blocked pass gives the same bits for every worker
count and block size; --threads sets the worker count of one run only."""

import itertools
import json
import os
import sys
import threading
import types

import numpy as np
import pytest

import gaborfio as gf
import gaborfio.cli as cli
from gaborfio import blockpool

SHEAR = np.array([[1.0, 0.0], [1.0, 1.0]])       # chi of chirp:1

# (name, overrides): each run below splits its work into several blocks; the
# survivor fold of decay-B splits its column pass from L = 256 on (below it
# the fused analyses run on one worker)
DETERMINISM_CASES = [
    ("decay-A", ["model.L=128", "operator=dft*chirp:2"]),
    ("decay-B", ["model.L=256", "model.regime=B",
                 "operator=fio1:phase=sine:0.2:16:16,symbol=random-smooth:3"]),
    ("symbol-class", ["model.L=32", "pipeline=symbol-class",
                      "operator=kn:symbol=random-smooth:9"]),
    ("offgrid", ["model.L=128", "pipeline=offgrid", "operator=chirp:2"]),
    ("gabor-matrix", ["model.L=96", "pipeline=gabor-matrix", "operator=chirp:-3"]),
]


@pytest.fixture
def restore_blas():
    """--threads resizes the OpenBLAS pools of this process; put them back."""
    handles = cli.openblas_thread_handles()
    before = [get() for _, get in handles]
    yield
    for (set_threads, _), n in zip(handles, before):
        set_threads(n)


@pytest.fixture
def pool_starts(monkeypatch):
    """Count the helper threads map_blocks starts."""
    starts = []

    class CountingThread(threading.Thread):
        def start(self):
            starts.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    return starts


def run_cli(tmp_path, name, overrides, threads):
    cfg = tmp_path / "config.json"
    cfg.write_text("{}")
    out = tmp_path / f"{name}-{threads}"
    argv = ["run", str(cfg), "--out", str(out)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    report = json.loads((out / "report.json").read_text())
    timings = report.pop("timings")
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    return report, files, timings


@pytest.mark.parametrize("name,overrides", DETERMINISM_CASES,
                         ids=[c[0] for c in DETERMINISM_CASES])
def test_outputs_do_not_depend_on_thread_count(tmp_path, restore_blas, pool_starts,
                                               name, overrides):
    serial = run_cli(tmp_path, name, overrides, threads=1)
    assert pool_starts == []
    pooled = run_cli(tmp_path, name, overrides, threads=2)
    assert pool_starts, "the two-worker run split no pass"
    default = run_cli(tmp_path, name, overrides, threads=None)
    assert (serial[2]["workers"], pooled[2]["workers"]) == (1, 2)
    assert default[2]["workers"] == blockpool.workers()
    assert serial[0] == pooled[0] == default[0]
    assert serial[1] == pooled[1] == default[1]
    expected = {"decay-A": {"profile.csv"}, "decay-B": {"profile.csv"},
                "gabor-matrix": {"matrix.csv"}}.get(name, set())
    assert set(serial[1]) == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_decay_profile_many_blocks_match_one_block(monkeypatch, workers):
    cfg = gf.ModelConfig(L=64)
    frame = gf.build_frame(gf.periodized_gaussian(cfg), gf.default_lattice(cfg))
    K = gf.gabor_matrix(gf.chirp_operator(cfg, 1), frame)
    N = frame.lattice.size
    results = []
    with blockpool.worker_limit(workers):
        for entries in (2 * N * N, 7 * workers, 3 * N * workers):
            monkeypatch.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", entries)
            prof = gf.decay_profile(K, SHEAR)
            results.append((prof.bins, prof.s_fit, prof.C_fit, prof.r2))
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("n_rows", [1, 2, 3, 17, 1024, 4097])
def test_row_blocks_cover_the_rows_in_order(monkeypatch, n_rows):
    for entries, row_entries, workers in itertools.product(
            (1, 40, 1 << 12, 1 << 17), (1, 7, n_rows, 4096), (1, 2, 3)):
        monkeypatch.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", entries)
        with blockpool.worker_limit(workers):
            blocks = gf.gabormatrix._row_blocks(n_rows, row_entries)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n_rows))
        rows = max(1, max(1, entries // workers) // row_entries)
        assert all(b.stop - b.start == rows for b in blocks[:-1])
        assert 1 <= blocks[-1].stop - blocks[-1].start <= rows


class SlotReads(np.ndarray):
    """Column indices of a RowPaddedMatrix that record the slices of slots
    the product reads."""

    def __getitem__(self, key):
        self.reads.append(key)
        return np.asarray(super().__getitem__(key))


@pytest.mark.parametrize("entries", [1 << 17, 1, 4 * 32 * 256])
def test_one_share_sizes_every_block_as_before(monkeypatch, entries):
    # _block_units sizes the row blocks, the column sources' blocks and the
    # slot blocks of the sparse product; each equals the formula it replaced
    # (the blocks of the product do not depend on the worker count)
    monkeypatch.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", entries)
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            for n_rows, row_entries in ((1, 1), (37, 7), (300, 4 * 300), (4097, 4097)):
                step = max(1, max(1, entries // workers) // row_entries)
                assert gf.gabormatrix._row_blocks(n_rows, row_entries) == [
                    slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]
            for N in (1, 17, 256, 4096):
                lat = types.SimpleNamespace(size=N)
                assert gf.gabormatrix._column_width(lat, workers) == \
                    max(1, entries // 4 // workers) // N
            for n, width in ((1, 3), (37, 40), (1024, 40), (5000, 2), (7, 0)):
                cols = np.zeros((width, n), dtype=np.intp).view(SlotReads)
                cols.reads = []
                M = gf.RowPaddedMatrix(cols=cols, re=np.zeros((width, n)),
                                       im=np.zeros((width, n)), shape=(n, 1), nnz=0)
                assert not (M @ np.ones(1)).any()
                k = max(1, min(width, entries // 8 // max(1, n)))
                assert cols.reads == [slice(s, min(s + k, width)) for s in range(0, width, k)]


def test_threads_1_starts_no_pool_thread(tmp_path, restore_blas, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    _, _, timings = run_cli(tmp_path, *DETERMINISM_CASES[0], threads=1)
    assert timings["workers"] == 1


def test_cli_restores_the_worker_count(tmp_path, restore_blas):
    default = blockpool.workers()
    if hasattr(os, "sched_getaffinity"):
        assert default == len(os.sched_getaffinity(0))
    run_cli(tmp_path, "identity", ["model.L=32", "operator=identity"], threads=1)
    assert blockpool.workers() == default
    with blockpool.worker_limit(3):
        run_cli(tmp_path, "identity", ["model.L=32", "operator=identity"], threads=2)
        assert blockpool.workers() == 3
    assert blockpool.workers() == default


def test_map_blocks_runs_every_block_once_in_order():
    # more workers than cores and a short switch interval, so the threads
    # interleave between taking a block and storing its result
    calls = []

    def square(x):
        calls.append(x)
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blockpool.worker_limit(8):
            got = blockpool.map_blocks(square, range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert got == [x * x for x in range(2000)]
    assert sorted(calls) == list(range(2000))
    with pytest.raises(ValueError):
        with blockpool.worker_limit(0):
            pass


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU binding here")
def test_map_blocks_binds_workers_and_restores_the_caller():
    before = os.sched_getaffinity(0)
    with blockpool.worker_limit(2):
        seen = blockpool.map_blocks(lambda _: os.sched_getaffinity(0), range(20))
    assert os.sched_getaffinity(0) == before
    cpus = sorted(before)
    if len(cpus) >= 2:
        assert {frozenset(s) for s in seen} <= {frozenset({cpus[0]}), frozenset({cpus[1]})}


def test_helper_threads_see_the_callers_worker_limit():
    with blockpool.worker_limit(3):
        assert blockpool.map_blocks(lambda _: blockpool.workers(), range(6)) == [3] * 6


def test_map_blocks_raises_the_first_failing_block():
    def fn(i):
        if i in (5, 9):
            raise KeyError(i)
        return i

    for workers in (1, 2, 4):
        with blockpool.worker_limit(workers):
            with pytest.raises(KeyError) as info:
                blockpool.map_blocks(fn, range(40))
        assert info.value.args == (5,)
    assert [t for t in threading.enumerate() if t.name.startswith("gaborfio-block")] == []
