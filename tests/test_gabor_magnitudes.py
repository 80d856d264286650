"""|K| built in column blocks without K: gabor_magnitudes equals np.abs of
the Gabor matrix bit for bit for every worker count and block width, the
fit from it equals the fit from K field for field, and the size guard stops
the N x N allocations the machine cannot hold."""

import json

import numpy as np
import pytest

import gaborfio as gf
import gaborfio.cli as cli
from gaborfio import blockpool
from gaborfio import gabormatrix as gm

# (L, lattice steps or None for the default density-4 lattice)
CASES = [
    (16, (2, 2)), (16, (4, 2)), (16, None),
    (64, (4, 2)), (64, (8, 2)), (64, (4, 8)), (64, None),
    (96, (6, 4)), (96, None),
    (128, (8, 2)), (128, (4, 8)), (128, None),
    (256, None),
]


def frame_for(L, steps, regime):
    cfg = gf.ModelConfig(L=L, regime=regime)
    lat = gf.default_lattice(cfg) if steps is None else gf.Lattice(*steps, cfg)
    return gf.build_frame(gf.periodized_gaussian(cfg), lat)


def widths(N):
    """(COLUMN_ALIGN, block width) pairs: the default split, aligned blocks,
    and unaligned widths that leave a one-column remainder (N - 1 always, 3
    where N = 1 mod 3)."""
    return [None, (None, 40), (1, N - 1), (1, 3 if N % 3 == 1 else 5)]


def set_width(monkeypatch, setting, N, workers):
    """Blocks of about `width` columns; an align of None keeps COLUMN_ALIGN."""
    if setting is not None:
        align, width = setting
        if align is not None:
            monkeypatch.setattr(gm, "COLUMN_ALIGN", align)
        monkeypatch.setattr(gm, "FIT_BLOCK_ENTRIES", width * N * workers)


@pytest.mark.parametrize("L,steps", CASES, ids=[f"L{L}-{s or 'default'}" for L, s in CASES])
@pytest.mark.parametrize("regime", "AB")
def test_magnitudes_equal_abs_of_the_gabor_matrix(monkeypatch, L, steps, regime):
    frame = frame_for(L, steps, regime)
    cfg, N = frame.config, frame.lattice.size
    rng = np.random.Generator(np.random.Philox(L + N))
    T = gf.OperatorMatrix(rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)), cfg)
    want = np.abs(gf.gabor_matrix(T, frame).entries)
    for workers in (1, 2):
        with blockpool.worker_limit(workers):
            for setting in widths(N):
                with monkeypatch.context() as m:
                    set_width(m, setting, N, workers)
                    got = gf.gabor_magnitudes(T, frame)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, want, err_msg=f"{workers} {setting}")


@pytest.mark.parametrize("L", [64, 128])
def test_aligned_blocks_keep_the_bits_of_a_complex_window(monkeypatch, L):
    # with a complex window the GEMM kernels of a column tail round
    # differently from the main kernel; blocks of COLUMN_ALIGN multiples
    # run every column through the kernel the full-width product uses
    cfg = gf.ModelConfig(L=L)
    chirped = gf.periodized_gaussian(cfg).values * np.exp(0.37j * np.pi * np.arange(L) ** 2 / L)
    frame = gf.build_frame(gf.Signal(chirped, cfg), gf.default_lattice(cfg))
    N = frame.lattice.size
    T = gf.dft_operator(cfg)
    want = np.abs(gf.gabor_matrix(T, frame).entries)
    for workers in (1, 2):
        with blockpool.worker_limit(workers):
            for setting in (None, (None, 22), (None, 37), (None, 50)):
                with monkeypatch.context() as m:
                    set_width(m, setting, N, workers)
                    np.testing.assert_array_equal(gf.gabor_magnitudes(T, frame), want)


@pytest.mark.parametrize("N", [1, 2, 3, 17, 33, 64, 289, 1024, 2048, 4097])
@pytest.mark.parametrize("entries", [1, 40, 1 << 12, 1 << 17])
def test_column_blocks_cover_the_columns_and_none_is_one_wide(monkeypatch, N, entries):
    monkeypatch.setattr(gm, "FIT_BLOCK_ENTRIES", entries)
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            blocks = gm._column_blocks(N)
        assert blocks[0].start == 0 and blocks[-1].stop == N
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all((b.stop - b.start) % gm.COLUMN_ALIGN == 0 for b in blocks[:-1])
        assert N == 1 or all(b.stop - b.start > 1 for b in blocks)


# (L, regime, operator spec): regime A and B, exact and sampled phases, the
# bisection fallback of sine:0.5 included
PROFILE_CASES = [
    (64, "A", "chirp:1"),
    (64, "A", "dft*chirp:2"),
    (64, "A", "dilate:-1"),
    (64, "A", "kn:symbol=random-smooth:3"),
    (256, "A", "fio1:phase=chirp:-3,symbol=random-smooth:5"),
    (64, "B", "fio1:phase=sine:0.5:8:8,symbol=ones"),
    (256, "B", "fio1:phase=sine:0.2:11.3137:11.3137,symbol=random-smooth:3"),
    (256, "B", "fio2:phase=sine:0.2:11.3137:11.3137,symbol=ones"),
]


@pytest.mark.parametrize("L,regime,spec", PROFILE_CASES)
def test_operator_decay_profile_equals_the_profile_of_K(L, regime, spec):
    frame = frame_for(L, None, regime)
    T, chi, _ = cli.parse_operator(spec, frame.config)
    want = gf.decay_profile(gf.gabor_matrix(T, frame), chi)
    for workers in (1, 2):
        with blockpool.worker_limit(workers):
            got = gf.operator_decay_profile(T, frame, chi)
        assert (got.bins, got.s_fit, got.C_fit, got.r2) == \
            (want.bins, want.s_fit, want.C_fit, want.r2)


def test_size_guard_raises_before_the_n_by_n_arrays(monkeypatch, frame16):
    T = gf.dft_operator(frame16.config)
    K = gf.gabor_matrix(T, frame16)
    N = frame16.lattice.size
    # each guard admits exactly its own array
    for budget, call in ((16 * N * N, lambda: gf.gabor_matrix(T, frame16)),
                         (8 * N * N, lambda: gf.gabor_magnitudes(T, frame16)),
                         (16 * N * N, lambda: gm.wrapped_displacements(K, np.eye(2)))):
        monkeypatch.setattr(gm, "_memory_budget", lambda: budget)
        call()
        monkeypatch.setattr(gm, "_memory_budget", lambda: budget - 1)
        with pytest.raises(gf.SizeError):
            call()


def test_memory_budget_is_the_physical_memory():
    budget = gm._memory_budget()
    assert 1 << 20 < budget < 1 << 62


def test_decay_over_budget_exits_1_with_a_size_error_report(monkeypatch, tmp_path):
    monkeypatch.setattr(gm, "_memory_budget", lambda: 1 << 10)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"L": 32}, "operator": "chirp:1"}))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "SizeError"
    assert not (out / "profile.csv").exists()


@pytest.mark.parametrize("pipeline", cli.PIPELINES)
def test_operator_over_budget_exits_1_before_the_frame_is_built(monkeypatch, tmp_path,
                                                                pipeline):
    # every pipeline builds L x L complex operators: 16 L^2 bytes are checked
    # before the frame, so a budget one byte short stops the run there
    L = 64
    calls, build_frame = [], cli.gabor.build_frame
    monkeypatch.setattr(cli.gabor, "build_frame",
                        lambda *args: calls.append(args) or build_frame(*args))
    monkeypatch.setattr(gm, "_memory_budget", lambda: 16 * L * L - 1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"L": L}, "operator": "chirp:1*dft",
                                "pipeline": pipeline}))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "SizeError"
    assert "L x L operator" in report["error"]["message"]
    assert not calls


def test_operator_guard_admits_exactly_one_operator(monkeypatch, tmp_path):
    # at 16 L^2 bytes the run gets past the guard to the frame, and then
    # stops at the N x N guard of the Gabor-matrix magnitudes
    L = 64
    calls, build_frame = [], cli.gabor.build_frame
    monkeypatch.setattr(cli.gabor, "build_frame",
                        lambda *args: calls.append(args) or build_frame(*args))
    monkeypatch.setattr(gm, "_memory_budget", lambda: 16 * L * L)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"L": L}, "operator": "chirp:1"}))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "SizeError"
    assert "magnitudes" in report["error"]["message"]
    assert len(calls) == 1
