"""The fused fold + FFT analyses and the decay folds over column blocks:
the atom images, K and |K| equal a one-block reference bit for bit for
every worker count, block of time indices and column width; both folds (by
integer distance and into survivor sets), over the columns of a given K
(decay_profile) and over the fused analyses of T (operator_decay_profile),
equal envelope_fit of the whole (N, N) distance and |K| arrays field for
field, and the latter forms no N x N or N x L array; and the size guards
stop the allocations the machine cannot hold."""

import json
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

import gaborfio as gf
import gaborfio.cli as cli
from gaborfio import blockpool
from gaborfio import gabor
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


def magnitudes(columns, N):
    """|K| written block by block from the |K| blocks of the column source
    columns into a real N x N array."""
    absK = np.empty((N, N))

    def write_block(cols, v, scratch):
        np.copyto(absK[:, cols], v.reshape(N, -1))

    columns(write_block)
    return absK


def fused_magnitudes(T, frame):
    """magnitudes of the fused analyses over the tight window."""
    return magnitudes(partial(gm._gabor_columns, T, frame, frame.tight), frame.lattice.size)


def set_width(monkeypatch, setting, N, workers):
    """Blocks of about `width` columns in a column source, which takes
    FIT_BLOCK_ENTRIES // 4 entries; an align of None keeps COLUMN_ALIGN."""
    if setting is not None:
        align, width = setting
        if align is not None:
            monkeypatch.setattr(gabor, "COLUMN_ALIGN", align)
        monkeypatch.setattr(gm, "FIT_BLOCK_ENTRIES", 4 * width * N * workers)


def every_worker(monkeypatch):
    """Run the fused analyses on every worker of the block pool, whatever
    the size of the lattice."""
    monkeypatch.setattr(gm, "_fused_workers", lambda lat, whole: blockpool.workers())


@pytest.mark.parametrize("L,steps", CASES, ids=[f"L{L}-{s or 'default'}" for L, s in CASES])
@pytest.mark.parametrize("regime", "AB")
def test_magnitudes_equal_abs_of_the_gabor_matrix(monkeypatch, L, steps, regime):
    frame = frame_for(L, steps, regime)
    cfg, N = frame.config, frame.lattice.size
    rng = np.random.Generator(np.random.Philox(L + N))
    T = gf.OperatorMatrix(rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)), cfg)
    K = gf.gabor_matrix(T, frame)
    want = np.abs(K.entries)
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            for setting in widths(N):
                with monkeypatch.context() as m:
                    set_width(m, setting, N, workers)
                    got = [fused_magnitudes(T, frame),
                           magnitudes(gm._matrix_columns(K), N)]
                for source, g in zip(("fused", "matrix"), got):
                    assert g.dtype == np.float64
                    np.testing.assert_array_equal(g, want,
                                                  err_msg=f"{source} {workers} {setting}")


def reference_analysis(window, lat, X):
    """The analysis of the columns of X in one block: the fold, one matmul
    over all residues and all columns, one FFT over the residues."""
    W, Xq = gabor.fold(window, lat, X)
    return np.fft.fft(np.matmul(W, Xq), axis=0).transpose(1, 0, 2).reshape(lat.size, -1)


def force_width(monkeypatch, setting):
    """Blocks of `width` columns in every analysis, whatever the worker
    count; an align of None keeps COLUMN_ALIGN."""
    if setting is not None:
        align, width = setting
        if align is not None:
            monkeypatch.setattr(gabor, "COLUMN_ALIGN", align)
        column_blocks = gabor.column_blocks

        def blocks(n_cols, _):
            return column_blocks(n_cols, width)

        monkeypatch.setattr(gabor, "column_blocks", blocks)
        monkeypatch.setattr(gm, "column_blocks", blocks)


REFERENCE_CASES = [(16, (2, 2)), (16, None), (64, (4, 8)), (64, None),
                   (96, (6, 4)), (128, (8, 2)), (256, None)]


@pytest.mark.parametrize("L,steps", REFERENCE_CASES,
                         ids=[f"L{L}-{s or 'default'}" for L, s in REFERENCE_CASES])
@pytest.mark.parametrize("regime", "AB")
@pytest.mark.parametrize("use_tight", [True, False], ids=["tight", "raw"])
def test_blocked_analyses_equal_the_one_block_reference(monkeypatch, L, steps, regime,
                                                         use_tight):
    frame = frame_for(L, steps, regime)
    lat, cfg, N = frame.lattice, frame.config, frame.lattice.size
    w = frame.window(use_tight)
    rng = np.random.Generator(np.random.Philox(3 * L + N))
    T = gf.OperatorMatrix(rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)), cfg)
    first = reference_analysis(w, lat, T.entries.conj().T)               # A T^H
    K = reference_analysis(w, lat, np.conj(first).T)                     # A T A^H
    every_worker(monkeypatch)
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            for setting in (None, (None, 40), (1, 7), (1, N - 1)):
                msg = f"{workers} {setting}"
                with monkeypatch.context() as m:
                    force_width(m, setting)
                    np.testing.assert_array_equal(
                        gabor.analysis_matrix(w, lat, T.entries.conj().T), first, err_msg=msg)
                    np.testing.assert_array_equal(
                        gf.gabor_matrix(T, frame, use_tight=use_tight).entries, K, err_msg=msg)
                    if use_tight:
                        np.testing.assert_array_equal(
                            fused_magnitudes(T, frame), np.abs(K), err_msg=msg)


@pytest.mark.parametrize("L", [64, 128])
def test_aligned_blocks_keep_the_bits_of_a_complex_window(monkeypatch, L):
    # with a complex window the GEMM kernels of a column tail round
    # differently from the main kernel; blocks of COLUMN_ALIGN multiples
    # run every column through the kernel the full-width product uses
    every_worker(monkeypatch)
    cfg = gf.ModelConfig(L=L)
    chirped = gf.periodized_gaussian(cfg).values * np.exp(0.37j * np.pi * np.arange(L) ** 2 / L)
    frame = gf.build_frame(gf.Signal(chirped, cfg), gf.default_lattice(cfg))
    lat = frame.lattice
    T = gf.dft_operator(cfg)
    first = reference_analysis(frame.tight, lat, T.entries.conj().T)
    K = reference_analysis(frame.tight, lat, np.conj(first).T)
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            for setting in (None, (None, 22), (None, 37), (None, 50)):
                with monkeypatch.context() as m:
                    force_width(m, setting)
                    np.testing.assert_array_equal(gf.gabor_matrix(T, frame).entries, K)
                    np.testing.assert_array_equal(fused_magnitudes(T, frame), np.abs(K))


def windows_of(L, steps):
    """(name, frame, use_tight) of the three windows the analyses take: the
    tight and raw windows of the periodized Gaussian's frame, and the tight
    window of a chirped (complex) Gaussian's frame over the same lattice."""
    frame = frame_for(L, steps, "A")
    cfg, lat = frame.config, frame.lattice
    chirped = gf.periodized_gaussian(cfg).values * np.exp(0.37j * np.pi * np.arange(L) ** 2 / L)
    complex_frame = gf.build_frame(gf.Signal(chirped, cfg), lat)
    return [("tight", frame, True), ("raw", frame, False), ("chirped", complex_frame, True)]


# (L, steps): odd n_time = 5 at L = 80 (frame bounds 0.041 and 3.16) and
# n_time = 9 at L = 144 (0.347 and 2.83), so that a last index joins the
# block before it; at L = 144 a block of that one index alone (a
# matrix-vector product) would be off in the last bits.  Two even ones
TIME_CASES = [(80, (16, 4)), (144, (16, 6)), (64, None), (96, (6, 4))]


@pytest.mark.parametrize("L,steps", TIME_CASES,
                         ids=[f"L{L}-{s or 'default'}" for L, s in TIME_CASES])
def test_time_index_blocks_equal_the_one_block_reference(monkeypatch, L, steps):
    # every worker count runs its own workers, over blocks of 2, 3,
    # n_time - 1 and n_time time indices
    every_worker(monkeypatch)
    for name, frame, use_tight in windows_of(L, steps):
        lat, cfg, N = frame.lattice, frame.config, frame.lattice.size
        w = frame.window(use_tight)
        rng = np.random.Generator(np.random.Philox(5 * L + N))
        T = gf.OperatorMatrix(rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)), cfg)
        first = reference_analysis(w, lat, T.entries.conj().T)               # A T^H
        images = np.conj(first).T                                            # T A^H
        K = reference_analysis(w, lat, images)                               # A T A^H
        for workers in (1, 2, 3):
            with blockpool.worker_limit(workers):
                for step in sorted({2, 3, lat.n_time - 1, lat.n_time}):
                    msg = f"{name} {workers} {step}"
                    got, block_images = {}, gm._block_images

                    def record(Tq, wT, js):
                        got[js.start] = X = block_images(Tq, wT, js)
                        return X

                    with monkeypatch.context() as m:
                        m.setattr(gm, "_time_blocks", lambda nt, W: gabor.spans(nt, step))
                        m.setattr(gm, "_block_images", record)
                        np.testing.assert_array_equal(
                            gf.gabor_matrix(T, frame, use_tight=use_tight).entries, K,
                            err_msg=msg)
                        if use_tight:
                            np.testing.assert_array_equal(
                                fused_magnitudes(T, frame), np.abs(K), err_msg=msg)
                    assert min(X.shape[1] for X in got.values()) >= 2 * lat.n_freq
                    np.testing.assert_array_equal(
                        np.hstack([got[j0] for j0 in sorted(got)]), images, err_msg=msg)


@pytest.mark.parametrize("N", [1, 2, 3, 17, 33, 64, 289, 1024, 2048, 4097])
@pytest.mark.parametrize("entries", [1, 40, 1 << 12, 1 << 17])
def test_column_blocks_cover_the_columns_and_none_is_one_wide(N, entries):
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            blocks = gabor.column_blocks(N, blockpool.block_share(entries) // N)
        assert blocks[0].start == 0 and blocks[-1].stop == N
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all((b.stop - b.start) % gabor.COLUMN_ALIGN == 0 for b in blocks[:-1])
        assert N == 1 or all(b.stop - b.start > 1 for b in blocks)


# (L, regime, operator spec): regime A and B, exact and sampled phases, the
# bisection fallback of sine:0.5 included.  The regime-A maps and the
# identity of fio1:phase=kn send the lattice to integer points and take the
# key fold; the sine phases take the survivor fold
PROFILE_CASES = [
    (64, "A", "chirp:1"),
    (64, "A", "dft*chirp:2"),
    (64, "A", "dilate:-1"),
    (64, "A", "kn:symbol=random-smooth:3"),
    (256, "A", "fio1:phase=chirp:-3,symbol=random-smooth:5"),
    (64, "A", "fio1:phase=sine:0.5:8:8,symbol=ones"),
    (64, "B", "fio1:phase=sine:0.5:8:8,symbol=ones"),
    (64, "B", "fio1:phase=kn,symbol=ones"),
    (256, "B", "fio1:phase=sine:0.2:11.3137:11.3137,symbol=random-smooth:3"),
    (256, "B", "fio2:phase=sine:0.2:11.3137:11.3137,symbol=ones"),
]


def tables_of(lat, chi):
    return gm._displacement_tables(lat, gm._lattice_images(lat, chi))


def integral(tables):
    return all(np.array_equal(d, np.round(d)) for d in tables)


def whole_fit(lat, chi, absK):
    """envelope_fit of the whole (N, N) distance and |K| arrays: the
    reference of every decay fit."""
    d1, d2 = tables_of(lat, chi)
    j, k = np.divmod(np.arange(lat.size), lat.n_freq)
    return gf.envelope_fit(np.sqrt((d1[j] ** 2 + d2[k] ** 2) + 1.0), absK)


def fields(profile):
    return profile.bins, profile.s_fit, profile.C_fit, profile.r2


@pytest.mark.parametrize("L,regime,spec", PROFILE_CASES)
def test_operator_decay_profile_equals_the_profile_of_K(monkeypatch, L, regime, spec):
    # both decay profiles, of T and of its K, equal the whole-array fit
    frame = frame_for(L, None, regime)
    T, chi, _ = cli.parse_operator(spec, frame.config)
    K = gf.gabor_matrix(T, frame)
    want = whole_fit(frame.lattice, chi, np.abs(K.entries))
    keyed = integral(tables_of(frame.lattice, chi))
    fits = []
    for name in ("_key_fit", "_survivor_fit"):
        fit = getattr(gm, name)
        monkeypatch.setattr(gm, name, lambda *args, name=name, fit=fit:
                            fits.append(name) or fit(*args))
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            # the default blocks, then COLUMN_ALIGN-wide blocks
            for entries in (gm.FIT_BLOCK_ENTRIES, 1):
                with monkeypatch.context() as m:
                    m.setattr(gm, "FIT_BLOCK_ENTRIES", entries)
                    got = [gf.decay_profile(K, chi), gf.operator_decay_profile(T, frame, chi)]
                assert [fields(p) for p in got] == [want, want], f"{workers} {entries}"
    assert fits == 12 * ["_key_fit" if keyed else "_survivor_fit"]


def check_under_thread_switching(monkeypatch, regime, spec):
    """More workers than CPUs, switching threads every microsecond, over
    COLUMN_ALIGN-wide blocks: a lost update of the key maxima, the
    survivors or the blocks would change the total count or the profile."""
    frame = frame_for(64, None, regime)
    T, chi, _ = cli.parse_operator(spec, frame.config)
    want = whole_fit(frame.lattice, chi, np.abs(gf.gabor_matrix(T, frame).entries))
    monkeypatch.setattr(gm, "FIT_BLOCK_ENTRIES", 1)
    every_worker(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blockpool.worker_limit(6):
            for _ in range(20):
                got = gf.operator_decay_profile(T, frame, chi)
                assert sum(count for _, _, count in got.bins) == frame.lattice.size ** 2
                assert fields(got) == want
    finally:
        sys.setswitchinterval(interval)


def test_key_fold_keeps_every_count_under_thread_switching(monkeypatch):
    check_under_thread_switching(monkeypatch, "A", "dft*chirp:2")


def test_survivor_fold_keeps_every_count_under_thread_switching(monkeypatch):
    check_under_thread_switching(monkeypatch, "B",
                                 "fio1:phase=sine:0.5:8:8,symbol=random-smooth:3")


@pytest.mark.parametrize("L,steps", [(16, (2, 2)), (64, None), (96, (6, 4))])
def test_key_fold_equals_the_row_fit_with_a_distance_of_zeros(monkeypatch, L, steps):
    # the reference "row fit" is envelope_fit of the whole (N, N) arrays
    # (whole_fit), here and in the survivor-fold test below.  A
    # Gaussian-decaying |K| with the farthest occupied distance set to exact
    # zeros: that key still counts in its bin and enters C_fit at the floor,
    # where it is the largest weighted value
    frame = frame_for(L, steps, "A")
    lat, N = frame.lattice, frame.lattice.size
    tables = tables_of(lat, np.eye(2))
    sq1, sq2 = ((d ** 2).astype(np.intp) for d in tables)
    j, k = np.divmod(np.arange(N), lat.n_freq)
    key = sq1[j] + sq2[k]                                  # (N, N)
    rng = np.random.Generator(np.random.Philox(L))
    absK = np.exp(-key / L) * rng.uniform(0.5, 1.0, size=(N, N))
    absK[key == key.max()] = 0.0
    want = whole_fit(lat, np.eye(2), absK)
    assert want[0][-1][2] > 0
    columns = gm._matrix_columns(gf.GaborMatrix(absK, frame))
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            for width in (16, 40, N):
                with monkeypatch.context() as m:
                    set_width(m, (None, width), N, workers)
                    got = gm._key_fit(columns, sq1, sq2)
                assert fields(got) == want, f"{workers} {width}"


# (L, lattice steps or None, regime, operator spec) of integer maps: decay-a's
# size with one and two classes of columns, lattices whose steps leave
# several classes (odd, non-square, n_time = 9 at L = 144), one time index
# (a = L), and the identity of regime B
COUNT_CASES = [
    (512, None, "A", "dft*chirp:3"), (512, None, "A", "dilate:511"),
    (64, None, "A", "chirp:-3"), (32, (4, 2), "A", "dft*chirp:3"),
    (48, (4, 3), "A", "chirp:1"), (48, (4, 3), "A", "dft"),
    (60, (5, 3), "A", "dft*chirp:3"), (144, (16, 6), "A", "dft*chirp:2"),
    (16, (16, 1), "A", "dft*chirp:1"), (256, None, "B", "fio1:phase=kn,symbol=ones"),
]


@pytest.mark.parametrize("L,steps,regime,spec", COUNT_CASES,
                         ids=[f"L{c[0]}-{c[1] or 'default'}-{c[2]}-{c[3]}" for c in COUNT_CASES])
def test_key_counts_equal_the_bincount_of_all_keys(L, steps, regime, spec):
    # the counts from one column of each class equal those of all N^2 keys
    cfg = gf.ModelConfig(L=L, regime=regime)
    lat = gf.default_lattice(cfg) if steps is None else gf.Lattice(*steps, cfg)
    tables = tables_of(lat, cli.parse_operator(spec, cfg)[1])
    assert integral(tables)
    sq1, sq2 = ((d ** 2).astype(np.intp) for d in tables)
    j, k = np.divmod(np.arange(lat.size), lat.n_freq)
    want = np.bincount((sq1[j] + sq2[k]).ravel())
    keys, counts = gm._key_counts(sq1, sq2)
    assert keys.dtype == counts.dtype == np.intp
    got = np.bincount(keys, counts, minlength=want.size)
    np.testing.assert_array_equal(got, want)
    assert int(counts.sum()) == lat.size ** 2


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_key_fold_raises_fit_error_for_one_non_finite_entry(monkeypatch, bad):
    # the counts no longer read K, so the bad value reaches the fit through
    # the key maxima alone: at the peak, off the graph, in the first and
    # the last entry, over 32-column and whole blocks, on 1, 2 and 3 workers
    frame = frame_for(64, None, "A")
    lat, N = frame.lattice, frame.lattice.size
    chirp_map = np.array([[1.0, 0.0], [1.0, 1.0]])
    sq1, sq2 = ((d ** 2).astype(np.intp) for d in tables_of(lat, chirp_map))
    E = gf.gabor_matrix(gf.chirp_operator(frame.config, 1), frame).entries
    peak = np.unravel_index(np.abs(E).argmax(), E.shape)
    for where in (peak, (3, 5), (0, 0), (N - 1, N - 1)):
        bad_E = E.copy()
        bad_E[where] = bad
        columns = gm._matrix_columns(gf.GaborMatrix(bad_E, frame))
        for workers in (1, 2, 3):
            with blockpool.worker_limit(workers):
                for width in (32, N):
                    with monkeypatch.context() as m:
                        set_width(m, (None, width), N, workers)
                        with pytest.raises(gf.FitError) as got:
                            gm._key_fit(columns, sq1, sq2)
                    assert str(got.value) == "non-finite |K| among the entries to fit", \
                        (where, workers, width)


# a map that sends lattice points off the integer grid: the survivor fold
SHEAR = np.array([[1.0, 0.0], [0.1, 1.0]])


@pytest.mark.parametrize("L,steps", [(16, (2, 2)), (64, None), (96, (6, 4))])
@pytest.mark.parametrize("growing", [False, True], ids=["decaying", "growing"])
def test_survivor_fold_equals_the_row_fit_with_ties_and_zeros(monkeypatch, L, steps,
                                                              growing):
    # |K| on 64 levels: equal values in many sub-bins of one bin, and exact
    # zeros from the farthest bin on, which still counts and enters C_fit
    # at the floor; a growing |K| fits a negative exponent
    frame = frame_for(L, steps, "B")
    lat, N = frame.lattice, frame.lattice.size
    tables = tables_of(lat, SHEAR)
    assert not integral(tables)
    j, k = np.divmod(np.arange(N), lat.n_freq)
    x = tables[0][j] ** 2 + tables[1][k] ** 2                  # (N, N)
    profile = x / x.max() if growing else np.exp(-4 * x / L)
    rng = np.random.Generator(np.random.Philox(L))
    absK = np.floor(64 * profile * rng.uniform(0.5, 1.0, size=(N, N))) / 64
    bins = gm._bin_index(np.sqrt(x + 1.0))
    absK[bins == bins.max()] = 0.0
    want = whole_fit(lat, SHEAR, absK)
    assert want[0][-1][1] == gm.FIT_FLOOR_RTOL * absK.max()
    assert (want[1] < 0) == growing
    columns = gm._matrix_columns(gf.GaborMatrix(absK, frame))
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            for width in (16, 40, N):
                with monkeypatch.context() as m:
                    set_width(m, (None, width), N, workers)
                    got = gm._survivor_fit(columns, *(d ** 2 for d in tables))
                assert fields(got) == want, f"{workers} {width}"


def test_weighted_entries_fit_as_their_expanded_pairs():
    # (distance, max, count) triples with keys repeated, as bins are across
    # the survivor fold's blocks, and some maxima at zero: the fit equals
    # that of each pair repeated `count` times
    rng = np.random.Generator(np.random.Philox(16))
    keys = rng.integers(0, 2000, size=600)
    dist = gm._bracket(keys)
    vals = np.exp(-np.sqrt(keys) / 8) * rng.uniform(0.5, 1.0, size=keys.size)
    vals[rng.integers(0, keys.size, size=40)] = 0.0
    counts = rng.integers(1, 50, size=keys.size)
    want = gf.envelope_fit(np.repeat(dist, counts), np.repeat(vals, counts))
    assert gm._fit(dist, vals, counts) == want


def test_operator_decay_profile_reaches_the_fit_core_once(monkeypatch):
    # both entry points run one fold and one fit core call
    calls = []
    for name in ("_key_fit", "_survivor_fit", "_fit"):
        fn = getattr(gm, name)
        monkeypatch.setattr(gm, name, lambda *args, name=name, fn=fn:
                            calls.append(name) or fn(*args))
    for regime, spec, keyed in (("A", "dft", True),
                                ("B", "fio1:phase=sine:0.2:8:8,symbol=ones", False)):
        frame = frame_for(64, None, regime)
        T, chi, _ = cli.parse_operator(spec, frame.config)
        assert integral(tables_of(frame.lattice, chi)) == keyed, spec
        K = gf.gabor_matrix(T, frame)
        fold = "_key_fit" if keyed else "_survivor_fit"
        for profile in (lambda: gf.operator_decay_profile(T, frame, chi),
                        lambda: gf.decay_profile(K, chi)):
            calls.clear()
            profile()
            assert calls == [fold, "_fit"], spec


@pytest.mark.parametrize("regime", "AB")
def test_both_fit_paths_raise_the_same_fit_error(regime):
    # a zero operator has no envelope above the floor: no bin is eligible
    frame = frame_for(64, None, regime)
    T = gf.OperatorMatrix(np.zeros((64, 64), dtype=complex), frame.config)
    with pytest.raises(gf.FitError) as rows:
        gf.decay_profile(gf.gabor_matrix(T, frame), np.eye(2))
    for chi in (np.eye(2), SHEAR):                         # key fold, survivor fold
        with pytest.raises(gf.FitError) as got:
            gf.operator_decay_profile(T, frame, chi)
        assert str(got.value) == str(rows.value) == "only 0 eligible bins, need >= 4"


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_non_finite_entry_raises_the_same_fit_error_in_every_fold(bad):
    # an inf or nan |K| leaves no fit: the key fold, the survivor fold and
    # envelope_fit raise one FitError for it on every worker count
    frame = frame_for(64, None, "A")
    lat = frame.lattice
    E = gf.gabor_matrix(gf.chirp_operator(frame.config, 1), frame).entries
    E[3, 5] = bad
    K = gf.GaborMatrix(E, frame)
    chirp_map = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert integral(tables_of(lat, chirp_map))
    assert not integral(tables_of(lat, SHEAR))
    d1, d2 = tables_of(lat, chirp_map)
    j, k = np.divmod(np.arange(lat.size), lat.n_freq)
    dist = np.sqrt((d1[j] ** 2 + d2[k] ** 2) + 1.0)
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            for fit in (lambda: gf.decay_profile(K, chirp_map),     # key fold
                        lambda: gf.decay_profile(K, SHEAR),         # survivor fold
                        lambda: gf.envelope_fit(dist, E)):
                with pytest.raises(gf.FitError) as got:
                    fit()
                assert str(got.value) == "non-finite |K| among the entries to fit"


def traced_peak(call):
    """The peak of the memory traced while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fused_bytes(frame, entries):
    """T' and the blocks in flight of the fused analyses on the workers
    they run on, as their guard counts them: 16 L^2 bytes, and each block
    the GEMM product and images of its time indices, 32 bytes an entry, and
    a scratch column sub-block of K, 16 bytes an entry."""
    lat, L, N = frame.lattice, frame.config.L, frame.lattice.size
    workers = gm._fused_workers(lat, False)
    with blockpool.worker_limit(workers):
        width = blockpool.block_share(entries) // N
    times = gm._time_blocks(lat.n_time, workers)
    M = max(js.stop - js.start for js in times) * lat.n_freq
    sub = max(c.stop - c.start for c in gabor.column_blocks(M, width))
    return 16 * L * L + min(workers, len(times)) * (32 * M * L + 16 * N * sub)


KEY_ENTRIES = SURVIVOR_ENTRIES = gm.FIT_BLOCK_ENTRIES // 4

# an N x N |K| alone is 8 N^2 bytes; both folds stay below it at every
# worker count.  Beyond T' and the blocks in flight, the folds hold the
# FFT's copy of a sub-block, their own arrays per entry, the displacement
# tables and the key fold's maxima and class counts, under 4 MiB together
# at L = 256
FOLD_BYTES = 4 << 20


def test_key_fold_forms_no_n_by_n_array():
    frame = frame_for(256, None, "A")
    N = frame.lattice.size
    T = gf.dft_operator(frame.config)
    chi = cli.parse_operator("dft", frame.config)[1]
    for workers in (1, 2, 4, 8):
        with blockpool.worker_limit(workers):
            peaks = [traced_peak(lambda: gf.operator_decay_profile(T, frame, chi_))
                     for chi_ in (chi, SHEAR)]     # key fold, survivor fold
            bounds = [fused_bytes(frame, e) + FOLD_BYTES for e in (KEY_ENTRIES, SURVIVOR_ENTRIES)]
        assert max(peaks) < 8 * N * N, (workers, peaks)
        assert all(p < b for p, b in zip(peaks, bounds)), (workers, peaks, bounds)


def test_survivor_fold_of_a_sampled_map_forms_no_n_by_n_array():
    frame = frame_for(256, None, "B")
    N = frame.lattice.size
    T, chi, _ = cli.parse_operator("fio2:phase=sine:0.2:16:16,symbol=ones", frame.config)
    assert not integral(tables_of(frame.lattice, chi))
    for workers in (1, 2, 4, 8):
        with blockpool.worker_limit(workers):
            peak = traced_peak(lambda: gf.operator_decay_profile(T, frame, chi))
            bound = fused_bytes(frame, SURVIVOR_ENTRIES) + FOLD_BYTES
        assert peak < 8 * N * N, (workers, peak)
        assert peak < bound, (workers, peak, bound)


def test_decay_fit_forms_no_n_by_l_array():
    # decay-a's size: the first analysis of every lam at once would be
    # 16 N L bytes (16 MiB) by itself
    frame = frame_for(512, None, "A")
    N, L = frame.lattice.size, frame.config.L
    T, chi, _ = cli.parse_operator("dft", frame.config)
    for workers in (1, 2):
        with blockpool.worker_limit(workers):
            peak = traced_peak(lambda: gf.operator_decay_profile(T, frame, chi))
        assert peak < 16 * N * L, (workers, peak)


def test_key_tables_hold_one_float_table_at_a_time(monkeypatch):
    # a = b = 2: each table takes 2 MiB at L = 128, and the key fold's
    # tables are formed with both float tables and one intp table at most
    # (5 tables' worth while both float tables stayed through both
    # conversions)
    cfg = gf.ModelConfig(L=128)
    lat = gf.Lattice(2, 2, cfg)
    table = 8 * lat.n_time * lat.size
    want = [(d ** 2).astype(np.intp) for d in tables_of(lat, np.eye(2))]
    got = []
    monkeypatch.setattr(gm, "_key_fit", lambda columns, *tables: got.extend(tables))
    peak = traced_peak(lambda: gm._decay_fit(None, lat, np.eye(2)))
    assert peak < 3.5 * table, peak / table
    assert [g.dtype for g in got] == [np.intp, np.intp]
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)


def decay_a_specs(L):
    """The operators of the decay-a benchmark workload at size L."""
    for c in (1, 2, 3, 4):
        for sign in (1, -1):
            yield f"chirp:{sign * c}"
            if c < 4:
                yield f"dft*chirp:{sign * c}"
                yield f"fio1:phase=chirp:{sign * c},symbol=random-smooth:{c}"
    yield from ("dft", "dilate:-1", f"dilate:{L - 1}", "kn:symbol=random-smooth:9")


def test_benchmark_decay_runs_take_the_key_fold():
    cfg = gf.ModelConfig(L=512)
    lat = gf.default_lattice(cfg)
    for spec in decay_a_specs(512):
        assert integral(tables_of(lat, cli.parse_operator(spec, cfg)[1])), spec
    # tame-b: the identity of fio1:phase=kn folds by keys, its sine phases by survivors
    cfg = gf.ModelConfig(L=256, regime="B")
    lat = gf.default_lattice(cfg)
    for spec, keyed in (("fio1:phase=kn,symbol=ones", True),
                        ("fio1:phase=sine:0.2:16:16,symbol=ones", False),
                        ("fio2:phase=sine:0.2:16:16,symbol=ones", False)):
        assert integral(tables_of(lat, cli.parse_operator(spec, cfg)[1])) == keyed, spec


def test_size_guard_raises_before_the_n_by_n_arrays(monkeypatch, frame16):
    T = gf.dft_operator(frame16.config)
    K = gf.gabor_matrix(T, frame16)
    N = frame16.lattice.size

    def fold():
        gm._gabor_columns(T, frame16, frame16.tight, lambda cols, v, scratch: None)

    # each guard admits exactly its own arrays
    for budget, call in ((16 * N * N, lambda: gf.gabor_matrix(T, frame16)),
                         (fused_bytes(frame16, KEY_ENTRIES), fold),
                         (16 * N * N, lambda: gm.wrapped_displacements(K, np.eye(2)))):
        monkeypatch.setattr(gm, "_memory_budget", lambda: budget)
        call()
        monkeypatch.setattr(gm, "_memory_budget", lambda: budget - 1)
        with pytest.raises(gf.SizeError):
            call()


@pytest.mark.parametrize("regime,spec", [("A", "dft"), ("B", "fio1:phase=kn,symbol=ones")])
def test_size_guard_raises_before_the_per_key_arrays(monkeypatch, regime, spec):
    # the key fold's maxima take 8 bytes a key and its class counts 16
    # bytes a (key, count) pair; that budget admits the fit of a given K,
    # and one byte short stops the key fold over the columns of K and over
    # the fused analyses of T before the maxima are allocated.  The fold
    # runs on tables formed before the budget is patched: here they are
    # larger than the per-key arrays, and their own guard would stop the
    # decay profiles first
    frame = frame_for(64, None, regime)
    T, chi, _ = cli.parse_operator(spec, frame.config)
    K = gf.gabor_matrix(T, frame)
    sq1, sq2 = ((d ** 2).astype(np.intp) for d in tables_of(frame.lattice, chi))
    n_keys = int(sq1.max()) + int(sq2.max()) + 1
    need = 8 * n_keys + 16 * gm._key_counts(sq1, sq2)[0].size
    want = gf.decay_profile(K, chi)
    monkeypatch.setattr(gm, "_memory_budget", lambda: need)
    assert gm._key_fit(gm._matrix_columns(K), sq1, sq2) == want
    monkeypatch.setattr(gm, "_memory_budget", lambda: need - 1)
    for columns in (gm._matrix_columns(K),
                    partial(gm._gabor_columns, T, frame, frame.tight)):
        with pytest.raises(gf.SizeError, match="the per-key maxima and the key counts"):
            gm._key_fit(columns, sq1, sq2)


def test_size_guard_raises_before_the_displacement_tables(monkeypatch):
    # the two tables take 8 bytes an entry, (n_time + n_freq) N entries;
    # that budget admits them, and one byte short stops every pass that
    # forms them before they are allocated
    frame = frame_for(32, (4, 2), "A")
    lat = frame.lattice
    T, chi, _ = cli.parse_operator("chirp:1", frame.config)
    K = gf.gabor_matrix(T, frame)
    need = 8 * (lat.n_time + lat.n_freq) * lat.size
    monkeypatch.setattr(gm, "_memory_budget", lambda: need)
    tables_of(lat, chi)
    monkeypatch.setattr(gm, "_memory_budget", lambda: need - 1)
    for call in (lambda: tables_of(lat, chi),
                 lambda: gf.decay_profile(K, chi),
                 lambda: gf.operator_decay_profile(T, frame, chi),
                 lambda: gf.offgraph_max(K, chi),
                 lambda: gf.offgrid_decay_check(T, frame, chi, s=4.0)):
        with pytest.raises(gf.SizeError, match="the displacement tables"):
            call()


def test_decay_over_the_tables_budget_exits_1_with_a_size_error_report(monkeypatch,
                                                                      tmp_path):
    # a = b = 1: the tables take 8 (L + L) L^2 bytes, 64 times the L x L operator
    L = 32
    monkeypatch.setattr(gm, "_memory_budget", lambda: 16 * L ** 3 - 1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"L": L}, "frame": {"a": 1, "b": 1},
                                "operator": "chirp:1"}))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "SizeError"
    assert "the displacement tables" in report["error"]["message"]


def test_sweep_probe_guard_admits_exactly_the_probes(monkeypatch, tmp_path):
    # each probe and its dense product take 32 bytes a lattice point, more
    # than the Gabor matrix for as many probes as points; one byte short
    # stops the sweep before it forms K or draws a probe
    L = 16
    N = gf.default_lattice(gf.ModelConfig(L=L)).size
    calls, gabor_matrix = [], gm.gabor_matrix
    monkeypatch.setattr(gm, "gabor_matrix",
                        lambda *args: calls.append(args) or gabor_matrix(*args))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"L": L}, "pipeline": "sparsity-sweep",
                                "sweep": {"probes": N}}))
    monkeypatch.setattr(gm, "_memory_budget", lambda: 32 * N * N)
    cli.main(["run", str(path), "--out", str(tmp_path / "fits")])
    assert json.loads((tmp_path / "fits" / "report.json").read_text())["error"] is None
    assert len(calls) == 1
    monkeypatch.setattr(gm, "_memory_budget", lambda: 32 * N * N - 1)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "SizeError"
    assert "the sweep's probes and their dense products" in report["error"]["message"]
    assert len(calls) == 1
    assert not (out / "sweep.csv").exists()


def test_sweep_guard_admits_exactly_the_absolute_values_and_the_densest_matrix(
        monkeypatch, tmp_path):
    # |K| takes 8 bytes an entry of K and the densest matrix a threshold can
    # keep 24 (column, real and imaginary parts of every entry): that budget
    # admits the sweep, and one byte short stops it before the first
    # threshold, after K and the probes' dense products
    L = 16
    N = gf.default_lattice(gf.ModelConfig(L=L)).size
    K = gf.gabor_matrix(gf.chirp_operator(gf.ModelConfig(L=L), 1), frame_for(L, None, "A"))
    monkeypatch.setattr(gm, "_memory_budget", lambda: 32 * N * N)
    assert [S.nnz for S in gf.sparsify_each(K, [0.0, 1e-3])][0] == N * N
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"L": L}, "pipeline": "sparsity-sweep"}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "fits")]) == 0
    monkeypatch.setattr(gm, "_memory_budget", lambda: 32 * N * N - 1)
    with pytest.raises(gf.SizeError, match="the densest sparse matrix of the sweep"):
        gf.sparsify(K, 0.0)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "SizeError"
    assert "|K| and the densest sparse matrix of the sweep" in report["error"]["message"]
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("L", [64, 128])
def test_sweep_holds_one_sparse_matrix_and_bounded_temporaries(tmp_path, L):
    # the sweep holds K (16 bytes an entry), |K| (8) and one matrix, at most
    # 24 bytes an entry at the densest threshold; its blocks of rows (up to
    # 1 MiB at W = 1) and of slots (half a MiB), the probes and the operator
    # stay under 2.5 MiB.  The whole-matrix
    # temporaries of one matrix (an N x N argsort and complex copy, an N x N
    # gather and two products) or a second matrix alive while the next is
    # formed each add at least 24 bytes an entry
    frame = frame_for(L, None, "A")
    N = frame.lattice.size
    T = gf.chirp_operator(frame.config, 1)
    cfg = {"sweep": {"tau_grid": [1e-2, 1e-6, 1e-10, 0.0, 1e-3], "repeats": 2, "probes": 4}}
    for workers in (1, 2, 3):
        with blockpool.worker_limit(workers):
            peak = traced_peak(lambda: cli.sparsity_sweep(
                cfg, frame, T, np.random.Generator(np.random.Philox(0)), tmp_path))
        assert peak < 48 * N * N + (5 << 19), (workers, peak)


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


def test_a_huge_operator_exits_1_before_any_lattice_is_built(monkeypatch, tmp_path):
    # the default lattice scans the divisors of L up to sqrt(L): 10^9 steps
    # at L = 10^18, so the size guard must come first
    divisors = cli.gabor._divisors

    def small_divisors(n):
        assert n < 1 << 20, n
        return divisors(n)

    monkeypatch.setattr(cli.gabor, "_divisors", small_divisors)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"L": 10 ** 18}, "operator": "chirp:1"}))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "SizeError"
    assert "L x L operator" in report["error"]["message"]


def test_operator_guard_admits_exactly_one_operator(monkeypatch, tmp_path):
    # at 16 L^2 bytes the run gets past the guard to the frame, and then
    # stops at the guard of T' and the image blocks of the key fold
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
    assert "T' and the atom-image blocks in flight" in report["error"]["message"]
    assert len(calls) == 1
