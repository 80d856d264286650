"""The array forms of the matrix.csv writer and reader and the symbol-class
sweep against the per-element loops they replaced, kept here as references;
the off-grid check against dense Gabor matrices of the conjugated operators
and, to rounding, against its per-atom loop; the reader's input contract."""

import csv
import sys
import time

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import blockpool
from test_gabor_magnitudes import traced_peak

SHEAR = np.array([[1.0, 0.0], [1.0, 1.0]])


def loop_to_csv(K, path):
    """Row by row through csv.writer."""
    pts = K.lattice.points()
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["mu_k", "mu_m", "lam_k", "lam_m", "re", "im"])
        for i, mu in enumerate(pts):
            for j, lam in enumerate(pts):
                v = K.entries[i, j]
                wtr.writerow([mu[0], mu[1], lam[0], lam[1],
                              repr(float(v.real)), repr(float(v.imag))])


def loop_from_csv(path, frame):
    """Row by row through csv.reader and a point -> index dict."""
    lat = frame.lattice
    index = {(int(p[0]), int(p[1])): i for i, p in enumerate(lat.points())}
    K = np.zeros((lat.size, lat.size), dtype=complex)
    with open(path, newline="") as fh:
        rdr = csv.reader(fh)
        next(rdr)
        for row in rdr:
            mu = index[(int(row[0]), int(row[1]))]
            lam = index[(int(row[2]), int(row[3]))]
            K[mu, lam] = float(row[4]) + 1j * float(row[5])
    return K


def loop_symbol_envelope(sigma, Psi):
    """One 2d FFT per translate z = (z1, z2)."""
    L = sigma.config.L
    env = np.zeros((L, L))
    for z1 in range(L):
        P1 = np.roll(Psi, z1, axis=0)
        for z2 in range(L):
            F = np.fft.fft2(sigma.values * np.conj(np.roll(P1, z2, axis=1)))
            np.maximum(env, np.abs(F), out=env)
    return env


def loop_offgrid(T, frame, chi, s, n_offsets):
    """One tf_shift, matvec and STFT per atom into an (N, L, L) grid per offset."""
    lat = frame.lattice
    L = frame.config.L
    pts = lat.points().astype(float)
    w = frame.tight
    offsets = [(0, 0)] + gf.gabormatrix._offsets_for(lat, n_offsets)
    grids = {}
    for u in offsets:
        cols = np.empty((lat.size, L, L), dtype=complex)
        for i, p in enumerate(pts):
            atom = gf.tf_shift(w, int(p[0] + u[0]), int(p[1] + u[1]))
            cols[i] = gf.stft(gf.Signal(T.entries @ atom.values, T.config), w).values
        grids[u] = cols

    def constant(u_z, u_w):
        z = pts + np.array(u_z, dtype=float)
        img = gf.gabormatrix._chi_points(chi, gf.wrap_half(z, L))
        wpts = (pts + np.array(u_w, dtype=float)).astype(int)
        vals = np.abs(grids[u_z][:, wpts[:, 0] % L, wpts[:, 1] % L])
        d1 = gf.wrap_half(wpts[None, :, 0] - img[:, 0][:, None], L)
        d2 = gf.wrap_half(wpts[None, :, 1] - img[:, 1][:, None], L)
        return float((vals * (1.0 + d1 ** 2 + d2 ** 2) ** (s / 2)).max())

    return (constant((0, 0), (0, 0)),
            max(constant(uz, uw) for uz in offsets for uw in offsets))


def dense_offgrid(T, frame, chi, s, n_offsets):
    """(C_lattice, C_offgrid) from the whole (N, N) arrays: the max over the
    offset pairs (u, v) of |gabor_matrix(_shifted(T, u, v))| times the
    weights <mu - (chi(wrap(lam + u)) - v)>^s."""
    lat = frame.lattice
    L = frame.config.L
    pts = lat.points()
    offsets = [(0, 0)] + gf.gabormatrix._offsets_for(lat, n_offsets)

    def constant(u, v):
        img = gf.gabormatrix._chi_points(chi, gf.wrap_half((pts + u).astype(float), L)) - v
        d1 = gf.wrap_half(pts[:, 0][:, None] - img[:, 0][None, :], L)
        d2 = gf.wrap_half(pts[:, 1][:, None] - img[:, 1][None, :], L)
        absK = np.abs(gf.gabor_matrix(gf.gabormatrix._shifted(T, u, v), frame).entries)
        return float((((1.0 + d1 ** 2) + d2 ** 2) ** (s / 2) * absK).max())

    return (constant((0, 0), (0, 0)),
            max(constant(u, v) for u in offsets for v in offsets))


def bits(a):
    return np.asarray(a).view(np.uint64)


def frame_for(L, regime="A", steps=None):
    cfg = gf.ModelConfig(L=L, regime=regime)
    lat = gf.default_lattice(cfg) if steps is None else gf.Lattice(*steps, cfg)
    return gf.build_frame(gf.periodized_gaussian(cfg), lat)


@pytest.mark.parametrize("L", [16, 64])
@pytest.mark.parametrize("regime", ["A", "B"])
def test_csv_bytes_and_readback_match_loops(tmp_path, monkeypatch, L, regime):
    frame = frame_for(L, regime)
    rng = np.random.Generator(np.random.Philox(L))
    cfg = frame.config
    N = frame.lattice.size
    T = gf.OperatorMatrix(rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)), cfg)
    for op in (gf.chirp_operator(cfg, 1), T):
        K = gf.gabor_matrix(op, frame)
        # signed zeros and non-finite values keep their text and bits
        K.entries[0, :4] = [0.0, -0.0 + 0j, complex(-0.0, -0.0), complex(np.inf, np.nan)]
        gf.gabor_matrix_to_csv(K, tmp_path / "new.csv")
        loop_to_csv(K, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        got = gf.gabor_matrix_from_csv(tmp_path / "ref.csv", frame).entries
        np.testing.assert_array_equal(bits(got), bits(loop_from_csv(tmp_path / "ref.csv",
                                                                    frame)))
    # the last K in blocks of one row, of odd row counts and of all rows; the
    # writer is serial, so W enters only through the block size
    for workers, rows in ((1, 1), (2, 3), (3, 7), (2, N)):
        with monkeypatch.context() as m, blockpool.worker_limit(workers):
            m.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", rows * N * workers)
            gf.gabor_matrix_to_csv(K, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_texts_are_keyed_on_bits(tmp_path, monkeypatch, frame16):
    # few values, so every row block is full of ties; 0.0 and -0.0 are equal
    # floats of different text, the two NaNs different bits of one text
    values = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, 1.0, -0.25])
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
    values = np.concatenate([values, nans.view(np.float64)])
    rng = np.random.Generator(np.random.Philox(5))
    N = frame16.lattice.size
    K = gf.GaborMatrix(values[rng.integers(len(values), size=(N, N, 2))].view(complex)[..., 0],
                       frame16)
    assert np.isin(bits(values), bits(K.entries[:1].view(np.float64))).all()
    loop_to_csv(K, tmp_path / "ref.csv")
    for workers in (1, 2, 3):
        for rows in (1, 3, N):
            with monkeypatch.context() as m, blockpool.worker_limit(workers):
                m.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", rows * N * workers)
                gf.gabor_matrix_to_csv(K, tmp_path / "new.csv")
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "ref.csv").read_bytes()), (workers, rows)


def test_csv_writer_memory(tmp_path):
    """repr runs once per distinct float of a row block, the blocks are sized
    at 32 bytes an entry, and the texts of one block are released before
    the next block's are formed."""
    chirp = gf.gabor_matrix(gf.chirp_operator(gf.ModelConfig(L=64), 1), frame_for(64))
    frame = frame_for(128)
    N = frame.lattice.size
    rng = np.random.Generator(np.random.Philox(128))
    dense = gf.GaborMatrix(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)), frame)
    with blockpool.worker_limit(2):
        assert len(gf.gabormatrix._row_blocks(N, 4 * N)) == 16
        # 64 rows a block at L = 64, of many repeated floats
        assert traced_peak(lambda: gf.gabor_matrix_to_csv(chirp, tmp_path / "m.csv")) < 2 << 20
        # no repeats, 32 rows a block; two blocks' texts at once would trace
        # about 5.9 MiB
        assert traced_peak(lambda: gf.gabor_matrix_to_csv(dense, tmp_path / "m.csv")) < 5 << 20


def test_csv_reader_accepts_any_row_order(tmp_path, frame16):
    K = gf.gabor_matrix(gf.dft_operator(frame16.config), frame16)
    gf.gabor_matrix_to_csv(K, tmp_path / "m.csv")
    header, *rows = (tmp_path / "m.csv").read_text().splitlines(keepends=True)
    order = np.random.Generator(np.random.Philox(1)).permutation(len(rows))
    (tmp_path / "shuffled.csv").write_text(header + "".join(rows[i] for i in order))
    got = gf.gabor_matrix_from_csv(tmp_path / "shuffled.csv", frame16).entries
    np.testing.assert_array_equal(bits(got), bits(K.entries))


@pytest.mark.parametrize("row,what", [
    ("1,0,0,0,1.0,0.0", "off"),          # mu_k = 1 is not a multiple of a = 2
    ("0,0,16,0,1.0,0.0", "off"),         # lam_k = L lies outside [0, L)
    ("0,0,-2,0,1.0,0.0", "off"),
    ("0,0,0.5,0,1.0,0.0", "off"),
    ("0,0,0,0,abc,0.0", "convert"),
    ("0,x,0,0,1.0,0.0", "convert"),
    ("0,0,0,0,1.0", "columns"),
    ("0,0,0,0,1.0,0.0,7", "columns"),
])
def test_csv_reader_rejects_malformed_rows(tmp_path, frame16, row, what):
    good = "2,0,0,2,0.5,-0.25\r\n"
    path = tmp_path / "bad.csv"
    path.write_text("mu_k,mu_m,lam_k,lam_m,re,im\r\n" + good + row + "\r\n" + good,
                    newline="")
    with pytest.raises(gf.ModelError, match=what) as exc:
        gf.gabor_matrix_from_csv(path, frame16)
    assert "\n" not in str(exc.value)
    # a file of such rows alone fails the same way
    path.write_text("mu_k,mu_m,lam_k,lam_m,re,im\n" + row + "\n")
    with pytest.raises(gf.ModelError, match=what):
        gf.gabor_matrix_from_csv(path, frame16)


def test_csv_reader_header_only_is_zero_matrix(tmp_path, frame16):
    path = tmp_path / "empty.csv"
    path.write_text("mu_k,mu_m,lam_k,lam_m,re,im\r\n", newline="")
    assert not gf.gabor_matrix_from_csv(path, frame16).entries.any()
    path.write_text("")
    with pytest.raises(gf.ModelError, match="header"):
        gf.gabor_matrix_from_csv(path, frame16)


@pytest.mark.parametrize("header", ["mu_k,mu_m,lam_k,lam_m,im,re",   # parts swapped
                                    "mu_k,mu_m,lam_k,lam_m,re"])
def test_csv_reader_rejects_any_header_but_the_writers(tmp_path, frame16, header):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\r\n0,0,0,0,1.0,2.0\r\n", newline="")
    with pytest.raises(gf.ModelError, match="^unrecognized Gabor-matrix CSV header$"):
        gf.gabor_matrix_from_csv(path, frame16)


def csv_rows(path):
    header, *rows = path.read_text().splitlines(keepends=True)
    return header, rows


def test_csv_reader_chunks_keep_bits_and_the_last_row(tmp_path, monkeypatch, frame16):
    K = gf.gabor_matrix(gf.chirp_operator(frame16.config, 1), frame16)
    gf.gabor_matrix_to_csv(K, tmp_path / "m.csv")
    header, rows = csv_rows(tmp_path / "m.csv")
    # a second row for the point of data row 1 in a later chunk, and blank
    # lines that fill a whole chunk before it
    twice = rows[0].rsplit(",", 2)[0] + ",0.5,-0.25\r\n"
    (tmp_path / "twice.csv").write_text(header + "".join(rows) + "\r\n" * 7 + twice,
                                        newline="")
    want = K.entries.copy()
    want[0, 0] = 0.5 - 0.25j
    # chunk sizes that do not divide the 4096 rows, that do, and one row
    for lines in (7, 1000, 4096, 1):
        monkeypatch.setattr(gf.gabormatrix, "CSV_CHUNK_LINES", lines)
        got = gf.gabor_matrix_from_csv(tmp_path / "m.csv", frame16).entries
        np.testing.assert_array_equal(bits(got), bits(K.entries))
        got = gf.gabor_matrix_from_csv(tmp_path / "twice.csv", frame16).entries
        np.testing.assert_array_equal(bits(got), bits(want))


def test_csv_reader_names_the_global_row_of_a_later_chunk(tmp_path, monkeypatch, frame16):
    monkeypatch.setattr(gf.gabormatrix, "CSV_CHUNK_LINES", 3)
    good = "2,0,0,2,0.5,-0.25\r\n"
    path = tmp_path / "bad.csv"
    # data row 8 names mu_k = 1, off the 2 x 2 lattice, in the third chunk
    path.write_text("mu_k,mu_m,lam_k,lam_m,re,im\r\n" + good * 7 + "1,0,0,0,1.0,0.0\r\n"
                    + good, newline="")
    with pytest.raises(gf.ModelError, match=r"data row 8 names a point off"):
        gf.gabor_matrix_from_csv(path, frame16)
    # a field that does not parse names the data row its chunk follows
    path.write_text("mu_k,mu_m,lam_k,lam_m,re,im\r\n" + good * 7 + "0,0,0,0,abc,0.0\r\n",
                    newline="")
    with pytest.raises(gf.ModelError, match=r"convert.*after data row 6\)$"):
        gf.gabor_matrix_from_csv(path, frame16)


def test_csv_reader_memory(tmp_path):
    """The reader holds K and one chunk of rows, not an array of all rows
    (29 MiB traced at L = 128 when the whole file was one array)."""
    frame = frame_for(128)
    N = frame.lattice.size
    K = gf.gabor_matrix(gf.chirp_operator(frame.config, 1), frame)
    gf.gabor_matrix_to_csv(K, tmp_path / "m.csv")
    peak = traced_peak(lambda: gf.gabor_matrix_from_csv(tmp_path / "m.csv", frame))
    assert peak < 16 * N * N + (2 << 20), peak


def nonseparable_window(cfg):
    # a rotated anisotropic Gaussian bump on the torus: not an outer product
    x = gf.wrap_half(np.arange(cfg.L), cfg.L) / np.sqrt(cfg.L)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return gf.SymbolGrid(np.exp(-np.pi * (X ** 2 + 0.6 * X * Y + 2.0 * Y ** 2))
                         * np.exp(0.3j * X), cfg)


@pytest.mark.parametrize("L", [16, 32, 64])
@pytest.mark.parametrize("separable", [True, False])
def test_symbol_class_matches_loop(L, separable):
    cfg = gf.ModelConfig(L=L)
    sigma = gf.random_smooth_symbol(cfg, np.random.Generator(np.random.Philox(L)))
    if separable:
        window2d = None
        g = gf.periodized_gaussian(cfg).values
        Psi = np.outer(g, g)
    else:
        window2d = nonseparable_window(cfg)
        Psi = window2d.values
    rep = gf.symbol_class_norm(sigma, 2.0, window2d=window2d)
    env = loop_symbol_envelope(sigma, Psi)
    np.testing.assert_array_equal(bits(rep.envelope), bits(env))
    zw = gf.wrap_half(np.arange(L), L)
    dist = np.sqrt(1.0 + zw[:, None] ** 2 + zw[None, :] ** 2)
    bins, s_sym, _, _ = gf.envelope_fit(dist, env)
    assert (rep.norm, rep.s_sym, rep.bins) == (float((env * dist ** 2.0).max()), s_sym, bins)


def test_symbol_class_block_size_does_not_change_envelope(monkeypatch):
    cfg = gf.ModelConfig(L=32)
    sigma = gf.random_smooth_symbol(cfg, np.random.Generator(np.random.Philox(3)))
    window2d = nonseparable_window(cfg)
    want = loop_symbol_envelope(sigma, window2d.values)
    # three workers (more than a 2-CPU machine runs at once) contend for
    # the envelope's lock
    for translates in (1, 7, 32, 40):
        monkeypatch.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", translates * 32 * 32)
        for workers in (1, 2, 3):
            with blockpool.worker_limit(workers):
                got = gf.symbol_class_norm(sigma, 2.0, window2d=window2d).envelope
            np.testing.assert_array_equal(bits(got), bits(want))


@pytest.mark.parametrize("n_offsets", [0, 1, 3, 5])
@pytest.mark.parametrize("L,steps", [(64, None), (32, (4, 2))])
def test_offgrid_matches_loop(n_offsets, L, steps):
    frame = frame_for(L, steps=steps)
    cfg = frame.config
    rng = np.random.Generator(np.random.Philox(0))
    T = gf.OperatorMatrix(rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)), cfg)
    # every map is an integer map, so the dense weights are exact; the
    # per-atom loop forms T pi(z) w and its STFT in another order, so it
    # agrees to rounding only (with s = 0 the constants are max |K|)
    for op, chi, s in ((gf.chirp_operator(cfg, 1), SHEAR, 4.0), (T, np.eye(2), 0.0),
                       (T, SHEAR, 4.0)):
        rep = gf.offgrid_decay_check(op, frame, chi, s=s, n_offsets=n_offsets)
        got = (rep.C_lattice, rep.C_offgrid)
        assert got == dense_offgrid(op, frame, chi, s, n_offsets)
        np.testing.assert_allclose(got, loop_offgrid(op, frame, chi, s, n_offsets),
                                   rtol=1e-12, atol=0)


def test_offgrid_block_size_does_not_change_result(monkeypatch):
    frame = frame_for(32)
    cfg = frame.config
    rng = np.random.Generator(np.random.Philox(6))
    T = gf.OperatorMatrix(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)), cfg)
    chi = SHEAR @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    want = dense_offgrid(T, frame, chi, 3.0, 3)
    N, L = frame.lattice.size, cfg.L
    for atoms in (1, 7, N, N + 3):
        monkeypatch.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", atoms * L * L)
        rep = gf.offgrid_decay_check(T, frame, chi, s=3.0, n_offsets=3)
        assert (rep.C_lattice, rep.C_offgrid) == want


def test_batched_shift_and_stft_match_per_row(frame64):
    w = frame64.tight
    L = frame64.config.L
    rng = np.random.Generator(np.random.Philox(2))
    k, m = rng.integers(-2 * L, 2 * L, size=(2, 40))
    rows = gf.tf_shift_matrix(w.values, k, m)
    for i in range(len(k)):
        ref = np.exp(2j * np.pi * (int(m[i]) % L) * np.arange(L) / L) \
            * np.roll(w.values, int(k[i]) % L)
        np.testing.assert_array_equal(bits(rows[i].view(float)), bits(ref.view(float)))
    n = np.arange(L)
    G = np.conj(w.values[(n[None, :] - n[:, None]) % L])
    for i in range(len(k)):
        V = gf.stft(gf.Signal(rows[i], frame64.config), w).values
        ref = np.fft.fft(rows[i][None, :] * G, axis=1)
        np.testing.assert_array_equal(bits(V.view(float)), bits(ref.view(float)))


@pytest.mark.parametrize("L,spread", [(64, True), (128, False)])
def test_offgrid_is_the_same_for_every_worker_count(monkeypatch, L, spread):
    # threads switch every microsecond.  At L = 128 the fused passes split
    # over two workers of their own accord; at L = 64 they are spread over
    # every worker of the pool, up to more workers than CPUs, over
    # COLUMN_ALIGN-wide blocks, where a lost block maximum would change C
    frame = frame_for(L)
    T = gf.dft_operator(frame.config)
    chi = np.array([[0.0, 1.0], [-1.0, 0.0]])
    want = dense_offgrid(T, frame, chi, 2.5, 3)
    counts = (1, 2, 3)
    if spread:
        monkeypatch.setattr(gf.gabormatrix, "_fused_workers",
                            lambda lat, whole: blockpool.workers())
        monkeypatch.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", 1)
        counts += (6,)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in counts:
            with blockpool.worker_limit(workers):
                rep = gf.offgrid_decay_check(T, frame, chi, s=2.5, n_offsets=3)
            assert (rep.C_lattice, rep.C_offgrid) == want, workers
    finally:
        sys.setswitchinterval(interval)


def loop_offsets(lat, n_offsets):
    """The offsets of _offsets_for by its loop over every j <= n_offsets."""
    diag, axis = [], []
    for j in range(1, n_offsets + 1):
        t = j / (n_offsets + 1)
        c = (round(lat.a * t), round(lat.b * t))
        if c != (0, 0) and c not in diag:
            diag.append(c)
        for c in ((round(lat.a * t), 0), (0, round(lat.b * t))):
            if c != (0, 0) and c not in axis and c not in diag:
                axis.append(c)
    return (diag + [c for c in axis if c not in diag])[:n_offsets]


def test_offsets_equal_the_loop_over_every_fraction():
    # the loop runs only where a rounded coordinate steps up, so its time is
    # bounded by the lattice, not by n_offsets
    lattices = [gf.default_lattice(gf.ModelConfig(L=L)) for L in (16, 32, 64)]
    lattices.append(gf.Lattice(4, 2, gf.ModelConfig(L=32)))
    for lat in lattices:
        for n in range(201):
            assert gf.gabormatrix._offsets_for(lat, n) == loop_offsets(lat, n), (lat, n)
    lat = gf.default_lattice(gf.ModelConfig(L=32))
    t0 = time.perf_counter()
    got = gf.gabormatrix._offsets_for(lat, 3 * 10 ** 6)
    assert time.perf_counter() - t0 < 0.05
    assert len(got) == 11 and got[:2] == [(1, 0), (1, 1)]


def test_shifted_is_the_operator_conjugated_by_the_offsets():
    # T_uv = P_v^H T P_u, the columns of P_u the pi(u) of the unit impulses
    cfg = gf.ModelConfig(L=16)
    rng = np.random.Generator(np.random.Philox(4))
    T = gf.OperatorMatrix(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)), cfg)

    def P(u):
        return np.stack([gf.tf_shift(gf.delta(cfg, n), *u).values for n in range(16)],
                        axis=1)

    for u, v in (((0, 0), (0, 0)), ((1, 0), (0, 3)), ((2, 1), (3, 2)), ((-1, 5), (7, -2))):
        want = P(v).conj().T @ T.entries @ P(u)
        # tf_shift's phases reduce m mod L, not m n: they agree to rounding
        np.testing.assert_allclose(gf.gabormatrix._shifted(T, u, v).entries, want,
                                   rtol=1e-13, atol=0)
