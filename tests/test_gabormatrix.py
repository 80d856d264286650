import numpy as np
import pytest

import gaborfio as gf

MJ = np.array([[0.0, 1.0], [-1.0, 0.0]])
SHEAR = np.array([[1.0, 0.0], [1.0, 1.0]])


@pytest.fixture(scope="module")
def K_id64(frame64):
    return gf.gabor_matrix(gf.identity_operator(frame64.config), frame64)


@pytest.fixture(scope="module")
def K_chirp64(frame64):
    return gf.gabor_matrix(gf.chirp_operator(frame64.config, 1), frame64)


def row_padded_schur(M):
    """Schur's bound max(row sums, column sums) of |M| for a RowPaddedMatrix:
    the row sums run over its slots, the column sums gather by its column
    indices (padding slots hold 0)."""
    A = np.hypot(M.re, M.im)
    col_sums = np.bincount(M.cols.ravel(), weights=A.ravel(), minlength=M.shape[1])
    return float(max(A.sum(axis=0).max(initial=0.0), col_sums.max(initial=0.0)))


def unweighted_s_fit(prof):
    """-slope of the plain least-squares line through the profile's eligible
    bins (log envelope on log distance), every bin weighted alike."""
    x, y = zip(*[(np.log(d), np.log(e)) for d, e, c in prof.bins
                 if c >= gf.gabormatrix.FIT_MIN_COUNT and d >= gf.gabormatrix.FIT_MIN_DIST])
    return -np.polyfit(x, y, 1)[0]


def displacement_spread(K, A):
    """Max modulus spread of |K| over orbits of equal wrapped mu - A lam."""
    lat = K.lattice
    L = K.frame.config.L
    pts = lat.points()
    img = (pts @ np.asarray(A).T) % L
    groups = {}
    for i, mu in enumerate(pts):
        for j in range(lat.size):
            d = tuple(((mu - img[j]) % L).astype(int))
            groups.setdefault(d, []).append(abs(K.entries[i, j]))
    return max(max(v) - min(v) for v in groups.values())


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_identity_matrix_is_reproducing_kernel(frame16):
    # K[mu, lam] = <pi(lam) w, pi(mu) w> = V_w w(mu - lam) up to phase
    K = gf.gabor_matrix(gf.identity_operator(frame16.config), frame16)
    w = frame16.tight
    V = np.abs(gf.stft(w, w).values)
    pts = frame16.lattice.points()
    L = frame16.config.L
    for i, mu in enumerate(pts):
        for j, lam in enumerate(pts):
            d = (mu - lam) % L
            assert abs(K.entries[i, j]) == pytest.approx(V[d[0], d[1]], abs=1e-12)


def test_gabor_matrix_against_direct_inner_products(frame16, rng):
    T = gf.OperatorMatrix(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                          frame16.config)
    K = gf.gabor_matrix(T, frame16)
    pts = frame16.lattice.points()
    w = frame16.tight
    for i in [0, 5, 17]:
        for j in [3, 11, 40]:
            atom = gf.tf_shift(w, *map(int, pts[j]))
            direct = np.vdot(gf.tf_shift(w, *map(int, pts[i])).values,
                             T.entries @ atom.values)
            assert K.entries[i, j] == pytest.approx(direct, abs=1e-12)


def test_chirp_offgraph_concentration(K_chirp64, frame64):
    # sharp concentration along the shear graph; with the raw Gaussian window
    # the scan is satellite-free and clears the 1e-4 gate with two orders of
    # margin, while the tight-window satellites sit at the 1.4e-4 scale
    raw = gf.gabor_matrix(gf.chirp_operator(frame64.config, 1), frame64,
                          use_tight=False)
    assert gf.offgraph_max(raw, SHEAR, min_steps=8.0) <= 1e-4
    assert gf.offgraph_max(K_chirp64, SHEAR, min_steps=8.0) <= 2e-4


def test_dft_matrix_is_displacement_function(frame16):
    K = gf.gabor_matrix(gf.dft_operator(frame16.config), frame16)
    assert displacement_spread(K, MJ) < 1e-10


# ---------------------------------------------------------------------------
# decay profiles
# ---------------------------------------------------------------------------

def test_identity_decay_profile(K_id64):
    prof = gf.decay_profile(K_id64, np.eye(2))
    assert prof.s_fit >= 6.5          # occupancy-weighted fit; observed ~6.9
    assert unweighted_s_fit(prof) >= 8.0   # unweighted fit; observed ~10.9
    assert prof.C_fit > 0 and np.isfinite(prof.C_fit)


def test_allones_profile_is_flat(frame64):
    N = frame64.lattice.size
    K = gf.GaborMatrix(np.ones((N, N)), frame64)
    prof = gf.decay_profile(K, np.eye(2))
    assert abs(prof.s_fit) < 0.1


def test_wrong_graph_destroys_decay(frame64):
    K = gf.gabor_matrix(gf.dft_operator(frame64.config), frame64)
    prof = gf.decay_profile(K, np.eye(2))      # truth is -J
    assert prof.s_fit < 0.5


def test_decay_profile_bins_sorted_and_fit_error(K_id64, monkeypatch):
    prof = gf.decay_profile(K_id64, np.eye(2))
    dists = [d for d, _, _ in prof.bins]
    assert dists == sorted(dists)
    monkeypatch.setattr(gf.gabormatrix, "FIT_MIN_COUNT", 10 ** 9)
    with pytest.raises(gf.FitError):
        gf.decay_profile(K_id64, np.eye(2))


def test_decay_profile_accepts_canonical_map(K_chirp64):
    prof_mat = gf.decay_profile(K_chirp64, SHEAR)
    prof_map = gf.decay_profile(K_chirp64, gf.linear_map(SHEAR))
    assert prof_mat.s_fit == pytest.approx(prof_map.s_fit)
    with pytest.raises(gf.ModelError):          # a bare callable is not a map
        gf.decay_profile(K_chirp64, lambda y, eta: (y, eta))


# ---------------------------------------------------------------------------
# off-grid equivalence
# ---------------------------------------------------------------------------

def test_offgrid_identity_ratio(cfg64):
    cfg = gf.ModelConfig(L=32)
    fr = gf.build_frame(gf.periodized_gaussian(cfg), gf.Lattice(4, 2, cfg))
    rep = gf.offgrid_decay_check(gf.identity_operator(cfg), fr, np.eye(2), s=4.0)
    assert rep.ratio <= 10.0
    assert rep.C_lattice > 0


def test_offgrid_chirp_ratio():
    cfg = gf.ModelConfig(L=32)
    fr = gf.build_frame(gf.periodized_gaussian(cfg), gf.Lattice(4, 2, cfg))
    rep = gf.offgrid_decay_check(gf.chirp_operator(cfg, 1), fr, SHEAR, s=4.0)
    assert rep.ratio <= 10.0


def test_offgrid_lattice_only_ratio_is_one():
    cfg = gf.ModelConfig(L=32)
    fr = gf.build_frame(gf.periodized_gaussian(cfg), gf.Lattice(4, 2, cfg))
    rep = gf.offgrid_decay_check(gf.identity_operator(cfg), fr, np.eye(2), s=4.0,
                                 n_offsets=0)
    assert rep.ratio == pytest.approx(1.0)


def test_offgrid_requires_regime_a():
    cfg = gf.ModelConfig(L=16, regime="B")
    fr = gf.build_frame(gf.periodized_gaussian(cfg), gf.Lattice(2, 2, cfg))
    with pytest.raises(gf.ModelError):
        gf.offgrid_decay_check(gf.identity_operator(cfg), fr, np.eye(2), s=4.0)


# ---------------------------------------------------------------------------
# sparsification
# ---------------------------------------------------------------------------

def test_sparsify_zero_threshold(K_chirp64):
    S = gf.sparsify(K_chirp64, 0.0)
    assert S.kept_fraction == 1.0
    assert S.dropped_schur_mass == 0.0


def test_sparsify_above_peak(K_chirp64):
    S = gf.sparsify(K_chirp64, np.abs(K_chirp64.entries).max() * 1.01)
    assert S.nnz == 0
    assert S.dropped_schur_mass == pytest.approx(gf.schur_bound(K_chirp64))


def test_sparsify_chirp_fractions(K_chirp64):
    # satellite floor of the tight window keeps tau = 1e-6 dense-ish at L=64;
    # percent-level thresholds reach real sparsity (values pinned by first run)
    S6 = gf.sparsify(K_chirp64, 1e-6)
    assert S6.kept_fraction <= 0.85
    S2 = gf.sparsify(K_chirp64, 2e-2)
    assert S2.kept_fraction <= 0.12


def test_sparse_apply_equals_dense_at_zero_threshold(K_chirp64, rng):
    lat = K_chirp64.lattice
    c = rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size)
    out = gf.sparsify(K_chirp64, 0.0).matrix @ c
    dense = K_chirp64.entries @ c
    assert np.linalg.norm(out - dense) <= 1e-12 * np.linalg.norm(dense)


def test_sparse_apply_empty(K_chirp64, rng):
    lat = K_chirp64.lattice
    out = gf.sparsify(K_chirp64, 1e9).matrix @ rng.normal(size=lat.size)
    assert np.abs(out).max() == 0.0


def test_sparse_apply_error_bounded_by_schur_mass(K_chirp64, rng):
    lat = K_chirp64.lattice
    for tau in (1e-2, 1e-4, 1e-8):
        S = gf.sparsify(K_chirp64, tau)
        for _ in range(5):
            c = rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size)
            err = np.linalg.norm(K_chirp64.entries @ c - S.matrix @ c)
            assert err <= S.dropped_schur_mass * np.linalg.norm(c) + 1e-12


def row_sequential_matvec(A, x):
    """Reference sparse product: each row's nonzero entries in column order,
    each product from real and imaginary parts, summed in sequence from 0."""
    out = np.zeros(A.shape[0], dtype=complex)
    for i, row in enumerate(A):
        re = im = 0.0
        for j in np.flatnonzero(row):
            a, b = complex(row[j]), complex(x[j])
            re += a.real * b.real - a.imag * b.imag
            im += a.real * b.imag + a.imag * b.real
        out[i] = complex(re, im)
    return out


@pytest.mark.parametrize("regime", ["A", "B"])
@pytest.mark.parametrize("L", [16, 32])
def test_row_padded_apply_equals_row_sequential_loop(L, regime, rng):
    cfg = gf.ModelConfig(L=L, regime=regime)
    frame = gf.build_frame(gf.periodized_gaussian(cfg), gf.default_lattice(cfg))
    K = gf.gabor_matrix(gf.chirp_operator(cfg, 1), frame)
    absK = np.abs(K.entries)
    peak = absK.max()
    x = rng.normal(size=len(absK)) + 1j * rng.normal(size=len(absK))
    for tau in (0.0, 1e-10, 1e-6, 1e-3, 1e-1 * peak, 1.01 * peak):
        S = gf.sparsify(K, tau)
        kept = np.where(absK >= tau, K.entries, 0.0)
        assert S.nnz == np.count_nonzero(kept)
        assert S.kept_fraction == (absK >= tau).mean()
        assert S.matrix.shape == K.entries.shape
        assert row_padded_schur(S.matrix) == pytest.approx(gf.schur_bound(kept),
                                                           rel=1e-12)
        assert (S.matrix @ x).tobytes() == row_sequential_matvec(kept, x).tobytes()
    assert S.nnz == 0 and row_padded_schur(S.matrix) == 0.0


def test_schur_bound_of_row_padded_reads_columns():
    # column sums dominate: 3 in column 0, 1 in every row
    A = np.zeros((3, 3), dtype=complex)
    A[:, 0] = [1.0, 1j, -1.0]
    S = gf.SparseGaborMatrix(gf.RowPaddedMatrix.from_dense(A), threshold=0.0,
                             kept_fraction=1 / 3, dropped_schur_mass=0.0)
    assert S.nnz == 3 and S.matrix.cols.shape == (1, 3)
    assert row_padded_schur(S.matrix) == gf.schur_bound(A) == 3.0


def test_row_padded_apply_rejects_wrong_length(K_chirp64):
    S = gf.sparsify(K_chirp64, 1e-3)
    for n in (S.matrix.shape[1] - 1, S.matrix.shape[1] + 1):
        with pytest.raises(gf.ModelError):
            S.matrix @ np.ones(n)


def test_sparse_apply_index_mismatch(K_chirp64, cfg16):
    # coefficients over another lattice do not fit the matrix
    other_lat = gf.Lattice(2, 2, cfg16)
    c = gf.CoefficientArray(np.zeros((8, 8)), other_lat)
    with pytest.raises(gf.ModelError):
        gf.sparsify(K_chirp64, 0.0).matrix @ c.ravel()


# ---------------------------------------------------------------------------
# Schur bound
# ---------------------------------------------------------------------------

def test_schur_bound_identity_matrix():
    assert gf.schur_bound(np.eye(5)) == 1.0


def test_schur_bound_reproducing_kernel(K_id64):
    assert gf.schur_bound(K_id64) >= 1.0


def test_schur_bound_dominates_spectral_norm(rng):
    for _ in range(5):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert gf.schur_bound(A) >= np.linalg.norm(A, 2) - 1e-12


def test_schur_bound_sparse_consistency(K_chirp64):
    S = gf.sparsify(K_chirp64, 1e-3)
    dense_equiv = np.where(np.abs(K_chirp64.entries) >= 1e-3,
                           K_chirp64.entries, 0.0)
    assert row_padded_schur(S.matrix) == pytest.approx(gf.schur_bound(dense_equiv))


# ---------------------------------------------------------------------------
# symbol-class norms
# ---------------------------------------------------------------------------

def test_symbol_class_flat_symbol():
    cfg = gf.ModelConfig(L=32)
    rep = gf.symbol_class_norm(gf.symbol_ones(cfg), s=2.0)
    assert rep.s_sym >= 8.0           # observed ~15.2: super-polynomial envelope
    peak = np.unravel_index(np.argmax(rep.envelope), rep.envelope.shape)
    assert peak == (0, 0)


def test_symbol_class_rough_symbol(rng):
    cfg = gf.ModelConfig(L=32)
    sigma = gf.SymbolGrid(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)),
                          cfg)
    rep = gf.symbol_class_norm(sigma, s=2.0)
    assert rep.s_sym < 0.5


def test_symbol_class_modulated_symbol():
    cfg = gf.ModelConfig(L=32)
    q = 3
    n = np.arange(32)
    sigma = gf.SymbolGrid(np.exp(2j * np.pi * (q * n[:, None] + q * n[None, :]) / 32),
                          cfg)
    rep = gf.symbol_class_norm(sigma, s=2.0)
    peak = np.unravel_index(np.argmax(rep.envelope), rep.envelope.shape)
    assert peak == (q, q)
    bracket = (1.0 + 2 * q * q) ** 1.0   # <(q, q)>^s at s = 2
    assert rep.norm >= rep.envelope[q, q] * bracket * (1 - 1e-12)


def test_symbol_class_size_cap():
    cfg = gf.ModelConfig(L=256)
    with pytest.raises(gf.SizeError):
        gf.symbol_class_norm(gf.symbol_ones(cfg), s=2.0)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_gabor_matrix_multiplicativity(frame16, rng):
    # Parseval: K(T1 T2) = K(T1) K(T2) exactly
    for _ in range(3):
        T1 = gf.OperatorMatrix(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                               frame16.config)
        T2 = gf.OperatorMatrix(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                               frame16.config)
        K12 = gf.gabor_matrix(gf.compose(T1, T2), frame16).entries
        K1K2 = gf.gabor_matrix(T1, frame16).entries @ gf.gabor_matrix(T2, frame16).entries
        assert np.abs(K12 - K1K2).max() <= 1e-10 * np.abs(K12).max()


def test_gabor_matrix_adjoint(frame16, rng):
    T = gf.OperatorMatrix(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                          frame16.config)
    Kadj = gf.gabor_matrix(gf.adjoint(T), frame16).entries
    np.testing.assert_allclose(Kadj, gf.gabor_matrix(T, frame16).entries.conj().T,
                               atol=1e-12)


def test_operator_norm_bounded_by_schur(frame16, rng):
    ops = [gf.identity_operator(frame16.config),
           gf.chirp_operator(frame16.config, 1),
           gf.dft_operator(frame16.config),
           gf.kn_quantize(gf.random_smooth_symbol(frame16.config, rng))]
    for T in ops:
        K = gf.gabor_matrix(T, frame16)
        assert T.norm2() <= gf.schur_bound(K) + 1e-10


def test_metaplectic_orbit_covariance(frame16):
    for gens in [(("dft",),), (("chirp", 1),), (("dilate", 3),),
                 (("chirp", 1), ("dft",))]:
        word = gf.MetaplecticWord(gens, frame16.config)
        U, _ = gf.metaplectic(word)
        K = gf.gabor_matrix(U, frame16)
        assert displacement_spread(K, word.matrix_modL()) < 1e-10


def test_decay_transfer_symbol_class():
    # type-I operators along a nondegenerate phase: almost-diagonalization
    # (s_fit above the algebra threshold) goes with a symbol in the class
    # (s_sym above threshold); a rough symbol kills both
    cfg = gf.ModelConfig(L=32)
    fr = gf.build_frame(gf.periodized_gaussian(cfg), gf.Lattice(4, 2, cfg))
    rng = np.random.Generator(np.random.Philox(7))
    phi = gf.quadratic_phase(cfg, 1, 1, 0)
    smooth = gf.fio_type1(phi, gf.random_smooth_symbol(cfg, rng, 2))
    rough = gf.fio_type1(phi, gf.SymbolGrid(
        (rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))) / 3, cfg))
    for T, lo in [(smooth, True), (rough, False)]:
        s_fit = gf.decay_profile(gf.gabor_matrix(T, fr), SHEAR).s_fit
        s_sym = gf.symbol_class_norm(gf.type1_symbol_of(T, phi), s=2.0).s_sym
        if lo:
            assert s_fit >= 3.0 and s_sym >= 3.0
        else:
            assert s_fit < 1.0 and s_sym < 1.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_gabor_matrix_csv_roundtrip(frame16, tmp_path):
    K = gf.gabor_matrix(gf.chirp_operator(frame16.config, 1), frame16)
    path = tmp_path / "matrix.csv"
    gf.gabor_matrix_to_csv(K, path)
    K2 = gf.gabor_matrix_from_csv(path, frame16)
    np.testing.assert_allclose(K2.entries, K.entries, atol=0, rtol=0)
    header = path.read_text().splitlines()[0]
    assert header == "mu_k,mu_m,lam_k,lam_m,re,im"


def test_profile_csv_layout(K_id64, tmp_path):
    prof = gf.decay_profile(K_id64, np.eye(2))
    path = tmp_path / "profile.csv"
    gf.profile_to_csv(prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_dist,envelope,count,log10_dist,log10_envelope"
    assert len(lines) == len(prof.bins) + 1
