import numpy as np
import pytest

import gaborfio as gf


def random_symbol(cfg, rng):
    return gf.SymbolGrid(rng.normal(size=(cfg.L, cfg.L))
                         + 1j * rng.normal(size=(cfg.L, cfg.L)), cfg)


def random_operator(cfg, rng):
    return gf.OperatorMatrix(rng.normal(size=(cfg.L, cfg.L))
                             + 1j * rng.normal(size=(cfg.L, cfg.L)), cfg)


# ---------------------------------------------------------------------------
# Kohn-Nirenberg quantization
# ---------------------------------------------------------------------------

def test_kn_flat_symbol_is_identity(cfg8):
    T = gf.kn_quantize(gf.symbol_ones(cfg8))
    np.testing.assert_allclose(T.entries, np.eye(8), atol=1e-14)


def test_kn_time_symbol_is_multiplier(cfg8, rng):
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    T = gf.kn_quantize(gf.symbol_multiplier(cfg8, w))
    np.testing.assert_allclose(T.entries, np.diag(w), atol=1e-13)


def test_kn_frequency_symbol_is_fourier_multiplier(cfg8, rng):
    h = rng.normal(size=8) + 1j * rng.normal(size=8)
    sigma = gf.SymbolGrid(np.repeat(h[None, :], 8, axis=0), cfg8)
    T = gf.kn_quantize(sigma)
    F = gf.dft_matrix(8)
    np.testing.assert_allclose(T.entries, F.conj().T @ np.diag(h) @ F, atol=1e-13)


def test_kn_quantize_matches_definition(cfg8, rng):
    # (T f)[n] = L^{-1/2} sum_m e^{2 pi i n m / L} sigma[n, m] (F f)[m]
    sigma = random_symbol(cfg8, rng)
    f = gf.random_signal(cfg8, rng)
    fhat = gf.dft_unitary(f).values
    L = 8
    direct = np.array([L ** -0.5 * sum(np.exp(2j * np.pi * n * m / L)
                                       * sigma.values[n, m] * fhat[m]
                                       for m in range(L)) for n in range(L)])
    np.testing.assert_allclose(gf.kn_quantize(sigma).apply(f).values, direct,
                               atol=1e-12)


def test_kn_symbol_of_identity(cfg8):
    sigma = gf.kn_symbol_of(gf.identity_operator(cfg8))
    np.testing.assert_allclose(sigma.values, np.ones((8, 8)), atol=1e-13)


def test_kn_roundtrip(cfg8, rng):
    T = random_operator(cfg8, rng)
    back = gf.kn_quantize(gf.kn_symbol_of(T))
    np.testing.assert_allclose(back.entries, T.entries, atol=1e-12)
    sigma = random_symbol(cfg8, rng)
    back2 = gf.kn_symbol_of(gf.kn_quantize(sigma))
    np.testing.assert_allclose(back2.values, sigma.values, atol=1e-12)


def test_kn_symbol_of_multiplier(cfg8, rng):
    w = rng.normal(size=8)
    sigma = gf.kn_symbol_of(gf.OperatorMatrix(np.diag(w), cfg8))
    np.testing.assert_allclose(sigma.values, np.repeat(w[:, None], 8, axis=1),
                               atol=1e-13)


# ---------------------------------------------------------------------------
# FIO type I / II
# ---------------------------------------------------------------------------

def test_fio1_kn_phase_reduces_to_quantization(cfg8, rng):
    sigma = random_symbol(cfg8, rng)
    T1 = gf.fio_type1(gf.kn_phase(cfg8), sigma)
    T2 = gf.kn_quantize(sigma)
    np.testing.assert_allclose(T1.entries, T2.entries, atol=1e-13)


def test_fio1_chirp_phase_flat_symbol(cfg16):
    # Phi = (n^2 + 2 n m)/(2L), sigma = 1: diagonal chirp e^{pi i n^2 / L}
    phi = gf.quadratic_phase(cfg16, 1, 1, 0)
    T = gf.fio_type1(phi, gf.symbol_ones(cfg16))
    n = np.arange(16)
    np.testing.assert_allclose(T.entries, np.diag(np.exp(1j * np.pi * n ** 2 / 16)),
                               atol=1e-13)


@pytest.mark.parametrize("coeffs", [(1, 1, 0), (0, 1, 1), (2, 3, 1), (1, 5, 2)])
def test_fio1_unit_beta_quadratic_is_unitary(cfg16, coeffs):
    phi = gf.quadratic_phase(cfg16, *coeffs)
    T = gf.fio_type1(phi, gf.symbol_ones(cfg16)).entries
    np.testing.assert_allclose(T.conj().T @ T, np.eye(16), atol=1e-10)


def test_quadratic_phase_periodicity(cfg16):
    # exp(2 pi i Phi) must be L-periodic in both indices for integer quadratics
    phi = gf.quadratic_phase(cfg16, 3, 1, 2)
    L = 16
    n = np.arange(L, dtype=float)
    ext = (3 * (n + L) ** 2 + 2 * 1 * np.outer(n + L, n)[0] * 0 + 0) / (2 * L)
    w = np.exp(2j * np.pi * phi.values)
    # shift both axes by comparing against a directly rebuilt shifted grid
    N, M = np.meshgrid(n + L, n, indexing="ij")
    shifted = np.exp(2j * np.pi * (3 * N ** 2 + 2 * N * M + 2 * M ** 2) / (2 * L))
    np.testing.assert_allclose(shifted, w, atol=1e-12)


def test_quadratic_phase_integer_required(cfg16):
    with pytest.raises(gf.ModelError):
        gf.quadratic_phase(cfg16, 0.5, 1, 0)


def test_fio2_kn_phase_identity(cfg8):
    T = gf.fio_type2(gf.kn_phase(cfg8), gf.symbol_ones(cfg8))
    np.testing.assert_allclose(T.entries, np.eye(8), atol=1e-13)


def test_fio2_adjoint_relation(cfg8, rng):
    # fio_type2(phi, tau) with tau[n, m] = conj(rho[m, n]) equals
    # fio_type1(phi, rho)^* entrywise
    phi = gf.quadratic_phase(cfg8, 1, 1, 0)
    rho = random_symbol(cfg8, rng)
    tau = gf.SymbolGrid(np.conj(rho.values.T), cfg8)
    lhs = gf.fio_type2(phi, tau).entries
    rhs = gf.adjoint(gf.fio_type1(phi, rho)).entries
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_fio2_chirp_flat_symbol(cfg16):
    phi = gf.quadratic_phase(cfg16, 1, 1, 0)
    T = gf.fio_type2(phi, gf.symbol_ones(cfg16))
    n = np.arange(16)
    np.testing.assert_allclose(T.entries, np.diag(np.exp(-1j * np.pi * n ** 2 / 16)),
                               atol=1e-13)


def test_type1_symbol_extraction(cfg16, rng):
    phi = gf.quadratic_phase(cfg16, 1, 1, 0)
    sigma = random_symbol(cfg16, rng)
    T = gf.fio_type1(phi, sigma)
    np.testing.assert_allclose(gf.type1_symbol_of(T, phi).values, sigma.values,
                               atol=1e-11)


def test_quadratic_phase_canonical_map():
    cfg = gf.ModelConfig(L=16)
    chi = gf.quadratic_phase(cfg, 2, 1, 0).canonical_map()
    np.testing.assert_allclose(chi.matrix, [[1.0, 0.0], [2.0, 1.0]])
    assert chi.mod_L == 16
    # beta = 2 is no unit mod 16: the real map, not a torus map
    chi = gf.quadratic_phase(cfg, 1, 2, 0).canonical_map()
    np.testing.assert_array_equal(chi.matrix, [[0.5, 0.0], [0.5, 2.0]])
    assert chi.mod_L is None
    with pytest.raises(gf.ModelError, match="beta = 0"):
        gf.quadratic_phase(cfg, 1, 0, 1).canonical_map()


# ---------------------------------------------------------------------------
# metaplectic generators and words
# ---------------------------------------------------------------------------

def test_metaplectic_empty_word(cfg16):
    U, chi = gf.metaplectic(gf.MetaplecticWord((), cfg16))
    np.testing.assert_allclose(U.entries, np.eye(16))
    np.testing.assert_allclose(chi.matrix, np.eye(2))


def test_metaplectic_generators_unitary(cfg16):
    for word in [(("dft",),), (("chirp", 1),), (("dilate", 3),),
                 (("chirp", 2), ("dft",), ("dilate", 5))]:
        U, _ = gf.metaplectic(gf.MetaplecticWord(word, cfg16))
        np.testing.assert_allclose(U.entries.conj().T @ U.entries, np.eye(16),
                                   atol=1e-12)


def test_dilation_requires_unit(cfg16):
    with pytest.raises(gf.UnitError):
        gf.dilation_operator(cfg16, 4)   # gcd(4, 16) != 1
    with pytest.raises(gf.UnitError):
        gf.MetaplecticWord((("dilate", 2),), cfg16)


def intertwining_deviation(U, A, cfg):
    """max over all z, w of | |<U pi(z) g, pi(w) g>| - |V_g(U g)(w - A z)| |."""
    L = cfg.L
    g = gf.periodized_gaussian(cfg)
    Ug = gf.Signal(U.entries @ g.values, cfg)
    R = np.abs(gf.stft(Ug, g).values)
    worst = 0.0
    for z1 in range(L):
        for z2 in range(L):
            lhs = np.abs(gf.stft(gf.Signal(U.entries @ gf.tf_shift(g, z1, z2).values,
                                           cfg), g).values)
            Az = (A @ np.array([z1, z2])) % L
            k = np.arange(L)[:, None]
            m = np.arange(L)[None, :]
            rhs = R[(k - int(Az[0])) % L, (m - int(Az[1])) % L]
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


@pytest.mark.parametrize("gens", [(("dft",),), (("chirp", 1),), (("dilate", 3),)])
def test_metaplectic_intertwining_exact(cfg16, gens):
    word = gf.MetaplecticWord(gens, cfg16)
    U, chi = gf.metaplectic(word)
    assert intertwining_deviation(U, word.matrix_modL(), cfg16) <= 1e-10


def concatenate(w1, w2):
    """The word of w1's letters followed by w2's."""
    return gf.MetaplecticWord(w1.generators + w2.generators, w1.config)


def test_metaplectic_group_law_up_to_scalar(cfg16):
    w1 = gf.MetaplecticWord((("chirp", 1), ("dft",)), cfg16)
    w2 = gf.MetaplecticWord((("dilate", 3), ("chirp", 2)), cfg16)
    U1, _ = gf.metaplectic(w1)
    U2, _ = gf.metaplectic(w2)
    U12, chi12 = gf.metaplectic(concatenate(w1, w2))
    prod = U1.entries @ U2.entries
    # equal up to one unimodular scalar
    i = np.unravel_index(np.argmax(np.abs(prod)), prod.shape)
    scalar = U12.entries[i] / prod[i]
    assert abs(abs(scalar) - 1) < 1e-12
    np.testing.assert_allclose(U12.entries, scalar * prod, atol=1e-11)
    np.testing.assert_array_equal(chi12.matrix,
                                  (w1.matrix_modL() @ w2.matrix_modL()).astype(float))


def test_fourier_transform_word_counterexample(cfg16):
    # mu(A1) mu(A2) with A1 = [[1,1],[0,1]], A2 = [[1,1],[-1,0]] accumulates
    # -J (A-block zero) and the product equals the DFT up to a unimodular
    # scalar, although no type-I representation exists for it
    w1 = gf.MetaplecticWord((("dft",), ("dft",), ("dft",), ("chirp", -1), ("dft",)),
                            cfg16)
    np.testing.assert_array_equal(w1.matrix_modL(), [[1, 1], [0, 1]])
    w2 = gf.MetaplecticWord((("dft",), ("chirp", 1)), cfg16)
    np.testing.assert_array_equal(w2.matrix_modL(), [[1, 1], [-1, 0]])
    word = concatenate(w1, w2)
    np.testing.assert_array_equal(word.matrix_modL(), [[0, 1], [-1, 0]])
    U, _ = gf.metaplectic(word)
    F = gf.dft_matrix(16)
    i = np.unravel_index(np.argmax(np.abs(F)), F.shape)
    scalar = U.entries[i] / F[i]
    assert abs(abs(scalar) - 1) < 1e-12
    np.testing.assert_allclose(U.entries, scalar * F, atol=1e-11)


def test_adjoint_cases(cfg8, rng):
    assert np.array_equal(gf.adjoint(gf.identity_operator(cfg8)).entries, np.eye(8))
    C = gf.chirp_operator(cfg8, 1)
    np.testing.assert_allclose(gf.adjoint(C).entries @ C.entries, np.eye(8),
                               atol=1e-14)
    T = random_operator(cfg8, rng)
    np.testing.assert_allclose(gf.adjoint(T).entries, T.entries.conj().T)


def test_multiplier_operator(cfg16):
    T = gf.multiplier_operator(cfg16, 0.1)
    n = np.arange(16)
    np.testing.assert_allclose(np.diag(T.entries), 1 + 0.1 * np.cos(2 * np.pi * n / 16))


def test_random_smooth_symbol_band_limit(cfg16, rng):
    sigma = gf.random_smooth_symbol(cfg16, rng, bandwidth=2)
    spec = np.fft.fft2(sigma.values)
    mask = np.zeros((16, 16), bool)
    for q1 in range(-2, 3):
        for q2 in range(-2, 3):
            mask[q1 % 16, q2 % 16] = True
    assert np.abs(spec[~mask]).max() < 1e-10 * np.abs(spec).max()
    assert np.abs(sigma.values).max() == pytest.approx(1.0)


def mode_loop_symbol(cfg, rng, bandwidth):
    """random_smooth_symbol's values drawn one mode at a time."""
    L = cfg.L
    c = np.zeros((L, L), dtype=complex)
    for q1 in range(-bandwidth, bandwidth + 1):
        for q2 in range(-bandwidth, bandwidth + 1):
            c[q1 % L, q2 % L] = rng.normal() + 1j * rng.normal()
    vals = np.fft.ifft2(c) * L * L
    return vals / np.abs(vals).max()


@pytest.mark.parametrize("L", [8, 16, 64])
@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_random_smooth_symbol_draws_like_the_mode_loop(L, seed):
    cfg = gf.ModelConfig(L=L)
    for bandwidth in range(L // 2):
        rngs = [np.random.Generator(np.random.Philox(seed)) for _ in range(2)]
        np.testing.assert_array_equal(
            gf.random_smooth_symbol(cfg, rngs[0], bandwidth).values,
            mode_loop_symbol(cfg, rngs[1], bandwidth))


@pytest.mark.parametrize("bandwidth", [-1, 8, 9])
def test_random_smooth_symbol_rejects_bandwidth_without_distinct_modes(cfg16, rng,
                                                                      bandwidth):
    # -1 has no modes; 2 bandwidth + 1 > 16 modes per axis fold onto each other
    with pytest.raises(gf.ModelError):
        gf.random_smooth_symbol(cfg16, rng, bandwidth)


def test_regime_b_kn_phase_sampling_matches_exact():
    # sampling Phi(x, xi) = x xi on the regime-B grid (with the half-turn
    # correction) reproduces the exact torus KN phase, so sigma = 1 -> identity
    cfg = gf.ModelConfig(L=16, regime="B", T=4.0)
    phi = gf.discrete_phase_from_tame(gf.tame_phase("kn"), cfg)
    T = gf.fio_type1(phi, gf.symbol_ones(cfg))
    np.testing.assert_allclose(T.entries, np.eye(16), atol=1e-12)


def test_regime_b_seam_vs_torus_matched_perturbation():
    # sin(x) sin(eta) is not T-periodic: the sampled phase has an O(eps) seam
    # at the wrap boundary and the decay fit collapses; the period-matched
    # sine phase is smooth on the torus and keeps a clean profile
    cfg = gf.ModelConfig(L=64, regime="B", T=8.0)
    fr = gf.build_frame(gf.periodized_gaussian(cfg), gf.Lattice(4, 4, cfg))
    fits = {}
    for spec in ("perturbed:0.1", "sine:0.1:8:8"):
        dp = gf.discrete_phase_from_tame(gf.tame_phase(spec), cfg)
        T = gf.fio_type1(dp, gf.symbol_ones(cfg))
        prof = gf.decay_profile(gf.gabor_matrix(T, fr), dp.canonical_map())
        fits[spec] = prof.s_fit
    assert fits["sine:0.1:8:8"] >= 5.0        # observed ~6.3
    assert fits["perturbed:0.1"] < 3.0        # observed ~1.5 (seam artifact)
