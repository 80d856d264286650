import numpy as np
import pytest

import gaborfio as gf

from conftest import brute_shift, brute_stft


def test_config_validation():
    with pytest.raises(gf.ModelError):
        gf.ModelConfig(L=7)
    with pytest.raises(gf.ModelError):
        gf.ModelConfig(L=6)
    with pytest.raises(gf.ModelError):
        gf.ModelConfig(L=16, regime="B", T=-1.0)
    with pytest.raises(gf.ModelError):
        gf.ModelConfig(L=16, regime="A", T=2.0)
    b = gf.ModelConfig(L=16, regime="B")
    assert b.T == pytest.approx(4.0)  # sqrt(L) default
    assert b.time_grid()[0] == pytest.approx(-2.0)
    assert b.freq_grid().max() < b.L / (2 * b.T)


def test_signal_validation(cfg8):
    with pytest.raises(gf.ModelError):
        gf.Signal(np.zeros(7), cfg8)
    with pytest.raises(gf.ModelError):
        gf.Signal(np.array([np.nan] * 8), cfg8)


def test_tf_shift_identity(cfg8, rng):
    f = gf.random_signal(cfg8, rng)
    np.testing.assert_allclose(gf.tf_shift(f, 0, 0).values, f.values)


def test_tf_shift_translation():
    cfg = gf.ModelConfig(L=8)
    d0 = gf.delta(cfg, 0)
    np.testing.assert_allclose(gf.tf_shift(d0, 3, 0).values, gf.delta(cfg, 3).values)


def test_tf_shift_matches_bruteforce(cfg8, rng):
    f = gf.random_signal(cfg8, rng)
    for k, m in [(1, 0), (3, 5), (7, 7), (2, 6)]:
        np.testing.assert_allclose(gf.tf_shift(f, k, m).values,
                                   brute_shift(f.values, k, m), atol=1e-14)


def test_tf_shift_composition_scalar():
    # on Z_4 the two orderings of pi(1,0), pi(1,1) differ from pi(2,1) by
    # unimodular scalars; enumerating the four-vectors gives 1 and -i
    cfg = gf.ModelConfig(L=8)  # config requires L >= 8; enumerate Z_4 by hand
    L = 4
    d0 = np.zeros(L, complex); d0[0] = 1.0
    ref = brute_shift(d0, 2, 1)
    a = brute_shift(brute_shift(d0, 1, 0), 1, 1)
    b = brute_shift(brute_shift(d0, 1, 1), 1, 0)
    i = int(np.argmax(np.abs(ref)))
    np.testing.assert_allclose(a[i] / ref[i], 1.0, atol=1e-14)
    np.testing.assert_allclose(b[i] / ref[i], -1j, atol=1e-14)
    np.testing.assert_allclose(a, 1.0 * ref, atol=1e-14)
    np.testing.assert_allclose(b, -1j * ref, atol=1e-14)


def test_tf_shift_unitary(cfg16, rng):
    f = gf.random_signal(cfg16, rng)
    for k, m in [(5, 11), (0, 3), (15, 0)]:
        assert gf.tf_shift(f, k, m).norm == pytest.approx(f.norm, rel=1e-14)


def test_stft_matches_bruteforce(cfg8, rng):
    f = gf.random_signal(cfg8, rng)
    g = gf.random_signal(cfg8, rng)
    np.testing.assert_allclose(gf.stft(f, g).values,
                               brute_stft(f.values, g.values), atol=1e-12)


def test_stft_selfpoint(cfg8, rng):
    g = gf.random_signal(cfg8, rng)
    assert gf.stft(g, g).values[0, 0] == pytest.approx(g.norm ** 2)


def test_stft_zero_window(cfg8, rng):
    f = gf.random_signal(cfg8, rng)
    with pytest.raises(gf.WindowError):
        gf.stft(f, gf.Signal(np.zeros(8), cfg8))


def test_stft_moyal_energy(cfg8, rng):
    f = gf.random_signal(cfg8, rng)
    g = gf.random_signal(cfg8, rng)
    total = np.sum(np.abs(gf.stft(f, g).values) ** 2)
    assert total == pytest.approx(cfg8.L * f.norm ** 2 * g.norm ** 2, rel=1e-12)


def test_stft_covariance_full_complex(cfg8, rng):
    # V_g(pi(y, xi) f)[k, m] = e^{-2 pi i (m - xi) y / L} V_g f[k - y, m - xi]
    f = gf.random_signal(cfg8, rng)
    g = gf.random_signal(cfg8, rng)
    L = cfg8.L
    V = gf.stft(f, g).values
    y, xi = 2, 3
    Vs = gf.stft(gf.tf_shift(f, y, xi), g).values
    k = np.arange(L)[:, None]
    m = np.arange(L)[None, :]
    phase = np.exp(-2j * np.pi * (m - xi) * y / L)
    expected = phase * V[(k - y) % L, (m - xi) % L]
    np.testing.assert_allclose(Vs, expected, atol=1e-12)


def test_stft_covariance_modulus_all_pairs(cfg8, rng):
    f = gf.random_signal(cfg8, rng)
    g = gf.random_signal(cfg8, rng)
    L = cfg8.L
    V = np.abs(gf.stft(f, g).values)
    for y, xi in [(1, 0), (2, 3), (5, 7)]:
        Vs = np.abs(gf.stft(gf.tf_shift(f, y, xi), g).values)
        k = np.arange(L)[:, None]
        m = np.arange(L)[None, :]
        np.testing.assert_allclose(Vs, V[(k - y) % L, (m - xi) % L], atol=1e-12)


def test_dft_unitary_flat_spectrum(cfg8):
    out = gf.dft_unitary(gf.delta(cfg8, 0))
    np.testing.assert_allclose(out.values, np.full(8, 8 ** -0.5), atol=1e-15)


def test_dft_fourth_power_is_identity(cfg8, rng):
    f = gf.random_signal(cfg8, rng)
    F = gf.dft_matrix(8)
    np.testing.assert_allclose(np.linalg.matrix_power(F, 4), np.eye(8), atol=1e-13)
    out = f
    for _ in range(4):
        out = gf.dft_unitary(out)
    np.testing.assert_allclose(out.values, f.values, atol=1e-13)


def test_dft_norm_preserved(cfg16, rng):
    f = gf.random_signal(cfg16, rng)
    assert gf.dft_unitary(f).norm == pytest.approx(f.norm, rel=1e-14)


def test_dft_conjugates_shifts(cfg16, rng):
    # F pi(k, m) = e^{2 pi i k m / L} pi(m, -k) F
    f = gf.random_signal(cfg16, rng)
    L = cfg16.L
    for k, m in [(2, 5), (7, 1), (3, 3)]:
        lhs = gf.dft_unitary(gf.tf_shift(f, k, m)).values
        rhs = gf.tf_shift(gf.dft_unitary(f), m, -k).values
        scalar = np.exp(2j * np.pi * k * m / L)
        np.testing.assert_allclose(lhs, scalar * rhs, atol=1e-12)


def test_gaussian_is_dft_invariant(cfg64):
    g = gf.periodized_gaussian(cfg64)
    np.testing.assert_allclose(gf.dft_unitary(g).values, g.values, atol=1e-14)


def test_wrap_half():
    np.testing.assert_allclose(gf.wrap_half(np.array([0, 31, 32, 33, 63]), 64),
                               [0, 31, -32, -31, -1])


_CFG = gf.ModelConfig(L=16)
_LATTICE = gf.Lattice(4, 2, _CFG)        # 4 x 8 points


@pytest.mark.parametrize("make,shape,dtype,message", [
    (lambda v: gf.TFGrid(v, _CFG), (16, 16), complex, "grid shape (3, 3) != (16, 16)"),
    (lambda v: gf.SymbolGrid(v, _CFG), (16, 16), complex, "symbol shape (3, 3) != (16, 16)"),
    (lambda v: gf.OperatorMatrix(v, _CFG), (16, 16), complex,
     "operator shape (3, 3) != (16, 16)"),
    (lambda v: gf.DiscretePhase(v, _CFG), (16, 16), float, "phase shape (3, 3) != (16, 16)"),
    (lambda v: gf.CoefficientArray(v, _LATTICE), (4, 8), complex,
     "coefficient shape (3, 3) != (4, 8)"),
    (lambda v: gf.GaborMatrix(v, gf.build_frame(gf.periodized_gaussian(_CFG), _LATTICE)),
     (32, 32), complex, "Gabor-matrix shape (3, 3) != (32, 32)"),
], ids=["TFGrid", "SymbolGrid", "OperatorMatrix", "DiscretePhase", "CoefficientArray",
        "GaborMatrix"])
def test_array_records_coerce_and_check_their_shape(make, shape, dtype, message):
    ints = np.arange(np.prod(shape)).reshape(shape)
    record = make(ints)
    (field,) = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
    assert field.dtype == dtype
    np.testing.assert_array_equal(field, ints)
    with pytest.raises(gf.ModelError) as exc:
        make(np.zeros((3, 3)))
    assert str(exc.value) == message
