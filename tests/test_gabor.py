import numpy as np
import pytest

import gaborfio as gf


def test_lattice_validation(cfg16):
    with pytest.raises(gf.ModelError):
        gf.Lattice(3, 2, cfg16)   # 3 does not divide 16
    lat = gf.Lattice(2, 4, cfg16)
    assert lat.size == 8 * 4
    assert lat.density == pytest.approx(2.0)
    pts = lat.points()
    assert pts.shape == (32, 2)
    # time-major enumeration
    np.testing.assert_array_equal(pts[0], [0, 0])
    np.testing.assert_array_equal(pts[1], [0, 4])
    np.testing.assert_array_equal(pts[lat.n_freq], [2, 0])


def test_default_lattice(cfg64):
    lat = gf.default_lattice(cfg64, density=4)
    assert (lat.a, lat.b) == (4, 4)


def test_full_lattice_frame_operator(cfg8, rng):
    # a = b = 1: S = L ||g||^2 I, assembled directly for comparison
    g = gf.random_signal(cfg8, rng)
    lat = gf.Lattice(1, 1, cfg8)
    S = np.zeros((8, 8), complex)
    for k in range(8):
        for m in range(8):
            v = gf.tf_shift(g, k, m).values
            S += np.outer(v, v.conj())
    np.testing.assert_allclose(S, 8 * g.norm ** 2 * np.eye(8), atol=1e-10)
    frame = gf.build_frame(g, lat)
    assert frame.bounds[0] == pytest.approx(8 * g.norm ** 2, rel=1e-12)
    assert frame.bounds[1] == pytest.approx(8 * g.norm ** 2, rel=1e-12)
    np.testing.assert_allclose(frame.tight.values, g.values / (np.sqrt(8) * g.norm),
                               atol=1e-12)


def test_density4_gaussian_frame(cfg16):
    frame = gf.build_frame(gf.periodized_gaussian(cfg16), gf.Lattice(2, 2, cfg16))
    A, B = frame.bounds
    assert A > 0
    # tight window generates a Parseval frame: frame operator of tight = I
    V = gf.atom_matrix(frame.tight, frame.lattice)
    np.testing.assert_allclose(V @ V.conj().T, np.eye(16), atol=1e-10)


def test_frame_deficient(cfg16):
    g = gf.periodized_gaussian(cfg16)
    with pytest.raises(gf.FrameDeficient):
        gf.build_frame(g, gf.Lattice(8, 8, cfg16))   # ab = 64 > L = 16


def test_zero_window_rejected(cfg16):
    with pytest.raises(gf.WindowError):
        gf.build_frame(gf.Signal(np.zeros(16), cfg16), gf.Lattice(2, 2, cfg16))


def test_analysis_matches_bruteforce(frame16, rng):
    f = gf.random_signal(frame16.config, rng)
    c = gf.analysis(frame16, f)
    w = frame16.tight
    for j in [0, 3, 7]:
        for k in [0, 1, 5]:
            direct = np.vdot(gf.tf_shift(w, 2 * j, 2 * k).values, f.values)
            assert c.values[j, k] == pytest.approx(direct, abs=1e-12)


def test_analysis_tight_self_coefficient(frame16):
    c = gf.analysis(frame16, frame16.tight)
    assert c.values[0, 0] == pytest.approx(frame16.tight.norm ** 2, rel=1e-12)


def test_analysis_parseval(frame16, rng):
    for _ in range(10):
        f = gf.random_signal(frame16.config, rng)
        c = gf.analysis(frame16, f)
        assert np.sum(np.abs(c.values) ** 2) == pytest.approx(f.norm ** 2, rel=1e-10)


def test_analysis_lattice_shift_covariance(frame16, rng):
    f = gf.random_signal(frame16.config, rng)
    a, b = frame16.lattice.a, frame16.lattice.b
    c0 = np.abs(gf.analysis(frame16, f).values)
    c1 = np.abs(gf.analysis(frame16, gf.tf_shift(f, a, b)).values)
    np.testing.assert_allclose(c1, np.roll(c0, (1, 1), axis=(0, 1)), atol=1e-10)


def test_frame_bounds_sandwich(frame16, rng):
    A, B = frame16.bounds
    for _ in range(20):
        f = gf.random_signal(frame16.config, rng)
        e = np.sum(np.abs(gf.analysis(frame16, f, use_tight=False).values) ** 2)
        assert A * f.norm ** 2 - 1e-9 <= e <= B * f.norm ** 2 + 1e-9


def test_synthesis_reconstruction(frame16, rng):
    for _ in range(100):
        f = gf.random_signal(frame16.config, rng)
        back = gf.synthesis(frame16, gf.analysis(frame16, f))
        assert np.linalg.norm(back.values - f.values) <= 1e-10 * f.norm


def test_synthesis_single_atom(frame16):
    lat = frame16.lattice
    c = np.zeros((lat.n_time, lat.n_freq), complex)
    c[2, 3] = 1.0
    out = gf.synthesis(frame16, gf.CoefficientArray(c, lat))
    atom = gf.tf_shift(frame16.tight, 2 * lat.a, 3 * lat.b)
    np.testing.assert_allclose(out.values, atom.values, atol=1e-12)


def test_synthesis_adjoint_of_analysis(frame16, rng):
    # <synthesis(c), f> = <c, analysis(f)> with the flat inner product
    f = gf.random_signal(frame16.config, rng)
    lat = frame16.lattice
    c = gf.CoefficientArray(rng.normal(size=(lat.n_time, lat.n_freq))
                            + 1j * rng.normal(size=(lat.n_time, lat.n_freq)), lat)
    lhs = np.vdot(f.values, gf.synthesis(frame16, c).values)
    rhs = np.vdot(gf.analysis(frame16, f).values, c.values)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_synthesis_index_mismatch(frame16, cfg8):
    other = gf.CoefficientArray(np.zeros((4, 4)), gf.Lattice(2, 2, cfg8))
    with pytest.raises(gf.ModelError):
        gf.synthesis(frame16, other)


def test_modulation_norm_parseval(frame16, rng):
    f = gf.random_signal(frame16.config, rng)
    n = gf.modulation_norm(frame16, f, 2, 2, use_tight=True)
    assert n == pytest.approx(f.norm, rel=1e-10)


def test_modulation_norm_sup(frame16, rng):
    f = gf.random_signal(frame16.config, rng)
    n = gf.modulation_norm(frame16, f, np.inf, np.inf)
    c = gf.analysis(frame16, f, use_tight=False)
    assert n == pytest.approx(np.abs(c.values).max(), rel=1e-12)


def test_modulation_norm_weight_monotone(frame16, rng):
    f = gf.random_signal(frame16.config, rng)
    n0 = gf.modulation_norm(frame16, f, 1, 1, gf.WeightSpec(s=0.0))
    n2 = gf.modulation_norm(frame16, f, 1, 1, gf.WeightSpec(s=2.0))
    assert n0 <= n2


def test_modulation_norm_mixed_orders(frame16, rng):
    # inner p over time, outer q over frequency, checked against a direct loop
    f = gf.random_signal(frame16.config, rng)
    c = np.abs(gf.analysis(frame16, f, use_tight=False).values)
    direct = (np.array([(c[:, k] ** 3).sum() ** (1 / 3)
                        for k in range(c.shape[1])]) ** 2).sum() ** 0.5
    assert gf.modulation_norm(frame16, f, 3, 2) == pytest.approx(direct, rel=1e-12)


def test_weight_peetre(rng):
    # Peetre's inequality v_s(z + u) <= 2^(s/2) v_s(z) v_s(u), sampled over
    # 200 pairs in [-10, 10]^2 (L = 64 leaves these points unwrapped)
    w = gf.WeightSpec(s=2.0)
    z, u = rng.uniform(-10.0, 10.0, size=(2, 200, 2))
    v = lambda p: w.value(p, 64)
    assert np.max(v(z + u) / (2 ** (w.s / 2) * v(z) * v(u))) <= 1.0 + 1e-12
