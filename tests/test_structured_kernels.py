"""The structured frame, analysis and Gabor-matrix kernels against dense
references built from their definitions, and the decay-profile distances
against the full displacement array."""

import itertools

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import blockpool
from gaborfio.gabormatrix import _displacement_tables, _lattice_images

RTOL = 1e-12
MJ = np.array([[0.0, 1.0], [-1.0, 0.0]])
SHEAR = np.array([[1.0, 0.0], [1.0, 1.0]])

# (L, lattice steps or None for the default density-4 lattice)
CASES = [
    (16, (2, 2)), (16, (4, 2)), (16, None),
    (64, (4, 2)), (64, (8, 2)), (64, (4, 8)), (64, None),
    (96, (6, 4)), (96, None),
    (128, (8, 2)), (128, (4, 8)), (128, None),
    (256, None),
]


def lattice_for(cfg, steps):
    return gf.default_lattice(cfg) if steps is None else gf.Lattice(*steps, cfg)


def dense_atoms(window, lat):
    """L x size matrix of the atoms pi(lambda) w, one tf_shift per atom."""
    return np.stack([gf.tf_shift(window, int(p[0]), int(p[1])).values
                     for p in lat.points()], axis=1)


def dense_frame(g, lat):
    """Bounds and tight window from the full L x L frame operator."""
    V = dense_atoms(g, lat)
    evals, U = np.linalg.eigh(V @ V.conj().T)
    tight = (U * evals ** -0.5) @ (U.conj().T @ g.values)
    return (evals[0], evals[-1]), tight


def bracket_distances(K, chi):
    """<mu - chi(lam)> as an (N, N) array, from the displacement tables the
    blocked decay fit reads."""
    lat = K.lattice
    d1, d2 = _displacement_tables(lat, _lattice_images(lat, chi))
    j, k = np.divmod(np.arange(K.lattice.size), K.lattice.n_freq)
    return np.sqrt((d1[j] ** 2 + d2[k] ** 2) + 1.0)


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.fixture(params=[(L, steps, regime) for L, steps in CASES for regime in "AB"],
                ids=lambda c: f"L{c[0]}-{c[1] or 'default'}-{c[2]}")
def case(request):
    L, steps, regime = request.param
    cfg = gf.ModelConfig(L=L, regime=regime)
    lat = lattice_for(cfg, steps)
    g = gf.periodized_gaussian(cfg)
    return cfg, lat, g, gf.build_frame(g, lat)


def test_frame_matches_dense_eigh(case):
    cfg, lat, g, frame = case
    (A, B), tight = dense_frame(g, lat)
    assert frame.bounds[0] == pytest.approx(A, rel=RTOL)
    assert frame.bounds[1] == pytest.approx(B, rel=RTOL)
    assert rel_err(frame.tight.values, tight) <= RTOL


def test_gabor_matrix_matches_dense_product(case):
    cfg, lat, g, frame = case
    rng = np.random.Generator(np.random.Philox(cfg.L + lat.a * lat.b))
    L = cfg.L
    ops = [gf.OperatorMatrix(rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)), cfg),
           gf.dft_operator(cfg)]
    for T in ops:
        for use_tight in (True, False):
            V = dense_atoms(frame.window(use_tight), lat)
            K = gf.gabor_matrix(T, frame, use_tight=use_tight).entries
            assert rel_err(K, V.conj().T @ T.entries @ V) <= RTOL


def test_analysis_synthesis_atoms_match_dense(case):
    cfg, lat, g, frame = case
    rng = np.random.Generator(np.random.Philox(7))
    V = dense_atoms(frame.tight, lat)
    assert rel_err(gf.atom_matrix(frame.tight, lat), V) <= RTOL
    f = gf.random_signal(cfg, rng)
    c = gf.analysis(frame, f)
    assert rel_err(c.values.ravel(), V.conj().T @ f.values) <= RTOL
    assert rel_err(gf.synthesis(frame, c).values, V @ c.values.ravel()) <= RTOL


def test_frame_deficient_lattice_still_raises():
    cfg = gf.ModelConfig(L=16)
    with pytest.raises(gf.FrameDeficient):
        gf.build_frame(gf.periodized_gaussian(cfg), gf.Lattice(8, 8, cfg))


@pytest.mark.parametrize("L,steps", [(64, None), (96, (6, 4)), (128, (4, 8))])
def test_bracket_distances_bit_identical(L, steps):
    cfg = gf.ModelConfig(L=L)
    frame = gf.build_frame(gf.periodized_gaussian(cfg), lattice_for(cfg, steps))
    K = gf.gabor_matrix(gf.identity_operator(cfg), frame)
    for chi in (np.eye(2), MJ, gf.linear_map(SHEAR, mod_L=L),
                gf.canonical_map_of_phase(gf.tame_phase("perturbed:0.2"))):
        full = np.sqrt(1 + (gf.gabormatrix.wrapped_displacements(K, chi) ** 2).sum(-1))
        np.testing.assert_array_equal(bracket_distances(K, chi), full)


@pytest.mark.parametrize("L,steps", [(64, None), (96, (6, 4)), (128, (4, 8))])
def test_offgraph_max_bit_identical(monkeypatch, L, steps):
    # offgraph_max against its definition on the full displacement array,
    # for blocks of one row, of odd row counts and of all rows, on W workers
    cfg = gf.ModelConfig(L=L)
    lat = lattice_for(cfg, steps)
    frame = gf.build_frame(gf.periodized_gaussian(cfg), lat)
    N = lat.size
    for T, chi in ((gf.chirp_operator(cfg, 1), SHEAR), (gf.dft_operator(cfg), MJ),
                   (gf.identity_operator(cfg), SHEAR)):
        K = gf.gabor_matrix(T, frame)
        d = gf.gabormatrix.wrapped_displacements(K, chi)
        steps_ = np.sqrt((d[..., 0] / lat.a) ** 2 + (d[..., 1] / lat.b) ** 2)
        absK = np.abs(K.entries)
        for min_steps in (0.0, 2.0, 8.0, 1e9):
            mask = steps_ >= min_steps
            full = float(absK[mask].max() / absK.max()) if mask.any() else 0.0
            assert gf.offgraph_max(K, chi, min_steps=min_steps) == full
            for workers, rows in itertools.product((1, 2, 3), (1, 3, 7, N)):
                with monkeypatch.context() as m, blockpool.worker_limit(workers):
                    m.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", rows * N * workers)
                    assert gf.offgraph_max(K, chi, min_steps=min_steps) == full


@pytest.mark.parametrize("make_op,chi", [(gf.identity_operator, np.eye(2)),
                                         (gf.dft_operator, MJ)])
def test_fit_ignores_rounding_noise(frame64, make_op, chi):
    # the outermost torus bins of |K| hold only rounding; the floor clamp keeps
    # noise of that size from moving the fit
    K = gf.gabor_matrix(make_op(frame64.config), frame64)
    peak = np.abs(K.entries).max()
    rng = np.random.Generator(np.random.Philox(3))
    noise = 1e-16 * peak * np.exp(2j * np.pi * rng.random(K.entries.shape))
    s0 = gf.decay_profile(K, chi).s_fit
    s1 = gf.decay_profile(gf.GaborMatrix(K.entries + noise, frame64), chi).s_fit
    assert s1 == pytest.approx(s0, rel=1e-12)


@pytest.mark.parametrize("L,steps", [(64, None), (96, (6, 4))])
def test_blocked_decay_fit_matches_whole_array_fit(monkeypatch, L, steps):
    # decay_profile fits block by block; any block size gives exactly the fit
    # of the whole (N, N) distance and |K| arrays
    cfg = gf.ModelConfig(L=L)
    frame = gf.build_frame(gf.periodized_gaussian(cfg), lattice_for(cfg, steps))
    K = gf.gabor_matrix(gf.chirp_operator(cfg, 1), frame)
    whole = gf.envelope_fit(bracket_distances(K, SHEAR), K.entries)
    N = frame.lattice.size
    for block in (1, 7, N, 3 * N + 5, N * N):
        monkeypatch.setattr(gf.gabormatrix, "FIT_BLOCK_ENTRIES", block)
        prof = gf.decay_profile(K, SHEAR)
        assert (prof.bins, prof.s_fit, prof.C_fit, prof.r2) == whole
