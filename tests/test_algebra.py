import json

import numpy as np
import pytest

import gaborfio as gf

SHEAR1 = np.array([[1.0, 0.0], [1.0, 1.0]])


@pytest.fixture(scope="module")
def smoothing64(cfg64):
    rng = np.random.Generator(np.random.Philox(42))
    S = gf.kn_quantize(gf.random_smooth_symbol(cfg64, rng))
    return gf.OperatorMatrix(S.entries / S.norm2(), cfg64, tag="kn")


def chirp_map(cfg, c):
    return gf.linear_map([[1.0, 0.0], [float(c), 1.0]], f"chirp:{c}", mod_L=cfg.L)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_chirp_pair(frame64, cfg64):
    T1 = gf.chirp_operator(cfg64, 1)
    T2 = gf.chirp_operator(cfg64, 2)
    rep = gf.verify_composition(T1, T2, chirp_map(cfg64, 1), chirp_map(cfg64, 2),
                                frame64)
    assert rep.passed
    # the product is exactly the single chirp(3): the fitted exponent along
    # the composed shear [[1,0],[3,1]] must match it to rounding
    ref = gf.decay_profile(gf.gabor_matrix(gf.chirp_operator(cfg64, 3), frame64),
                           chirp_map(cfg64, 3)).s_fit
    assert rep.s_fit == pytest.approx(ref, rel=1e-10)
    assert rep.diagnostics["s_fit_factors_min"] > 0


def test_compose_chirp_dft(frame64, cfg64):
    T1 = gf.chirp_operator(cfg64, 1)
    T2 = gf.dft_operator(cfg64)
    chi2 = gf.linear_map([[0.0, 1.0], [-1.0, 0.0]], "dft", mod_L=cfg64.L)
    rep = gf.verify_composition(T1, T2, chirp_map(cfg64, 1), chi2, frame64)
    assert rep.passed
    np.testing.assert_allclose(
        gf.compose_maps(chirp_map(cfg64, 1), chi2).matrix,
        [[0.0, 1.0], [-1.0, 1.0]])
    # chirp * dft has the same window image as the chirp alone, so the
    # product's exponent matches the factors' minimum exactly
    assert rep.s_fit == pytest.approx(rep.diagnostics["s_fit_factors_min"],
                                      rel=1e-6)


def test_compose_degrades_against_single_factor(frame64, cfg64):
    T1 = gf.chirp_operator(cfg64, 1)
    T2 = gf.chirp_operator(cfg64, 2)
    prod = gf.compose(T1, T2)
    K = gf.gabor_matrix(prod, frame64)
    for wrong in (chirp_map(cfg64, 1), chirp_map(cfg64, 2)):
        assert abs(gf.decay_profile(K, wrong).s_fit) <= 0.5


def test_compose_unitary_with_inverse_is_identity(frame64, cfg64):
    U, chi = gf.metaplectic(gf.MetaplecticWord((("chirp", 1), ("dft",)), cfg64))
    rep = gf.verify_composition(U, gf.adjoint(U), chi, chi.inverse(), frame64)
    assert rep.passed
    ref = gf.decay_profile(gf.gabor_matrix(gf.identity_operator(cfg64), frame64),
                           np.eye(2)).s_fit
    # U U* = I up to ~1e-16 noise, which only perturbs the noise-floor bins
    assert rep.s_fit == pytest.approx(ref, rel=1e-3)


# ---------------------------------------------------------------------------
# Wiener property
# ---------------------------------------------------------------------------

def test_inverse_unitary_exact_symmetry(frame64, cfg64):
    for gens in [(("chirp", 1),), (("dilate", 3),)]:
        U, chi = gf.metaplectic(gf.MetaplecticWord(gens, cfg64))
        rep = gf.verify_inverse(U, chi, frame64,
                                s_threshold=0.0)   # dilate sits below 3 at L=64
        assert rep.diagnostics["s_fit_ratio"] == pytest.approx(1.0, abs=1e-3)


def test_inverse_neumann_family(frame64, cfg64, smoothing64):
    C = gf.chirp_operator(cfg64, 1)
    for eps in (0.05, 0.1, 0.2):
        T = gf.OperatorMatrix(C.entries @ (np.eye(64) + eps * smoothing64.entries),
                              cfg64, tag="product")
        rep = gf.verify_inverse(T, chirp_map(cfg64, 1), frame64)
        assert rep.passed
        assert rep.s_fit >= 0.8 * rep.diagnostics["s_fit_forward"]


def test_inverse_checks_reconstruction(frame64, cfg64, smoothing64):
    # the LU-with-refinement inverse must actually invert
    T = gf.OperatorMatrix(
        gf.chirp_operator(cfg64, 1).entries @ (np.eye(64) + 0.1 * smoothing64.entries),
        cfg64)
    rep = gf.verify_inverse(T, chirp_map(cfg64, 1), frame64)
    assert rep.diagnostics["condition_number"] < 2.0


@pytest.mark.parametrize("regime", ["A", "B"])
@pytest.mark.parametrize("spec", ["perturb-id:0.2:4", "chirp:1*perturb-id:0.1:3",
                                  "dft*chirp:2"])
def test_refined_inverse_matches_reference_inverses(spec, regime):
    from gaborfio.algebra import _refined_inverse
    from gaborfio.cli import parse_operator
    A = parse_operator(spec, gf.ModelConfig(L=64, regime=regime))[0].entries
    X = _refined_inverse(A)
    ref = np.linalg.inv(A)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
    linalg = pytest.importorskip("scipy.linalg")
    lu = linalg.lu_factor(A)
    ref = linalg.lu_solve(lu, np.eye(64, dtype=complex))
    ref += linalg.lu_solve(lu, np.eye(64) - A @ ref)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


def test_inverse_rank_deficient_rejected(frame64, cfg64):
    P = np.zeros((64, 64))
    P[:32, :32] = np.eye(32)
    with pytest.raises(gf.SingularOperator):
        gf.verify_inverse(gf.OperatorMatrix(P, cfg64), chirp_map(cfg64, 1), frame64)


# ---------------------------------------------------------------------------
# metaplectic factorization
# ---------------------------------------------------------------------------

def test_factorize_metaplectic_itself(frame64, cfg64):
    word = gf.MetaplecticWord((("chirp", 1),), cfg64)
    sigma1, rep = gf.factorize_metaplectic(gf.chirp_operator(cfg64, 1), word,
                                           frame64)
    assert rep.passed
    np.testing.assert_allclose(sigma1.values, np.ones((64, 64)), atol=1e-12)


def test_factorize_multiplier_chirp(frame64, cfg64):
    word = gf.MetaplecticWord((("chirp", 1),), cfg64)
    T = gf.compose(gf.multiplier_operator(cfg64, 0.1), gf.chirp_operator(cfg64, 1))
    sigma1, rep = gf.factorize_metaplectic(T, word, frame64)
    assert rep.passed
    n = np.arange(64)
    expected = 1 + 0.1 * np.cos(2 * np.pi * n / 64)
    np.testing.assert_allclose(sigma1.values, np.repeat(expected[:, None], 64, 1),
                               atol=1e-10)
    assert rep.diagnostics["reconstruction_rel_error"] <= 1e-10
    assert rep.diagnostics["mirrored_rel_error"] <= 1e-10


def test_factorize_mismatched_word(frame64, cfg64):
    T = gf.compose(gf.multiplier_operator(cfg64, 0.1), gf.chirp_operator(cfg64, 1))
    with pytest.raises(gf.NotInClass):
        gf.factorize_metaplectic(T, gf.MetaplecticWord((("chirp", 2),), cfg64),
                                 frame64)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_json_schema(frame64, cfg64):
    rep = gf.verify_composition(gf.chirp_operator(cfg64, 1),
                                gf.chirp_operator(cfg64, 2),
                                chirp_map(cfg64, 1), chirp_map(cfg64, 2), frame64)
    payload = json.loads(rep.to_json())
    for key in ("operation", "s_fit", "C_fit", "pass", "bins"):
        assert key in payload
    assert payload["operation"] == "compose"
    assert isinstance(payload["bins"], list) and payload["bins"]
    assert set(payload["bins"][0]) == {"dist", "envelope", "count"}
