"""Exact identities of the finite model over random seeds and L in {16, 32,
64}: the Kohn-Nirenberg and type-I round trips, Parseval for the tight
window, and the Gabor matrix of a product.  Each holds to rounding: over
40 seeds a size and regime (regime A alone for the type-I round trip, 10
seeds for the product) the type-I round trip read up to 5.3e-14 relative
and the others below 1.5e-15; they are asserted at 1e-12."""

from functools import lru_cache

import numpy as np
import pytest

import gaborfio as gf

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

RTOL = 1e-12
sizes = st.sampled_from([16, 32, 64])
regimes = st.sampled_from(["A", "B"])
seeds = st.integers(0, 2 ** 32 - 1)
examples = settings(max_examples=30, deadline=None, database=None)


def rel(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def complex_normal(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@lru_cache(maxsize=None)
def frame_of(L, regime):
    cfg = gf.ModelConfig(L=L, regime=regime)
    return gf.build_frame(gf.periodized_gaussian(cfg), gf.default_lattice(cfg))


@examples
@given(sizes, regimes, seeds)
def test_kn_round_trip(L, regime, seed):
    # kn_symbol_of(kn_quantize(sigma)) = sigma
    sigma = gf.SymbolGrid(complex_normal(np.random.default_rng(seed), (L, L)),
                          gf.ModelConfig(L=L, regime=regime))
    assert rel(gf.kn_symbol_of(gf.kn_quantize(sigma)).values, sigma.values) <= RTOL


@examples
@given(sizes, seeds, st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
def test_type1_round_trip(L, seed, coefficients):
    # type1_symbol_of(fio_type1(phi, sigma), phi) = sigma for every phase
    cfg = gf.ModelConfig(L=L)
    phi = gf.quadratic_phase(cfg, *coefficients)
    sigma = gf.SymbolGrid(complex_normal(np.random.default_rng(seed), (L, L)), cfg)
    got = gf.type1_symbol_of(gf.fio_type1(phi, sigma), phi)
    assert rel(got.values, sigma.values) <= RTOL


@examples
@given(sizes, regimes, seeds)
def test_tight_analysis_is_parseval(L, regime, seed):
    # ||analysis(frame, f)|| = ||f|| over the canonical tight window
    frame = frame_of(L, regime)
    f = gf.random_signal(frame.config, np.random.default_rng(seed))
    norm = np.linalg.norm(f.values)
    assert abs(np.linalg.norm(gf.analysis(frame, f).values) - norm) <= RTOL * norm


@settings(max_examples=15, deadline=None, database=None)
@given(sizes, regimes, seeds)
def test_gabor_matrix_of_a_product_is_the_product(L, regime, seed):
    # K_{T1 T2} = K_{T1} K_{T2}: A^H A = I for a Parseval frame
    frame = frame_of(L, regime)
    rng = np.random.default_rng(seed)
    T1, T2 = (gf.OperatorMatrix(complex_normal(rng, (L, L)), frame.config) for _ in range(2))
    K12 = gf.gabor_matrix(gf.compose(T1, T2), frame).entries
    product = gf.gabor_matrix(T1, frame).entries @ gf.gabor_matrix(T2, frame).entries
    assert rel(product, K12) <= RTOL
