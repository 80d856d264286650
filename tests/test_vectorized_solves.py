"""The canonical-map solves and the phase sampling run over whole arrays of
points.  They must give what one call per point gives: bit for bit where the
arithmetic is the same, and within 1e-10 index units where the type-II map
switched from a 2-D Newton on the forward map to the phase's own inverse."""

from dataclasses import replace

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import operators as ops
from gaborfio import phasegeom as pg
from gaborfio.phasegeom import CanonicalMap, TamePhase
from gaborfio.tfcore import wrap_half


def phase_specs(L):
    T = L ** 0.5
    return ["kn", "chirp:0.5", "perturbed:0.1"] + [
        f"sine:{eps}:{T:g}:{L / T:g}" for eps in (0, 0.2, 0.5)]


CASES = [(L, regime, spec) for L in (64, 256) for regime in ("A", "B")
         for spec in phase_specs(L)]


def index_map(L, regime, spec):
    cfg = gf.ModelConfig(L=L, regime=regime)
    chi = ops.index_map_of_tame(gf.tame_phase(spec), cfg)
    pts = wrap_half(gf.default_lattice(cfg, 4).points().astype(float), L)
    return chi, pts


@pytest.mark.parametrize("L, regime, spec", CASES)
def test_array_forward_equals_pointwise(L, regime, spec):
    chi, pts = index_map(L, regime, spec)
    per_point = np.array([chi.forward(y, eta) for y, eta in pts])
    np.testing.assert_array_equal(chi.map_points(pts), per_point)
    inv = chi.inverse()
    np.testing.assert_array_equal(inv.map_points(pts),
                                  np.array([inv.forward(x, xi) for x, xi in pts]))


def scalar_newton(resid, slope, t):
    """The one-point Newton loop the array solve replaces (no fallback)."""
    for _ in range(50):
        r = resid(t)
        if abs(r) < 1e-12:
            return t
        t = t - r / slope(t)
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize("spec", phase_specs(256))
def test_solves_equal_scalar_newton(spec):
    phi = gf.tame_phase(spec)
    chi = gf.canonical_map_of_phase(phi)
    pts = np.random.default_rng(7).uniform(-20, 20, size=(200, 2))
    fwd, back = [], []
    for u, v in pts:
        x = scalar_newton(lambda t: phi.grad_eta(t, v) - u,
                          lambda t: phi.hess(t, v)[1, 0], float(u))
        fwd.append((x, phi.grad_x(x, v)))
        eta = scalar_newton(lambda t: phi.grad_x(u, t) - v,
                            lambda t: phi.hess(u, t)[0, 1], float(u))
        back.append((phi.grad_eta(u, eta), eta))
    np.testing.assert_array_equal(chi.map_points(pts), np.array(fwd))
    np.testing.assert_array_equal(chi.inverse().map_points(pts), np.array(back))


def newton_inverse(chi, pts):
    """chi^-1 at the (N, 2) points by a 2-D Newton on chi.forward with
    central-difference Jacobians, over all points at once: a point drops out
    once its residual is below 1e-12, as in a one-point loop."""
    jacobian = CanonicalMap(chi.forward).jacobian
    target = np.asarray(pts, dtype=float)
    z = target.copy()
    idx = np.arange(len(z))
    for _ in range(50):
        r = np.stack(chi.forward(z[idx, 0], z[idx, 1]), axis=1) - target[idx]
        keep = ~(np.abs(r).max(axis=1) < 1e-12)
        idx, r = idx[keep], r[keep]
        if not idx.size:
            return z
        step = np.linalg.solve(jacobian(z[idx, 0], z[idx, 1]), r[:, :, None])
        z[idx] = z[idx] - step[:, :, 0]
    raise AssertionError("reference 2-D Newton stagnated")


@pytest.mark.parametrize("L, regime, spec", CASES)
def test_type2_inverse_matches_newton_reference(L, regime, spec):
    chi, pts = index_map(L, regime, spec)
    inv = chi.inverse().map_points(pts)
    reference = newton_inverse(chi, pts)
    assert np.abs(inv - reference).max() <= 1e-10
    assert np.abs(chi.map_points(inv) - pts).max() <= 1e-10


def test_map_without_matrix_or_inverse_has_no_inverse():
    chi = gf.canonical_map_of_phase(gf.tame_phase("perturbed:0.2"))
    with pytest.raises(gf.ModelError):
        CanonicalMap(chi.forward).inverse()


def discrete_phase_loop(phi, config):
    """The per-entry sampling that discrete_phase_from_tame replaces."""
    L = config.L
    vals = np.empty((L, L))
    if config.regime == "B":
        x, xi = config.time_grid(), config.freq_grid()
        for n in range(L):
            vals[n] = [phi.eval(x[n], xi[m]) + m / 2 for m in range(L)]
    else:
        mw = wrap_half(np.arange(L), L)
        for n in range(L):
            vals[n] = [phi.eval(float(n), float(mw[m])) / L for m in range(L)]
    return vals


@pytest.mark.parametrize("L, regime, spec", CASES)
def test_discrete_phase_equals_loop(L, regime, spec):
    cfg = gf.ModelConfig(L=L, regime=regime)
    phi = gf.tame_phase(spec)
    np.testing.assert_array_equal(ops.discrete_phase_from_tame(phi, cfg).values,
                                  discrete_phase_loop(phi, cfg))


def lying_phase():
    """perturbed:0.3, and the same phase whose hess oracle lies with a zero
    mixed derivative on the half plane x > 0."""
    phi = gf.tame_phase("perturbed:0.3")
    honest = phi.hess

    def lying(x, e):
        H = np.array(honest(x, e))
        H[0, 1] = H[1, 0] = np.where(np.asarray(x) > 0, 0.0, H[0, 1])
        return H

    return phi, replace(phi, hess=lying)


def test_zero_derivative_reaches_bisection():
    # the hess oracle lies with a zero mixed derivative on half the plane:
    # those points leave the Newton iteration at once and must still be
    # solved by the bracketing fallback, in the same call as the others
    phi, liar = lying_phase()
    truth = gf.canonical_map_of_phase(phi)
    chi = gf.canonical_map_of_phase(liar)
    pts = np.random.default_rng(6).uniform(-3, 3, size=(64, 2))
    x, xi = chi.forward(pts[:, 0], pts[:, 1])
    assert (x > 0).any() and (x < 0).any()
    assert np.abs(phi.grad_eta(x, pts[:, 1]) - pts[:, 0]).max() < 1e-10
    np.testing.assert_allclose(np.column_stack([x, xi]), truth.map_points(pts),
                               atol=1e-10)
    back = chi.inverse().map_points(pts)
    np.testing.assert_allclose(back, truth.inverse().map_points(pts), atol=1e-10)


def test_lying_oracle_points_go_through_bisection(monkeypatch):
    # the bracketing fallback is what solves the lying points, both ways
    phi, liar = lying_phase()
    roots, bracket_root = [], pg._bracket_root

    def counted(resid, t):
        roots.append(bracket_root(resid, t))
        return roots[-1]

    monkeypatch.setattr(pg, "_bracket_root", counted)
    chi = gf.canonical_map_of_phase(liar)
    pts = np.random.default_rng(6).uniform(-3, 3, size=(64, 2))
    roots.clear()
    x, _ = chi.forward(pts[:, 0], pts[:, 1])
    assert roots and None not in roots
    assert np.abs(phi.grad_eta(x, pts[:, 1]) - pts[:, 0]).max() < 1e-10
    roots.clear()
    eta = chi.inverse().map_points(pts)[:, 1]
    assert roots and None not in roots
    assert np.abs(phi.grad_x(pts[:, 0], eta) - pts[:, 1]).max() < 1e-10


def test_bracket_root_bisects_to_tolerance():
    root = pg._bracket_root(lambda t: t ** 3 - 2.0, 40.0)
    assert abs(root - 2.0 ** (1 / 3)) <= 1e-14
    assert pg._bracket_root(lambda t: -t, 0.0) == 0.0
    assert pg._bracket_root(lambda t: 1.0 + t * t, 0.5) is None


def test_bad_oracle_raises_on_arrays():
    bad = TamePhase(
        eval=lambda x, e: x * e,
        grad_x=lambda x, e: e,
        grad_eta=lambda x, e: 1.0 + 0 * x,   # constant: no solution for y != 1
        hess=lambda x, e: np.array([[0.0, 1.0], [1.0, 0.0]]),
        declared_C2=1.0, declared_delta=1.0, name="bad")
    chi = gf.canonical_map_of_phase(bad)
    with pytest.raises(gf.SolveError):
        chi.forward(np.array([1.0, 3.0]), np.array([1.0, 1.0]))


def test_scalar_calls_return_scalars():
    chi = gf.canonical_map_of_phase(gf.tame_phase("perturbed:0.2"))
    for z in (chi(0.5, -1.0), chi.inverse()(0.5, -1.0)):
        assert all(np.ndim(v) == 0 for v in z)
    assert chi.jacobian(0.5, -1.0).shape == (2, 2)
    assert chi.jacobian(np.zeros(3), np.ones(3)).shape == (3, 2, 2)


def test_product_of_tame_maps_inverts_exactly():
    # a product of two non-linear maps carries its inverse; the round trip
    # holds where a 2-D Newton on the product's forward map can stagnate
    cfg = gf.ModelConfig(L=256, regime="B")
    chi1 = ops.index_map_of_tame(gf.tame_phase("sine:0.5:16:16"), cfg)
    chi2 = ops.index_map_of_tame(gf.tame_phase("perturbed:0.1"), cfg)
    prod = gf.compose_maps(chi1, chi2)
    pts = wrap_half(gf.default_lattice(cfg, 4).points().astype(float), 256)
    inv = prod.inverse()
    assert inv.source == f"inverse({prod.source})"
    assert np.abs(prod.map_points(inv.map_points(pts)) - pts).max() <= 1e-9
    np.testing.assert_array_equal(
        inv.map_points(pts),
        chi2.inverse().map_points(chi1.inverse().map_points(pts)))
