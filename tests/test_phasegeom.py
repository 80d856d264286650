import numpy as np
import pytest

import gaborfio as gf
from gaborfio.phasegeom import TamePhase
from gaborfio.tfcore import wrap_half


def quartic_phase():
    # Phi = x eta + x^2 eta^2: mixed second derivative unbounded, so any
    # declared C2 is eventually violated on a growing box
    return TamePhase(
        eval=lambda x, e: x * e + x ** 2 * e ** 2,
        grad_x=lambda x, e: e + 2 * x * e ** 2,
        grad_eta=lambda x, e: x + 2 * x ** 2 * e,
        hess=lambda x, e: np.array([[2 * e ** 2, 1 + 4 * x * e],
                                    [1 + 4 * x * e, 2 * x ** 2]]),
        declared_C2=2.0, declared_delta=1.0, name="quartic")


def test_validate_tame_kn():
    rep = gf.validate_tame(gf.tame_phase("kn"))
    assert rep.passed
    assert rep.C2_observed == pytest.approx(1.0)
    assert rep.delta_observed == pytest.approx(1.0)


def test_validate_tame_perturbed():
    rep = gf.validate_tame(gf.tame_phase("perturbed:0.1"))
    assert rep.passed
    assert rep.delta_observed >= 0.9 - 1e-9


def test_validate_tame_quartic_fails():
    rep = gf.validate_tame(quartic_phase())
    assert not rep.passed
    assert rep.C2_observed > 2.0


def test_validate_tame_sample_floor():
    with pytest.raises(gf.ModelError):
        gf.validate_tame(gf.tame_phase("kn"), n_samples=50)


def test_canonical_map_kn_is_identity(rng):
    chi = gf.canonical_map_of_phase(gf.tame_phase("kn"))
    for _ in range(20):
        y, e = rng.uniform(-5, 5, 2)
        x, xi = chi(y, e)
        assert (x, xi) == pytest.approx((y, e), abs=1e-12)


def test_canonical_map_chirp_is_shear(rng):
    # Phi = x^2/2 + x eta solves to chi(y, eta) = (y, y + eta)
    chi = gf.canonical_map_of_phase(gf.tame_phase("chirp:1"))
    for _ in range(100):
        y, e = rng.uniform(-5, 5, 2)
        x, xi = chi(y, e)
        assert x == pytest.approx(y, abs=1e-10)
        assert xi == pytest.approx(y + e, abs=1e-10)


def test_canonical_map_perturbed(rng):
    phi = gf.tame_phase("perturbed:0.1")
    chi = gf.canonical_map_of_phase(phi)
    pts = rng.uniform(-4, 4, size=(50, 2))
    for y, e in pts:
        x, xi = chi(y, e)
        assert abs(phi.grad_eta(x, e) - y) < 1e-11
        assert abs(phi.grad_x(x, e) - xi) < 1e-12
    assert gf.check_symplectic(chi, pts) < 1e-6


def test_canonical_map_bad_oracles():
    # a lying derivative oracle must surface as SolveError, not wrong output
    bad = TamePhase(
        eval=lambda x, e: x * e,
        grad_x=lambda x, e: e,
        grad_eta=lambda x, e: 1.0 + 0 * x,   # constant: no solution for y != 1
        hess=lambda x, e: np.array([[0.0, 1.0], [1.0, 0.0]]),
        declared_C2=1.0, declared_delta=1.0, name="bad")
    chi = gf.canonical_map_of_phase(bad)
    with pytest.raises(gf.SolveError):
        chi(3.0, 1.0)


def test_phase_of_symplectic_shear():
    M = gf.SymplecticMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
    phi = gf.phase_of_symplectic(M)
    # Phi = x^2/2 + x eta
    for x, e in [(0.3, -1.2), (2.0, 0.5)]:
        assert phi.eval(x, e) == pytest.approx(0.5 * x * x + x * e)


def test_phase_of_symplectic_identity():
    phi = gf.phase_of_symplectic(gf.SymplecticMatrix(np.eye(2)))
    for x, e in [(1.0, 2.0), (-0.7, 0.3)]:
        assert phi.eval(x, e) == pytest.approx(x * e)


def test_phase_of_symplectic_degenerate():
    mJ = gf.SymplecticMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(gf.NondegeneracyViolation):
        gf.phase_of_symplectic(mJ)


def test_phase_roundtrip_through_canonical_map(rng):
    # canonical_map_of_phase(phase_of_symplectic(M)) == z -> M z
    for _ in range(10):
        # random symplectic with |A| >= 0.1 via an LU-style product
        c, b = rng.uniform(-2, 2, 2)
        a = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        M = np.array([[1.0, 0.0], [c, 1.0]]) @ np.diag([a, 1 / a]) \
            @ np.array([[1.0, b], [0.0, 1.0]])
        chi = gf.canonical_map_of_phase(
            gf.phase_of_symplectic(gf.SymplecticMatrix(M)))
        for _ in range(10):
            z = rng.uniform(-4, 4, 2)
            np.testing.assert_allclose(chi(*z), M @ z, atol=1e-10)


def test_check_symplectic_identity():
    chi = gf.linear_map(np.eye(2))
    assert gf.check_symplectic(chi, [(0, 0), (1, 2)]) == 0.0


def test_check_symplectic_shear_exact():
    chi = gf.linear_map([[1.0, 0.0], [1.0, 1.0]])
    assert gf.check_symplectic(chi, [(0.5, -2.0)]) < 1e-15


def test_check_symplectic_dilation_deviation():
    # D = diag(2, 1): D^T J D - J = J, largest entry 1
    chi = gf.linear_map([[2.0, 0.0], [0.0, 1.0]])
    assert gf.check_symplectic(chi, [(0, 0)]) == pytest.approx(1.0)


def test_equivalence_kn_ratio_one(rng):
    rep = gf.phase_chi_equivalence(gf.tame_phase("kn"), n_quadruples=500, rng=rng)
    assert rep.passed
    assert rep.ratio_min == pytest.approx(1.0, abs=1e-9)
    assert rep.ratio_max == pytest.approx(1.0, abs=1e-9)


def test_equivalence_chirp_bounds():
    rep = gf.phase_chi_equivalence(gf.tame_phase("chirp:1"), n_quadruples=10_000,
                                   rng=np.random.default_rng(1))
    assert rep.passed
    assert 0.25 <= rep.ratio_min and rep.ratio_max <= 4.0


def test_equivalence_quadratic_sample_independent():
    # for quadratic phases the extreme ratios are properties of the phase,
    # not the sample: two disjoint samples must agree closely
    a = gf.phase_chi_equivalence(gf.tame_phase("chirp:1"), n_quadruples=20_000,
                                 rng=np.random.default_rng(2))
    b = gf.phase_chi_equivalence(gf.tame_phase("chirp:1"), n_quadruples=20_000,
                                 rng=np.random.default_rng(3))
    assert a.ratio_max == pytest.approx(b.ratio_max, rel=0.05)
    assert a.ratio_min == pytest.approx(b.ratio_min, rel=0.05)


def test_equivalence_perturbed_finite():
    rep = gf.phase_chi_equivalence(gf.tame_phase("perturbed:0.1"),
                                   n_quadruples=2000,
                                   rng=np.random.default_rng(4))
    assert rep.passed
    assert np.isfinite(rep.ratio_max)


def test_inverse_map_roundtrip(rng):
    phi = gf.tame_phase("perturbed:0.2")
    chi = gf.canonical_map_of_phase(phi)
    inv = chi.inverse()
    for _ in range(25):
        z = rng.uniform(-3, 3, 2)
        w = chi(*z)
        np.testing.assert_allclose(inv(*w), z, atol=1e-9)


def test_bilipschitz_comparability(rng):
    # <w - chi(z)> and <chi^{-1}(w) - z> are comparable within the Lipschitz
    # constants of chi and chi^{-1}, estimated from Jacobians on [-4, 4]^2
    phi = gf.tame_phase("perturbed:0.2")
    chi = gf.canonical_map_of_phase(phi)
    inv = chi.inverse()
    D = chi.jacobian(*np.meshgrid(np.linspace(-4.0, 4.0, 5), np.linspace(-4.0, 4.0, 5)))
    lam = max(1.0, np.linalg.norm(D, 2, axis=(-2, -1)).max()) * 1.01
    lam_inv = 0.0
    pts = rng.uniform(-3, 3, size=(20, 2))
    for y, e in pts:
        lam_inv = max(lam_inv, np.linalg.norm(inv.jacobian(y, e), 2))
    lam = max(lam, lam_inv) * 1.01
    for _ in range(50):
        z = rng.uniform(-3, 3, 2)
        w = rng.uniform(-3, 3, 2)
        num = np.sqrt(1 + np.sum((w - chi(*z)) ** 2))
        den = np.sqrt(1 + np.sum((np.array(inv(*w)) - z) ** 2))
        assert 1 / lam <= num / den <= lam


def test_symplectic_matrix_validation():
    with pytest.raises(gf.ModelError):
        gf.SymplecticMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))  # det != 1 form


def test_phase_catalog_unknown():
    with pytest.raises(gf.ModelError):
        gf.tame_phase("nosuch:1")


# ---------------------------------------------------------------------------
# the quadratic catalog phases against their closed forms
# ---------------------------------------------------------------------------

def closed_form(spec):
    """(phase, (p, q, r)) of a quadratic catalog spec, with the phase written
    out in closed form: kn and chirp:c in their own terms, metaplectic:a,b,c,d
    through the coefficients of phase_of_symplectic."""
    head, _, arg = spec.partition(":")
    if head == "kn":
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        return TamePhase(eval=lambda x, e: x * e, grad_x=lambda x, e: e,
                         grad_eta=lambda x, e: x, hess=lambda x, e: H.copy(),
                         declared_C2=1.0, declared_delta=1.0, name="kn"), (0, 1, 0)
    if head == "chirp":
        c = float(arg)
        H = np.array([[c, 1.0], [1.0, 0.0]])
        return TamePhase(eval=lambda x, e: 0.5 * c * x * x + x * e,
                         grad_x=lambda x, e: c * x + e, grad_eta=lambda x, e: x,
                         hess=lambda x, e: H.copy(), declared_C2=max(abs(c), 1.0),
                         declared_delta=1.0, name=f"chirp:{c:g}"), (c, 1, 0)
    a, b, c, d = (float(t) for t in arg.split(","))
    p, q, r = c / a, 1.0 / a, -b / a
    H = np.array([[p, q], [q, r]])
    return TamePhase(eval=lambda x, e: 0.5 * p * x * x + q * x * e + 0.5 * r * e * e,
                     grad_x=lambda x, e: p * x + q * e, grad_eta=lambda x, e: q * x + r * e,
                     hess=lambda x, e: H.copy(), declared_C2=float(np.abs(H).max()),
                     declared_delta=abs(q), name=f"metaplectic({a:g},{b:g},{c:g},{d:g})"), \
        (p, q, r)


@pytest.mark.parametrize("spec", [
    "kn", "chirp:2", "chirp:-1.5", "chirp:0", "metaplectic:1,0,1,1",
    "metaplectic:2,0,0,0.5", "metaplectic:1,0.5,0,1", "metaplectic:-1,0,0.5,-1"])
def test_quadratic_catalog_phase_matches_its_closed_form(spec):
    # metaplectic:a,b,c,d is phase_of_symplectic of its matrix.
    # assert_array_equal counts -0.0 equal to +0.0: the shared form adds
    # zero terms such as 0 * x * x, which may flip the sign of a zero
    phi = gf.tame_phase(spec)
    ref, quad = closed_form(spec)
    assert phi.quad == quad and phi.name == ref.name
    assert (phi.declared_C2, phi.declared_delta) == (ref.declared_C2, ref.declared_delta)
    x, e = np.meshgrid(np.linspace(-4, 4, 9), np.linspace(-3, 3, 7), indexing="ij")
    for oracle in ("eval", "grad_x", "grad_eta", "hess"):
        np.testing.assert_array_equal(getattr(phi, oracle)(x, e),
                                      getattr(ref, oracle)(x, e))
    for cfg in (gf.ModelConfig(L=64), gf.ModelConfig(L=64, regime="B")):
        dp, dp_ref = (gf.discrete_phase_from_tame(f, cfg) for f in (phi, ref))
        np.testing.assert_array_equal(dp.values, dp_ref.values)
        pts = wrap_half(gf.Lattice(4, 4, cfg).points().astype(float), cfg.L)
        chi, chi_ref = dp.canonical_map(), dp_ref.canonical_map()
        np.testing.assert_array_equal(chi.map_points(pts), chi_ref.map_points(pts))
        np.testing.assert_array_equal(chi.inverse().map_points(pts),
                                      chi_ref.inverse().map_points(pts))

