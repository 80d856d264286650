import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gaborfio as gf
import gaborfio.cli as cli
from gaborfio.errors import ConfigError


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def read_report(out):
    return json.loads((out / "report.json").read_text())


def test_missing_config_is_exit_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_L_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, model={"L": 63, "regime": "A"})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


def test_invalid_pipeline_is_exit_2(tmp_path):
    cfg = write_config(tmp_path, pipeline="nonsense")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_set_override_is_exit_2(tmp_path):
    cfg = write_config(tmp_path, pipeline="decay")
    assert cli.main(["run", cfg, "--set", "model.L"]) == 2


def test_decay_pipeline_dft(tmp_path):
    cfg = write_config(tmp_path, model={"L": 64, "regime": "A"},
                       operator="dft", pipeline="decay", seed=3)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["pass"] is True
    assert rep["s_fit"] >= 3.0
    assert rep["chi"] == "dft"
    assert (out / "profile.csv").exists()
    rows = list(csv.DictReader((out / "profile.csv").read_text().splitlines()))
    assert {"bin_dist", "envelope", "count", "log10_dist", "log10_envelope"} \
        <= set(rows[0])


def test_decay_pipeline_set_override(tmp_path):
    cfg = write_config(tmp_path, model={"L": 64, "regime": "A"},
                       operator="dft", pipeline="decay")
    out = tmp_path / "o2"
    assert cli.main(["run", cfg, "--set", "model.L=32", "--set",
                     "operator=chirp:1", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["config"]["model"]["L"] == 32
    assert rep["config"]["operator"] == "chirp:1"


def test_invert_pipeline_perturbed_chirp(tmp_path):
    cfg = write_config(tmp_path, model={"L": 64, "regime": "A"},
                       operator="chirp:1*perturb-id:0.1:7", pipeline="invert",
                       seed=1)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["pass"] is True
    assert (out / "report_algebra.json").exists()


def test_factorize_degenerate_metaplectic_exit_1(tmp_path):
    # mu(-J) has A-block 0: building the type-I operator raises
    # NondegeneracyViolation, surfaced as a pipeline failure
    cfg = write_config(tmp_path, model={"L": 32, "regime": "A"},
                       operator="metaplectic:0,1,-1,0", pipeline="factorize",
                       word=["chirp:1"])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["pass"] is False
    assert rep["error"]["type"] == "NondegeneracyViolation"


def test_factorize_pipeline_passes(tmp_path):
    cfg = write_config(tmp_path, model={"L": 64, "regime": "A"},
                       operator="multiplier:0.1*chirp:1", pipeline="factorize",
                       word=["chirp:1"])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["diagnostics"]["reconstruction_rel_error"] <= 1e-10


def test_compose_pipeline(tmp_path):
    cfg = write_config(tmp_path, model={"L": 64, "regime": "A"},
                       operator="chirp:1*dft", pipeline="compose")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["s_fit"] >= 3.0


def test_compose_pipeline_multiplies_only_what_it_reads(tmp_path, monkeypatch):
    # compose checks A against the product B*C*D: folding B*C*D takes two
    # products and verify_composition forms A (B C D), and nothing folds
    # A*B*C*D, which no part of the pipeline reads
    import gaborfio.algebra as algebra
    import gaborfio.operators as ops
    from gaborfio import ModelConfig, build_frame, default_lattice, periodized_gaussian

    spec = "chirp:1*dft*chirp:2*dft"
    cfg = write_config(tmp_path, model={"L": 64, "regime": "A"}, operator=spec,
                       pipeline="compose")
    calls = []

    def counting(compose):
        def wrapped(*args):
            calls.append(args)
            return compose(*args)
        return wrapped

    monkeypatch.setattr(ops, "compose", counting(ops.compose))
    monkeypatch.setattr(algebra, "compose", counting(algebra.compose))
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert len(calls) == 3
    monkeypatch.undo()

    config = ModelConfig(L=64)
    frame = build_frame(periodized_gaussian(config), default_lattice(config))
    _, _, parsed = cli.parse_operator(spec, config)
    T2, chi2, _ = cli.parse_operator(spec.split("*", 1)[1], config)
    rep = algebra.verify_composition(parsed[0][0], T2, parsed[0][1], chi2, frame)
    assert (out / "report_algebra.json").read_text() == rep.to_json()
    ref = tmp_path / "profile.csv"
    cli.gm.profile_to_csv(rep.profile, ref)
    assert (out / "profile.csv").read_bytes() == ref.read_bytes()


def test_offgrid_pipeline(tmp_path):
    cfg = write_config(tmp_path, model={"L": 32, "regime": "A"},
                       operator="chirp:1", pipeline="offgrid",
                       offgrid={"s": 4.0, "n_offsets": 3})
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["ratio"] <= 10.0


def test_gabor_matrix_pipeline_writes_csv(tmp_path):
    cfg = write_config(tmp_path, model={"L": 32, "regime": "A"},
                       operator="identity", pipeline="gabor-matrix",
                       frame={"a": 4, "b": 4})
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    header = (out / "matrix.csv").read_text().splitlines()[0]
    assert header == "mu_k,mu_m,lam_k,lam_m,re,im"


def test_symbol_class_pipeline(tmp_path):
    cfg = write_config(tmp_path, model={"L": 32, "regime": "A"},
                       operator="kn:symbol=random-smooth:5", pipeline="symbol-class")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert np.isfinite(rep["norm"])
    assert rep["s_sym"] >= 3.0


def test_sparsity_sweep_pipeline(tmp_path):
    cfg = write_config(tmp_path, model={"L": 64, "regime": "A"},
                       operator="chirp:1", pipeline="sparsity-sweep",
                       sweep={"tau_grid": [0.0, 1e-2, 1e-6], "repeats": 5,
                              "probes": 3})
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    assert len(rows) == 3
    # tau = 0 keeps everything; CSR vs dense matmul differ only in rounding
    assert float(rows[0]["measured_rel_error"]) <= 1e-14
    assert float(rows[0]["kept_fraction"]) == 1.0
    for r in rows:
        assert float(r["measured_rel_error"]) <= float(r["schur_residual"]) + 1e-15
    # kept fraction is monotone decreasing in tau
    by_tau = sorted(rows, key=lambda r: float(r["tau"]))
    kept = [float(r["kept_fraction"]) for r in by_tau]
    assert kept == sorted(kept, reverse=True)


def test_regime_b_decay_pipeline(tmp_path):
    # torus-matched perturbed phase on the sampled line: decay along the
    # nonlinear canonical map survives discretization
    cfg = write_config(tmp_path, model={"L": 64, "regime": "B", "T": 8.0},
                       operator="fio1:phase=sine:0.1:8:8,symbol=ones",
                       pipeline="decay")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["s_fit"] >= 3.0


def test_reproducibility_byte_equal_except_timings(tmp_path):
    cfg = write_config(tmp_path, model={"L": 32, "regime": "A"},
                       operator="kn:symbol=random-smooth:9", pipeline="decay",
                       seed=11)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", cfg, "--out", str(out2)]) == 0
    r1, r2 = read_report(out1), read_report(out2)
    r1.pop("timings"), r2.pop("timings")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()


def test_report_records_the_peak_resident_set(tmp_path):
    resource = pytest.importorskip("resource")
    cfg = write_config(tmp_path, model={"L": 32, "regime": "A"}, operator="dft")
    out = tmp_path / "o"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    peak = read_report(out)["timings"]["peak_rss_mb"]
    # the peak of this process so far, in MiB (ru_maxrss is KiB on Linux)
    assert 0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_operator_grammar_errors(tmp_path):
    for bad in ["kn", "fio1:phase=chirp:1", "wat:1"]:
        cfg = write_config(tmp_path, model={"L": 32, "regime": "A"},
                           operator=bad, pipeline="decay")
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


def test_whitespace_around_atoms_is_accepted():
    cfg = gf.ModelConfig(L=16)
    T, chi, atoms = cli.parse_operator(" chirp:1 * dft ", cfg)
    T0, chi0, _ = cli.parse_operator("chirp:1*dft", cfg)
    assert len(atoms) == 2 and chi.source == chi0.source
    np.testing.assert_array_equal(T.entries, T0.entries)


def test_failed_verification_is_exit_1(tmp_path):
    # dilate(3) at L=64 spreads the Gaussian across the torus: its decay fit
    # sits below the algebra threshold, a verification failure (not an error)
    cfg = write_config(tmp_path, model={"L": 64, "regime": "A"},
                       operator="dilate:3", pipeline="decay")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["pass"] is False and rep["error"] is None


@pytest.mark.parametrize("pipeline,operator,regime", [
    pytest.param("decay", "multiplier:1e308", "A", id="multiplier:1e308"),
    pytest.param("decay", "perturb-id:1e308", "A", id="perturb-id:1e308"),
    # a sampled map: the survivor fold of the decay fit
    ("decay", "multiplier:1e308*fio1:phase=sine:0.2:4:4,symbol=ones", "B"),
    ("gabor-matrix", "multiplier:1e308", "A"),
    ("offgrid", "multiplier:1e308", "A"),
    ("sparsity-sweep", "multiplier:1e308", "A"),
    ("symbol-class", "multiplier:1e308", "A"),
])
def test_overflowing_c_fit_is_exit_1(tmp_path, capsys, pipeline, operator, regime):
    # an overflow inside a pipeline fails the run with a report, and no
    # numpy warning is raised (the suite turns RuntimeWarnings into errors,
    # which cli.main does not catch) or reaches stderr.  In the decay fit
    # the fit holds, but <d>^s_fit |K| overflows: C_fit is inf, which fails
    # the run as it fails the algebra reports
    cfg = write_config(tmp_path, model={"L": 16, "regime": regime},
                       operator=operator, pipeline=pipeline)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["pass"] is False
    if pipeline == "decay":
        assert rep["C_fit"] == float("inf") and rep["error"] is None
    assert capsys.readouterr().err == ""


def test_threads_flag_smoke(tmp_path):
    cfg = write_config(tmp_path, model={"L": 32, "regime": "A"},
                       operator="identity", pipeline="decay")
    assert cli.main(["run", cfg, "--threads", "1",
                     "--out", str(tmp_path / "out")]) == 0


def test_load_config_defaults_merge(tmp_path):
    path = write_config(tmp_path, model={"L": 32, "regime": "A"})
    cfg = cli.load_config(path)
    assert cfg["model"]["L"] == 32
    assert cfg["pipeline"] == "decay"
    assert cfg["thresholds"]["s_threshold"] == 3.0
    with pytest.raises(ConfigError):
        cli.load_config(path, overrides=["frame.a=5"])   # 5 does not divide 32


def test_sweep_times_each_apply_the_configured_number_of_times(tmp_path, monkeypatch):
    calls = []

    def median_time(fn, repeats):
        calls.append(repeats)
        return 0.0

    monkeypatch.setattr(cli, "_median_time", median_time)
    cfg = write_config(tmp_path, model={"L": 32, "regime": "A"}, operator="chirp:1",
                       pipeline="sparsity-sweep",
                       sweep={"tau_grid": [1e-2, 1e-6], "repeats": 1, "probes": 1})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [1] * 4                  # a dense and a sparse apply per tau


def test_sweep_median_is_the_middle_of_the_sorted_times(monkeypatch):
    ticks = iter([0.0, 3.0, 0.0, 1.0, 0.0, 2.0, 0.0, 7.0])   # (start, end) per call
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
    assert cli._median_time(lambda: None, 3) == 2.0
    ticks = iter([0.0, 3.0, 0.0, 1.0, 0.0, 2.0, 0.0, 7.0])
    assert cli._median_time(lambda: None, 4) == 2.5


def test_sweep_run_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, about 9 ms a run
    cfg = write_config(tmp_path, model={"L": 32, "regime": "A"}, operator="chirp:1",
                       pipeline="sparsity-sweep")
    code = ("import sys, gaborfio.cli as cli; "
            f"assert cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0; "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_memory_error_exits_1_with_a_report(tmp_path, monkeypatch):
    def out_of_memory(run):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setitem(cli._PIPELINES, "decay", out_of_memory)
    cfg = write_config(tmp_path, model={"L": 16, "regime": "A"}, operator="dft")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["pass"] is False
    assert rep["error"] == {"type": "MemoryError",
                            "message": "Unable to allocate 1.00 GiB for an array"}


# ---------------------------------------------------------------------------
# operator atoms
# ---------------------------------------------------------------------------

def atom(spec):
    """The (operator, canonical map) of a one-atom spec at L = 64, regime A."""
    [(T, chi)] = cli._parse_atoms(spec, gf.ModelConfig(L=64))
    return T, chi


def test_fio1_chirp_phase_is_the_exact_quadratic_in_regime_a():
    cfg = gf.ModelConfig(L=64)
    assert cli._phase_for(cfg, "chirp:2").quad == (2.0, 1.0, 0.0)
    T, chi = atom("fio1:phase=chirp:2,symbol=ones")
    assert np.abs(T.entries - gf.chirp_operator(cfg, 2).entries).max() <= 1e-12
    np.testing.assert_array_equal(chi.matrix, [[1, 0], [2, 1]])
    assert chi.mod_L == 64


# spec -> its (p, q, r) where regime A builds the exact integer phase; None: sampled
PHASE_TABLE = {
    "kn": (0, 1, 0),
    "chirp:2": (2, 1, 0),
    "chirp:2.0": (2, 1, 0),
    "chirp:-3": (-3, 1, 0),
    "chirp:1.5": None,
    "metaplectic:1,0,1,1": (1, 1, 0),
    "metaplectic:1,0,2,1": (2, 1, 0),
    "metaplectic:2,0,0,0.5": None,            # q = 1/2
    "sine:0.2:8:8": None,
    "perturbed:0.1": None,
}


@pytest.mark.parametrize("regime", ["A", "B"])
@pytest.mark.parametrize("spec", PHASE_TABLE)
def test_phase_for_is_exact_only_for_integer_quadratics_in_regime_a(spec, regime):
    cfg = gf.ModelConfig(L=64, regime=regime)
    dp = cli._phase_for(cfg, spec)
    quad = PHASE_TABLE[spec] if regime == "A" else None
    if quad is not None:
        assert dp.quad == quad and dp.tame is None
        np.testing.assert_array_equal(dp.values, gf.quadratic_phase(cfg, *quad).values)
    else:
        assert dp.quad is None and dp.tame.name == gf.tame_phase(spec).name
        np.testing.assert_array_equal(
            dp.values, gf.discrete_phase_from_tame(gf.tame_phase(spec), cfg).values)


def test_metaplectic_atom_is_the_fio1_operator_with_a_real_map():
    T, chi = atom("metaplectic:1,0,2,1")
    fio1, _ = atom("fio1:phase=chirp:2,symbol=ones")
    np.testing.assert_array_equal(T.entries, fio1.entries)
    np.testing.assert_array_equal(chi.matrix, [[1, 0], [2, 1]])
    assert chi.mod_L is None


def test_fio2_atom_is_the_adjoint_along_the_inverse_map():
    T, chi = atom("fio2:phase=chirp:2,symbol=ones")
    fio1, _ = atom("fio1:phase=chirp:2,symbol=ones")
    np.testing.assert_array_equal(T.entries, gf.adjoint(fio1).entries)
    np.testing.assert_array_equal(chi.matrix, [[1, 0], [-2, 1]])
    assert chi.mod_L == 64
