"""Each output check accepts a real output and rejects a corrupted copy.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

The outputs come from small `gaborfio run` experiments; the corruptions edit
the written files the way a wrong result would.
"""

import csv
import json
import shutil

import numpy as np
import pytest

import checks
from gaborfio import cli


def run_pipeline(dest, **config):
    cfg = dest / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["run", str(cfg), "--out", str(dest / "out")]) == 0
    return dest / "out"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    specs = {
        "word": dict(model={"L": 64}, pipeline="decay", operator="dft*chirp:-2"),
        "identity_b": dict(model={"L": 64, "regime": "B", "T": 8.0}, pipeline="decay",
                           operator="fio1:phase=kn,symbol=ones"),
        "matrix": dict(model={"L": 32}, pipeline="gabor-matrix", operator="chirp:3"),
        "sweep": dict(model={"L": 32}, pipeline="sparsity-sweep", operator="chirp:1"),
        "invert": dict(model={"L": 32}, pipeline="invert",
                       operator="chirp:1*perturb-id:0.1:5"),
        "factorize": dict(model={"L": 32}, pipeline="factorize",
                          operator="multiplier:0.1*chirp:1", word=["chirp:1"]),
    }
    for name, config in specs.items():
        (base / name).mkdir()
        run_pipeline(base / name, **config)
    return base


@pytest.fixture
def copy_of(outputs, tmp_path):
    def copy(name):
        dest = tmp_path / f"{name}-{len(list(tmp_path.iterdir()))}"
        shutil.copytree(outputs / name / "out", dest)
        return dest
    return copy


def edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def edit_report(path, edit):
    rep = json.loads(path.read_text())
    edit(rep)
    path.write_text(json.dumps(rep))


def peak_row(rows):
    return max(range(1, len(rows)), key=lambda i: float(rows[i][1]))


WORD = [["dft"], ["chirp", -2]]


def test_word_profile_accepts_real_outputs(copy_of):
    assert checks.check_word_profile(copy_of("word"), WORD) == []
    assert checks.check_word_profile(copy_of("identity_b"), []) == []
    assert checks.check_profile_total(copy_of("word")) == []
    assert checks.check_pass(copy_of("word")) == []


@pytest.mark.parametrize("name,word", [("word", WORD), ("identity_b", [])])
def test_word_profile_rejects_scaled_envelope(copy_of, name, word):
    out = copy_of(name)

    def scale(rows):
        i = peak_row(rows)
        rows[i][1] = repr(float(rows[i][1]) * (1 + 1e-6))
    edit_csv(out / "profile.csv", scale)
    assert any("envelope" in e for e in checks.check_word_profile(out, word))


def test_word_profile_rejects_wrong_map(copy_of):
    # dft*chirp:-2 against the covariance of dft*chirp:1
    assert checks.check_word_profile(copy_of("word"), [["dft"], ["chirp", 1]])


def test_counts_reject_moved_entry(copy_of):
    out = copy_of("word")

    def move(rows):
        rows[1][2] = str(int(rows[1][2]) + 1)
    edit_csv(out / "profile.csv", move)
    assert any("count" in e for e in checks.check_word_profile(out, WORD))
    assert checks.check_profile_total(out)


def test_pass_flag_rejects_failed_run(copy_of):
    out = copy_of("word")
    edit_report(out / "report.json", lambda rep: rep.update({"pass": False}))
    assert checks.check_pass(out)


def test_matrix_csv(copy_of):
    assert checks.check_matrix_csv(copy_of("matrix"), L=32, c=3) == []
    assert checks.check_matrix_csv(copy_of("matrix"), L=32, c=1)     # other Gauss sum

    out = copy_of("matrix")
    edit_csv(out / "matrix.csv", lambda rows: rows.pop())
    assert any("shape" in e for e in checks.check_matrix_csv(out, L=32, c=3))

    out = copy_of("matrix")

    def perturb_offdiagonal(rows):
        i = next(i for i, r in enumerate(rows[1:], 1) if r[:2] != r[2:4])
        rows[i][4] = repr(float(rows[i][4]) + 1e-3)
    edit_csv(out / "matrix.csv", perturb_offdiagonal)
    assert any("|K|^2" in e for e in checks.check_matrix_csv(out, L=32, c=3))

    out = copy_of("matrix")

    def rotate_diagonal(rows):
        # a unimodular phase on one diagonal entry keeps sum |K|^2 but moves the trace
        i = next(i for i, r in enumerate(rows[1:], 1) if r[:2] == r[2:4])
        z = complex(float(rows[i][4]), float(rows[i][5])) * np.exp(0.1j)
        rows[i][4], rows[i][5] = repr(float(z.real)), repr(float(z.imag))
    edit_csv(out / "matrix.csv", rotate_diagonal)
    errors = checks.check_matrix_csv(out, L=32, c=3)
    assert errors and all("trace" in e for e in errors)


def test_sweep(copy_of):
    assert checks.check_sweep(copy_of("sweep")) == []
    out = copy_of("sweep")

    def exceed(rows):
        rows[1][3] = f"{float(rows[1][2]) * 1.01 + 1e-12:.6e}"
    edit_csv(out / "sweep.csv", exceed)
    assert checks.check_sweep(out)


def test_invert(copy_of):
    assert checks.check_invert(copy_of("invert"), eps=0.1) == []
    for cond in (0.99, 1.1 / 0.9 * 1.01):
        out = copy_of("invert")
        edit_report(out / "report.json",
                    lambda rep: rep["diagnostics"].update(condition_number=cond))
        assert checks.check_invert(out, eps=0.1)


def test_factorize(copy_of):
    assert checks.check_factorize(copy_of("factorize")) == []
    out = copy_of("factorize")
    edit_report(out / "report.json",
                lambda rep: rep["diagnostics"].update(reconstruction_rel_error=1e-9))
    assert checks.check_factorize(out)
