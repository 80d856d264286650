"""Malformed configs and operator specs exit 2 with one line on stderr and
no report; --threads resizes the BLAS pools of the running process for the
run and puts them back after it."""

import json
import os

import pytest

import gaborfio.cli as cli


def run(tmp_path, capsys, *overrides, threads=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"L": 32, "regime": "A"}}))
    out = tmp_path / "out"
    argv = ["run", str(path), "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    if threads is not None:
        argv += ["--threads", str(threads)]
    code = cli.main(argv)
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize("overrides", [
    ("operator=chirp:x",),
    ("operator=dilate:2",),                       # 2 is not a unit mod 32
    ("pipeline=sparsity-sweep", "sweep.probes=0"),
    ("thresholds.s_threshold=abc",),
    ("operator=kn:symbol=random-smooth:-2",),
    ("operator=chirp:1*perturb-id:0.1:-3",),
    ("seed=-1",),
    ("operator=metaplectic:1,0,1",),
    ("operator=fio1:phase=sine:x,symbol=ones",),
    ("sweep.tau_grid=[]",),
    ("operator=fio1:phase=sine:0.2:0:16,symbol=ones",),       # zero period
    ("operator=fio1:phase=sine:0.2:inf:16,symbol=ones",),     # infinite period
    ("operator=fio2:phase=sine:0.2:16:0,symbol=ones", "model.regime=B"),
    ("operator=fio1:phase=nosuch,symbol=ones",),
    ("operator=fio1:phase=nosuch,symbol=ones", "model.regime=B"),
    ("operator=fio1:phase=kn:2,symbol=ones",),
    ("operator=fio1:phase=sine:1.5:8:8,symbol=ones",),        # strength outside [0, 1)
    ("operator=fio1:phase=perturbed:-0.1,symbol=ones", "model.regime=B"),
    ("operator=fio1:phase=perturbed:1,symbol=ones",),
    ("operator=fio1:phase=chirp:nan,symbol=ones", "model.regime=B"),
    ("operator=fio1:phase=metaplectic:2,0,0,1,symbol=ones",),  # not symplectic
    ("nosuch=1",),                                # unknown top-level key
    ("model.nosuch=1",),                          # unknown key in a known section
    ("sweep.tau=[0.1]",),
    ("model=64",),                                # a section that is not an object
    ("seed.x=1",),                                # a path through a non-section
    ("pipeline=factorize", 'word=["chirp"]'),     # chirp needs its argument
    ("pipeline=factorize", 'word=["foo"]'),
    ("pipeline=factorize", 'word=["identity"]'),  # an atom, not a generator
    ("pipeline=factorize", 'word=["dilate:2"]'),  # 2 is not a unit mod 32
    ("pipeline=factorize", 'word=["dft:3"]'),     # dft takes no argument
    ("operator=dft:3",),
    ("operator=identity:zz",),
    ("operator=perturb-id:0.1:2:9",),             # perturb-id:eps[:seed]
    ("operator=fio1:phase=kn,symbol=random-smooth:1:2:3",),  # seed[:bandwidth]
    ("operator=chirp:99999999999999999999",),     # beyond the int64 word matrices
    ("pipeline=factorize", 'word=["chirp:99999999999999999999"]'),
    ("frame.density=abc",),
    ("frame.density=0",),
    ("frame.density=3",),                         # 32 / 3 is not an integer
    ("frame.a=8",),                               # a without b
    ("frame.window=box",),
    ("model.regime=B", "model.T=abc"),
    ("model.regime=B", "model.T=[1]"),
    ("model.regime=B", "model.T=-1"),
    ("operator=",),                               # empty operator spec
    ("operator=chirp:1*",),                       # an empty atom at the end
    ("operator=chirp:1**dft",),                   # ... in the middle
    ("operator=*dft",),                           # ... at the start
    ("pipeline=compose", "operator=chirp:1"),     # compose needs two atoms
    ("model.T=Infinity", "model.regime=B"),
    ("offgrid.s=Infinity",),
    ("symbol_class.s=NaN",),
    ("thresholds.s_threshold=NaN",),
    ("pipeline=sparsity-sweep", "sweep.tau_grid=[Infinity]"),
    ("pipeline=sparsity-sweep", "sweep.tau_grid=[1e400]"),    # json reads it as inf
    ("model.regime=C",),
    ("operator=5",),                              # not a string spec
    ('word="dft"',),                              # a string, not a list
    ("operator=fio1:foo",),                       # no phase=
    ("operator=kn:symbol=random-smooth:1:16",),   # 33 modes per axis alias at L = 32
    ("frame.a=true", "frame.b=true"),             # booleans, not integers
    ("frame.a=1", "frame.b=true"),
    ("output.matrix_csv=no",),                    # no output section
    ("output.matrix_csv=1",),
])
def test_malformed_input_is_one_line_exit_2(tmp_path, capsys, overrides):
    code, err, out = run(tmp_path, capsys, *overrides)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert not (out / "report.json").exists()
    assert not (out / "profile.csv").exists()


def test_output_section_is_an_unknown_key(tmp_path, capsys):
    # matrix.csv comes from the gabor-matrix pipeline alone: a config that
    # still names the output section of decay is rejected like any other key
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"L": 32}, "output": {"matrix_csv": False}}))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: unknown config key 'output'\n"
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # the overflow is the input
@pytest.mark.parametrize("overrides", [
    ("operator=metaplectic:1,0,1e308,1",),
    ("operator=metaplectic:1,0,1e308,1", "model.regime=B"),
    ("operator=fio1:phase=chirp:1e308,symbol=ones", "model.regime=B"),
    ("operator=metaplectic:0.5,0,1e308,2",),      # C/A overflows to inf
])
def test_non_finite_chi_images_exit_1_with_a_report(tmp_path, capsys, overrides):
    code, err, out = run(tmp_path, capsys, "model.L=16", *overrides)
    assert code == 1 and "Traceback" not in err
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ModelError"


def test_threads_flag_caps_openblas(tmp_path, capsys, monkeypatch):
    """The pools run at --threads during the run and at their old count after."""
    handles = cli.openblas_thread_handles()
    if not handles:
        pytest.skip("no OpenBLAS loaded in this process")
    original = [get() for _, get in handles]
    during = []
    run_experiment = cli.run_experiment

    def recording(*args, **kwargs):
        during.append([get() for _, get in handles])
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", recording)
    try:
        for set_threads, _ in handles:       # an old count that differs from 1
            set_threads(2)
        code, err, _ = run(tmp_path, capsys, "operator=identity", threads=1)
        assert code == 0 and err == ""
        assert during == [[1] * len(handles)]
        assert [get() for _, get in handles] == [2] * len(handles)
    finally:
        for (set_threads, _), n in zip(handles, original):
            set_threads(n)


def test_threads_flag_rejects_zero(tmp_path, capsys):
    # beyond the machine's CPUs too; no pass may run with such a count
    for threads in (0, (os.cpu_count() or 1) + 1):
        code, err, out = run(tmp_path, capsys, threads=threads)
        lines = err.strip().splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: ")
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("document", [
    {"model": {"L": 32, "regime": "A"}, "nosuch": 1},
    {"model": {"L": 32, "regime": "A", "size": 2}},
    {"offgrid": {"n_offset": 2}},
    {"frame": 4},
    [1, 2],
])
def test_unknown_config_key_in_file_is_exit_2(tmp_path, capsys, document):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("word", ['["foo"]', '["chirp"]', '["dilate:2"]'])
def test_factorize_word_is_checked_before_any_allocation(tmp_path, capsys, monkeypatch,
                                                         word):
    def no_frame(*args, **kwargs):
        raise AssertionError("the frame was built before the word was checked")

    monkeypatch.setattr(cli.gabor, "build_frame", no_frame)
    code, err, out = run(tmp_path, capsys, "model.L=512", "pipeline=factorize",
                         f"word={word}")
    assert code == 2 and err.startswith("config error: ")
    assert not (out / "report.json").exists()
