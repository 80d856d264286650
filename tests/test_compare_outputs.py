"""tools/compare_outputs.py: what it ignores between two runs (the
"timings" entry, the *_ms columns of sweep.csv), what it flags, and that
its config table loads, all but its two malformed rows."""

import importlib.util
import json
from pathlib import Path

import gaborfio.cli as cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

PROFILE = "bin_dist,envelope,count\n1.0,0.5,16\n1.41,0.25,32\n"


def write_run(run_dir, total_s=0.1, dense_ms="0.1000", profile=PROFILE):
    out = run_dir / "out"
    out.mkdir(parents=True)
    report = {"pipeline": "decay", "s_fit": 4.0, "pass": True,
              "timings": {"total_s": total_s, "peak_rss_mb": 50.0}}
    (out / "report.json").write_text(json.dumps(report, indent=2))
    (out / "profile.csv").write_text(profile)
    (out / "sweep.csv").write_text("tau,kept_fraction,dense_ms,sparse_ms\n"
                                   f"1.000e-02,0.500000,{dense_ms},0.2000\n")
    return compare.outputs(run_dir, 0, "")


def test_timings_and_apply_times_are_ignored(tmp_path):
    base = write_run(tmp_path / "base")
    head = write_run(tmp_path / "head", total_s=9.5, dense_ms="7.1234")
    assert compare.mismatches(base, head) == []


def test_one_changed_byte_in_profile_is_flagged(tmp_path):
    base = write_run(tmp_path / "base")
    head = write_run(tmp_path / "head", profile=PROFILE.replace("0.25", "0.26"))
    assert compare.mismatches(base, head) == ["profile.csv"]


def test_exit_code_and_a_file_written_on_one_side_are_flagged(tmp_path):
    base = write_run(tmp_path / "base")
    write_run(tmp_path / "head")
    (tmp_path / "head" / "out" / "matrix.csv").write_text("0,0,1.0\n")
    head = compare.outputs(tmp_path / "head", 1, "")
    assert compare.mismatches(base, head) == ["exit", "matrix.csv"]


def test_config_table_loads_and_covers_every_pipeline(tmp_path):
    # every config loads but the two malformed failure rows
    path = tmp_path / "config.json"
    rejected = []
    for cfg in compare.CONFIGS:
        path.write_text(json.dumps(cfg))
        try:
            cli.load_config(str(path))
        except cli.ConfigError:
            rejected.append(cfg)
    assert [(c.get("frame"), c.get("output")) for c in rejected] == [
        ({"a": True, "b": True}, None), (None, {"matrix_csv": "no"})]
    for regime in ("A", "B"):
        ran = {c["pipeline"] for c in compare.CONFIGS if c["model"]["regime"] == regime}
        assert ran == set(cli.PIPELINES) - ({"offgrid"} if regime == "B" else set())
