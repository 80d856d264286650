"""Experiment runner.

    gaborfio run <config.json> [--set key=value]... [--threads N] [--out DIR]

The config is a flat JSON document; ``--set`` overrides use dotted paths
(``--set model.L=128``, ``--set operator=dft``).  One experiment per process;
all randomness comes from a single counter-based Philox generator seeded by
``seed``, so identical configs produce byte-identical reports apart from the
"timings" block.

Exit codes: 0 = all pass flags true, 1 = a verification failed or the
pipeline raised, 2 = the config did not parse or validate.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
# every run builds an argparse parser, whose gettext lookup imports locale;
# import it with the module so that it counts as start-up
import locale  # noqa: F401
import sys
import time
from functools import cached_property, partial
from math import isfinite
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import (algebra, blockpool, gabor, gabormatrix as gm, operators as ops,
               phasegeom as pg, tfcore)
from .errors import ConfigError, GaborFIOError, ModelError, UnitError

try:
    import resource
except ImportError:                 # Windows: the report has no peak_rss_mb
    resource = None

DEFAULT_CONFIG = {
    "model": {"L": 64, "regime": "A", "T": None},
    "frame": {"a": None, "b": None, "window": "gaussian", "density": 4},
    "operator": "chirp:1",
    "pipeline": "decay",
    "thresholds": {"s_threshold": 3.0, "offgrid_ratio_max": 10.0},
    "seed": 0,
    "offgrid": {"s": 4.0, "n_offsets": 3},
    "sweep": {"tau_grid": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10],
              "repeats": 5, "probes": 4},
    "symbol_class": {"s": 2.0},
    "word": None,
    "output": {"matrix_csv": False},
}

# (section, key) -> (int or float, smallest accepted value or None)
_NUMERIC_FIELDS = {
    ("thresholds", "s_threshold"): (float, None),
    ("thresholds", "offgrid_ratio_max"): (float, 0),
    ("offgrid", "s"): (float, None),
    ("offgrid", "n_offsets"): (int, 0),
    ("sweep", "repeats"): (int, 1),
    ("sweep", "probes"): (int, 1),
    ("symbol_class", "s"): (float, None),
    ("frame", "density"): (float, None),
}

def _set_path(cfg: dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = cfg
    for i, k in enumerate(keys[:-1]):
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {dotted}: {'.'.join(keys[:i + 1])} is not a section")
    node[keys[-1]] = value


def _check_keys(cfg: dict) -> None:
    """Every key is a key of DEFAULT_CONFIG, and every section an object."""
    for key, value in cfg.items():
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
        known = DEFAULT_CONFIG[key]
        if not isinstance(known, dict):
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
        for sub in value:
            if sub not in known:
                raise ConfigError(f"unknown config key {key + '.' + str(sub)!r}")


def load_config(path: str, overrides=()) -> dict:
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for section, value in user.items():
        if isinstance(value, dict) and isinstance(cfg.get(section), dict):
            cfg[section].update(value)
        else:
            cfg[section] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        _set_path(cfg, *item.split("=", 1))
    _check_keys(cfg)
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    m = cfg.get("model", {})
    L = m.get("L")
    if not isinstance(L, int) or L < 8 or L % 2:
        raise ConfigError(f"model.L must be an even integer >= 8, got {L!r}")
    if m.get("regime") not in ("A", "B"):
        raise ConfigError(f"model.regime must be 'A' or 'B', got {m.get('regime')!r}")
    if m.get("T") is not None and not _is_finite(m["T"]):
        raise ConfigError(f"model.T must be a finite number, got {m['T']!r}")
    fr = cfg.get("frame", {})
    for key in ("a", "b"):
        v = fr.get(key)
        if v is not None and (not isinstance(v, int) or v <= 0 or L % v):
            raise ConfigError(f"frame.{key} must divide L={L}, got {v!r}")
    if (fr.get("a") is None) != (fr.get("b") is None):
        raise ConfigError("frame.a and frame.b must be set together")
    if fr.get("window") != "gaussian":
        raise ConfigError(f"unknown window {fr.get('window')!r}")
    if cfg.get("pipeline") not in PIPELINES:
        raise ConfigError(f"pipeline must be one of {PIPELINES}, got {cfg.get('pipeline')!r}")
    seed = cfg.get("seed")
    if not _is_number(seed, int) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    if not isinstance(cfg.get("operator"), str):
        raise ConfigError(f"operator must be a string spec, got {cfg.get('operator')!r}")
    word = cfg.get("word")
    if word is not None and not (isinstance(word, list)
                                 and all(isinstance(t, str) for t in word)):
        raise ConfigError(f"word must be a list of generator strings, got {word!r}")
    _config_word(word, tfcore.ModelConfig(L=L))
    for (section, key), (kind, lo) in _NUMERIC_FIELDS.items():
        node = cfg.get(section)
        v = node.get(key) if isinstance(node, dict) else None
        if not (_is_number(v, kind) and _is_finite(v)) or (lo is not None and v < lo):
            what = "an integer" if kind is int else "a finite number"
            bound = f" >= {lo}" if lo is not None else ""
            raise ConfigError(f"{section}.{key} must be {what}{bound}, got {v!r}")
    taus = cfg["sweep"].get("tau_grid") if isinstance(cfg.get("sweep"), dict) else None
    if not (isinstance(taus, list) and taus
            and all(_is_finite(t) and t >= 0 for t in taus)):
        raise ConfigError(f"sweep.tau_grid must be a non-empty list of finite numbers "
                          f">= 0, got {taus!r}")
    # too large an L goes to run_experiment's size guard before any lattice
    if 16 * L ** 2 <= gm._memory_budget():
        try:
            _model_and_lattice(cfg)
        except ModelError as exc:
            raise ConfigError(str(exc)) from None


def _model_and_lattice(cfg: dict):
    """The ModelConfig (T is read in regime B only) and the frame lattice:
    frame.a x frame.b, else the default one of frame.density."""
    m, fr = cfg["model"], cfg["frame"]
    config = tfcore.ModelConfig(L=m["L"], regime=m["regime"],
                                T=m.get("T") if m["regime"] == "B" else None)
    if fr["a"] is not None:
        return config, gabor.Lattice(fr["a"], fr["b"], config)
    return config, gabor.default_lattice(config, fr["density"])


def _is_number(v, kind) -> bool:
    accepted = int if kind is int else (int, float)
    return isinstance(v, accepted) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number that is not inf or nan (json.loads reads Infinity and NaN);
    an int of any size counts as finite."""
    return _is_number(v, float) and (isinstance(v, int) or isfinite(v))


# ---------------------------------------------------------------------------
# operator specs
# ---------------------------------------------------------------------------

def _spec_number(text: str, kind, spec: str, lo=None):
    """int(text) or finite float(text) of a field of an operator spec, or
    ConfigError."""
    try:
        v = kind(text)
    except ValueError:
        v = None
    if v is None or not isfinite(v):
        raise ConfigError(f"bad {kind.__name__} {text!r} in {spec!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{text!r} in {spec!r} must be >= {lo}")
    return v


def _parse_symbol(spec: str, config):
    if spec == "ones":
        return ops.symbol_ones(config)
    parts = spec.split(":")
    if parts[0] == "random-smooth" and len(parts) <= 3:     # random-smooth[:seed[:bandwidth]]
        seed = _spec_number(parts[1], int, spec, lo=0) if len(parts) > 1 else 0
        bandwidth = _spec_number(parts[2], int, spec, lo=0) if len(parts) > 2 else 2
        local = np.random.Generator(np.random.Philox(seed))
        try:
            return ops.random_smooth_symbol(config, local, bandwidth=bandwidth)
        except ModelError as exc:
            raise ConfigError(f"{spec!r}: {exc}") from None
    raise ConfigError(f"unknown symbol spec {spec!r}")


def _phase_for(config, phase_spec: str):
    """A DiscretePhase for a catalog phase name: in regime A a quadratic
    phase with integer (p, q, r) is the exact integer phase, any other
    phase is sampled.

    A spec the catalog rejects is a ConfigError; a metaplectic matrix with a
    zero A block stays a NondegeneracyViolation (a pipeline failure)."""
    try:
        phase = pg.tame_phase(phase_spec)
    except ModelError as exc:
        raise ConfigError(str(exc)) from None
    if (config.regime == "A" and phase.quad is not None
            and all(v.is_integer() for v in phase.quad)):
        return ops.quadratic_phase(config, *map(int, phase.quad))
    return ops.discrete_phase_from_tame(phase, config)


def _letter(head: str, rest: str, tok: str) -> tuple:
    """The word letter (head,) or (head, int) of the generator token tok."""
    return (head, _spec_number(rest, int, tok)) if rest else (head,)


def _word(letters, config):
    """The MetaplecticWord of letters over operators.GENERATORS, or ConfigError."""
    try:
        return ops.MetaplecticWord(tuple(letters), config)
    except (ModelError, UnitError) as exc:
        raise ConfigError(str(exc)) from None


def _config_word(tokens, config):
    """The MetaplecticWord of the config's word tokens (None: the empty word)."""
    return _word([_letter(*tok.partition(":")[::2], tok) for tok in tokens or []], config)


def _generator_atom(name: str, rest: str, config):
    """A one-letter word: the generator's unitary and its linear map mod L."""
    letter = _letter(name, rest, f"{name}:{rest}" if rest else name)
    word = _word([letter], config)
    return (ops.GENERATORS[name].build(config, *word.generators[0][1:]),
            pg.linear_map(word.matrix_modL(), ":".join(map(str, letter)), mod_L=config.L))


_IDENTITY = pg.linear_map(np.eye(2), source="identity")


def _identity_atom(rest: str, config):
    if rest:
        raise ConfigError(f"identity takes no argument, got {rest!r}")
    return ops.identity_operator(config), _IDENTITY


def _perturb_id_atom(rest: str, config):
    spec, parts = f"perturb-id:{rest}", rest.split(":")
    if len(parts) > 2:
        raise ConfigError(f"{spec!r} takes eps[:seed]")
    eps = _spec_number(parts[0], float, spec)
    seed = _spec_number(parts[1], int, spec, lo=0) if len(parts) > 1 else 0
    local = np.random.Generator(np.random.Philox(seed))
    S = ops.kn_quantize(ops.random_smooth_symbol(config, local))
    S = ops.OperatorMatrix(S.entries / S.norm2(), config)
    T = ops.OperatorMatrix(np.eye(config.L) + eps * S.entries, config)
    return T, _IDENTITY


def _metaplectic_atom(rest: str, config):
    spec = f"metaplectic:{rest}"
    # _phase_for rejects a spec without four finite entries
    T = ops.fio_type1(_phase_for(config, spec), ops.symbol_ones(config))
    a, b, c, d = (float(t) for t in rest.split(","))
    return T, pg.linear_map([[a, b], [c, d]], spec)


def _kn_atom(rest: str, config):
    if not rest.startswith("symbol="):
        raise ConfigError(f"kn atom needs symbol=..., got {'kn:' + rest!r}")
    return ops.kn_quantize(_parse_symbol(rest[len("symbol="):], config)), _IDENTITY


def _fio_atom(head: str, rest: str, config):
    """fio1/fio2:phase=...,symbol=...; a type-II FIO moves along chi^-1."""
    atom = f"{head}:{rest}"
    if not rest.startswith("phase="):
        raise ConfigError(f"{head} atom needs phase=...,symbol=..., got {atom!r}")
    phase_spec, sep, sym_spec = rest[len("phase="):].partition(",symbol=")
    if not sep:
        raise ConfigError(f"{head} atom needs ',symbol=' in {atom!r}")
    phi = _phase_for(config, phase_spec)
    sigma = _parse_symbol(sym_spec, config)
    chi = phi.canonical_map()
    if head == "fio1":
        return ops.fio_type1(phi, sigma), chi
    return ops.fio_type2(phi, sigma), chi.inverse()


# atom head -> fn(rest, config) -> (OperatorMatrix, CanonicalMap)
_ATOMS = {
    **{name: partial(_generator_atom, name) for name in ops.GENERATORS},
    "identity": _identity_atom,
    "multiplier": lambda rest, config: (
        ops.multiplier_operator(config, _spec_number(rest, float, f"multiplier:{rest}")),
        _IDENTITY),
    "perturb-id": _perturb_id_atom,
    "metaplectic": _metaplectic_atom,
    "kn": _kn_atom,
    "fio1": partial(_fio_atom, "fio1"),
    "fio2": partial(_fio_atom, "fio2"),
}


def _product(parsed):
    """(OperatorMatrix, CanonicalMap) pairs folded from the left into their product."""
    T, chi = parsed[0]
    for Ti, chii in parsed[1:]:
        T, chi = ops.compose(T, Ti), pg.compose_maps(chi, chii)
    return T, chi


def _parse_atoms(spec: str, config) -> list:
    """'A*B*...' -> the (OperatorMatrix, CanonicalMap) pair of every atom."""
    if not spec.strip():
        raise ConfigError("empty operator spec")
    atoms = [a.strip() for a in spec.split("*")]
    if "" in atoms:
        raise ConfigError(f"empty atom in operator spec {spec!r}")
    parsed = []
    for atom in atoms:
        head, _, rest = atom.partition(":")
        if head not in _ATOMS:
            raise ConfigError(f"unknown operator atom {atom!r}")
        parsed.append(_ATOMS[head](rest, config))
    return parsed


def parse_operator(spec: str, config):
    """'A*B*...' -> (product OperatorMatrix, composed CanonicalMap, atom list).

    Every atom that draws random numbers has its own seeded generator."""
    parsed = _parse_atoms(spec, config)
    return (*_product(parsed), parsed)


# ---------------------------------------------------------------------------
# pipelines: each takes the _Run and returns its report.json entries
# ---------------------------------------------------------------------------

class _Run(SimpleNamespace):
    """What a pipeline reads: cfg, s_threshold, config, frame, parsed, rng,
    out and timings.  T and chi, the product of the parsed atoms, are
    folded on first use: the compose pipeline never reads them."""

    @cached_property
    def product(self):
        return _product(self.parsed)

    @property
    def T(self):
        return self.product[0]

    @property
    def chi(self):
        return self.product[1]


def _gabor_matrix(run) -> dict:
    K = gm.gabor_matrix(run.T, run.frame)
    gm.gabor_matrix_to_csv(K, run.out / "matrix.csv")
    bound = gm.schur_bound(K)
    return {"peak": float(np.abs(K.entries).max()), "schur_bound": bound,
            "pass": bool(np.isfinite(bound))}


def _decay(run) -> dict:
    prof = gm.operator_decay_profile(run.T, run.frame, run.chi)
    gm.profile_to_csv(prof, run.out / "profile.csv")
    if run.cfg["output"].get("matrix_csv"):
        gm.gabor_matrix_to_csv(gm.gabor_matrix(run.T, run.frame), run.out / "matrix.csv")
    return {"s_fit": prof.s_fit, "C_fit": prof.C_fit, "r2": prof.r2,
            "chi": run.chi.source,
            "pass": bool(prof.s_fit >= run.s_threshold and np.isfinite(prof.C_fit))}


def _algebra_entries(rep, out: Path, *keys) -> dict:
    """Write report_algebra.json and profile.csv; return rep's named fields and pass flag."""
    (out / "report_algebra.json").write_text(rep.to_json())
    gm.profile_to_csv(rep.profile, out / "profile.csv")
    return {**{k: getattr(rep, k) for k in keys}, "pass": rep.passed}


def _compose(run) -> dict:
    """The first atom against the product of the others."""
    if len(run.parsed) < 2:
        raise ConfigError("compose pipeline needs 'A*B' in operator")
    (T1, chi1), (T2, chi2) = run.parsed[0], _product(run.parsed[1:])
    rep = algebra.verify_composition(T1, T2, chi1, chi2, run.frame, run.s_threshold)
    return _algebra_entries(rep, run.out, "s_fit", "C_fit", "diagnostics")


def _invert(run) -> dict:
    rep = algebra.verify_inverse(run.T, run.chi, run.frame, run.s_threshold)
    return _algebra_entries(rep, run.out, "s_fit", "C_fit", "diagnostics")


def _factorize(run) -> dict:
    word = _config_word(run.cfg["word"], run.config)
    _, rep = algebra.factorize_metaplectic(run.T, word, run.frame, run.s_threshold)
    return _algebra_entries(rep, run.out, "s_fit", "diagnostics")


def _symbol_class(run) -> dict:
    sc = gm.symbol_class_norm(ops.kn_symbol_of(run.T), run.cfg["symbol_class"]["s"])
    return {"norm": sc.norm, "s_sym": sc.s_sym, "pass": bool(np.isfinite(sc.norm))}


def _offgrid(run) -> dict:
    og = run.cfg["offgrid"]
    rep = gm.offgrid_decay_check(run.T, run.frame, run.chi, s=og["s"],
                                 n_offsets=og["n_offsets"])
    return {"C_lattice": rep.C_lattice, "C_offgrid": rep.C_offgrid,
            "ratio": rep.ratio, "offsets": rep.offsets,
            "pass": bool(rep.ratio <= run.cfg["thresholds"]["offgrid_ratio_max"])}


def _sparsity_sweep(run) -> dict:
    rows, run.timings["sweep"], ok = sparsity_sweep(run.cfg, run.frame, run.T, run.rng,
                                                    run.out)
    return {"rows": rows, "pass": ok}


_PIPELINES = {
    "gabor-matrix": _gabor_matrix, "decay": _decay, "compose": _compose,
    "invert": _invert, "factorize": _factorize, "symbol-class": _symbol_class,
    "sparsity-sweep": _sparsity_sweep, "offgrid": _offgrid,
}
PIPELINES = tuple(_PIPELINES)


def run_experiment(cfg: dict, out_dir: str) -> int:
    """Execute the configured pipeline; write report files; return exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {"pipeline": cfg["pipeline"], "config": cfg, "pass": False}
    timings = {}
    t_start = time.monotonic()

    try:
        # every pipeline builds L x L complex operators
        gm._require_memory(16 * cfg["model"]["L"] ** 2, "an L x L operator")
        config, lat = _model_and_lattice(cfg)
        rng = np.random.Generator(np.random.Philox(cfg["seed"]))
        frame = gabor.build_frame(tfcore.periodized_gaussian(config), lat)
        report["frame"] = {"a": lat.a, "b": lat.b, "density": lat.density,
                           "bounds": list(frame.bounds)}

        run = _Run(cfg=cfg, s_threshold=cfg["thresholds"]["s_threshold"],
                   config=config, frame=frame,
                   parsed=_parse_atoms(cfg["operator"], config), rng=rng, out=out,
                   timings=timings)
        report.update(_PIPELINES[cfg["pipeline"]](run))
        report["error"] = None
    except ConfigError:
        raise
    except (GaborFIOError, MemoryError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["pass"] = False

    timings["total_s"] = time.monotonic() - t_start
    timings["workers"] = blockpool.workers()
    peak = _peak_rss_mb()
    if peak is not None:
        timings["peak_rss_mb"] = peak
    report["timings"] = timings
    (out / "report.json").write_text(json.dumps(report, indent=2, default=str))
    return 0 if report["pass"] else 1


def _peak_rss_mb() -> float | None:
    """The peak resident set of this process so far, in MiB: VmHWM where
    /proc/self/status has it, else ru_maxrss (None on Windows).  ru_maxrss
    keeps a parent's peak across exec, so a small run spawned by a large
    process would read the parent's peak."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 2 ** 10        # kB
    except OSError:
        pass
    if resource is None:
        return None
    # KiB on Linux, bytes on macOS
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def sparsity_sweep(cfg, frame, T, rng, out: Path):
    """Threshold sweep: per row, the measured apply error must not exceed the
    dropped Schur mass (the gate).  Returns the rows (kept fraction, Schur
    mass, measured error), the per-row dense and sparse apply times, which
    go to the report's "timings", and the gate."""
    lat = frame.lattice
    # each probe and its dense product: 32 bytes an entry
    gm._require_memory(32 * cfg["sweep"]["probes"] * lat.size,
                       "the sweep's probes and their dense products")
    K = gm.gabor_matrix(T, frame)
    dense = K.entries
    probes = [rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size)
              for _ in range(cfg["sweep"]["probes"])]
    repeats = cfg["sweep"]["repeats"]
    # each probe's dense product and norm do not depend on tau
    with np.errstate(over="ignore", invalid="ignore"):
        exact = [(p, dense @ p, np.linalg.norm(p)) for p in probes]
    rows, times = [], []
    taus = cfg["sweep"]["tau_grid"]
    sparse = gm.sparsify_each(K, taus)
    for tau in taus:
        Ks = next(sparse)
        with np.errstate(over="ignore", invalid="ignore"):
            errs = [np.linalg.norm(Kp - Ks.matrix @ p) / norm for p, Kp, norm in exact]
        # an overflow leaves an error of inf or nan: np.max keeps either, and
        # both fail the gate
        rel_err = float(np.max([0.0] + errs))
        t_dense = _median_time(lambda: dense @ probes[0], repeats)
        t_sparse = _median_time(lambda: Ks.matrix @ probes[0], repeats)
        rows.append({"tau": tau, "kept_fraction": Ks.kept_fraction,
                     "schur_residual": Ks.dropped_schur_mass,
                     "measured_rel_error": rel_err})
        times.append({"tau": tau, "dense_ms": t_dense * 1e3,
                      "sparse_ms": t_sparse * 1e3})
        del Ks                    # before the next matrix is formed
    with open(out / "sweep.csv", "w") as fh:
        fh.write("tau,kept_fraction,schur_residual,measured_rel_error,dense_ms,sparse_ms\n")
        for r, t in zip(rows, times):
            fh.write(f"{r['tau']:.3e},{r['kept_fraction']:.6f},"
                     f"{r['schur_residual']:.6e},{r['measured_rel_error']:.6e},"
                     f"{t['dense_ms']:.4f},{t['sparse_ms']:.4f}\n")
    return rows, times, all(r["measured_rel_error"] <= r["schur_residual"] + 1e-15
                            for r in rows)


def _median_time(fn, repeats: int) -> float:
    """The median of repeats timed calls of fn, from the sorted times (the
    first np.median call would import numpy.ma)."""
    def once():
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    t = sorted(once() for _ in range(repeats))
    return (t[(repeats - 1) // 2] + t[repeats // 2]) / 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def openblas_thread_handles() -> list:
    """(set_num_threads, get_num_threads) for every OpenBLAS mapped into
    this process.

    numpy is loaded with the package, before any flag is parsed, so the
    *_NUM_THREADS environment variables are read too early to act; the
    pools are resized through each library's own entry points instead.
    """
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh)
                     if len(parts) == 6 and "openblas" in Path(parts[5].strip()).name}
    except OSError:
        return []
    handles = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        # numpy's wheels ship OpenBLAS with the scipy_openblas symbol prefix
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            set_fn = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            get_fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if set_fn is not None and get_fn is not None:
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                handles.append((set_fn, get_fn))
                break
    return handles


@contextlib.contextmanager
def _blas_threads(n):
    """Every OpenBLAS pool at n threads inside the block (None: left alone)."""
    handles = openblas_thread_handles() if n is not None else []
    before = [get() for _, get in handles]
    for set_threads, _ in handles:
        set_threads(n)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(handles, before):
            set_threads(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gaborfio",
                                     description="Gabor-matrix FIO experiments")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("config")
    runp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="override a config entry (dotted path)")
    runp.add_argument("--threads", type=int, default=None,
                      help="cap the BLAS thread pools and the block pool's workers, "
                           "at most the machine's CPU count "
                           "(default: the CPUs this process may use)")
    runp.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    if args.command != "run":
        parser.print_help()
        return 2

    # the block rules split their budget by W: a large W starts as many threads
    cpus = os.cpu_count() or 1
    if args.threads is not None and not 1 <= args.threads <= cpus:
        print(f"config error: --threads must be between 1 and the {cpus} CPUs "
              f"of this machine, got {args.threads}", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config, args.set)
        with _blas_threads(args.threads), \
                blockpool.worker_limit(args.threads or blockpool.workers()):
            return run_experiment(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
