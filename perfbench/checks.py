"""Output checks, computed with numpy alone (gaborfio is never imported here).

Every check returns a list of error strings; an empty list means the output
passed.  The checks compare against an independent computation, or against
a property the method must have:

* metaplectic decay profiles: for U a word in dft / chirp(c) / dilate(u)
  with integer symplectic matrix A, |K[mu, lam]| = |V_w(Uw)(mu - A lam)|,
  so the profile envelope in each bin is the maximum of |V_w(Uw)(d)| over
  the displacements d = mu - A lam that occur, and each bin holds a known
  number of (mu, lam) pairs.  The identity is the empty word.
* every decay profile holds N^2 displacements in total;
* matrix.csv of a chirp: sum |K|^2 = ||T||_F^2 = L (the frame is Parseval)
  and trace K = trace T, the Gauss sum sum_n e^{i pi c n^2 / L};
* sweep.csv: the measured error stays under the dropped Schur mass;
* invert: cond(T) lies in [1, (1 + eps)/(1 - eps)] for T = chirp(I + eps S),
  ||S|| = 1; factorize rebuilds T to 1e-10.

Binning rule (the library's documented one): <d> = sqrt(1 + |d|^2) with d
wrapped componentwise to [-L/2, L/2); bin i = floor(log<d> / log sqrt 2),
reported at distance sqrt(2)^(i + 0.5).
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

# The assembled |K| carries rounding of about 1e-13 of its peak (a GEMM over
# L terms); bins are compared to that floor, far below the tight window's
# satellite floor of real envelopes near 1e-5 of the peak.
ENV_ATOL = 1e-12
ENV_RTOL = 1e-9


# ---------------------------------------------------------------------------
# independent time-frequency model
# ---------------------------------------------------------------------------

def gaussian(L: int) -> np.ndarray:
    n = np.arange(L, dtype=float)
    g = sum(np.exp(-np.pi * (n + j * L) ** 2 / L) for j in range(-3, 4))
    return g / np.linalg.norm(g)


@lru_cache(maxsize=4)
def tight_window(L: int, a: int, b: int) -> np.ndarray:
    """S^{-1/2} g for the lattice aZ x bZ, with S assembled from its atoms."""
    g = gaussian(L)
    n = np.arange(L)
    atoms = [np.exp(2j * np.pi * m * n / L) * np.roll(g, k)
             for k in range(0, L, a) for m in range(0, L, b)]
    V = np.array(atoms).T
    evals, U = np.linalg.eigh(V @ V.conj().T)
    return (U * evals ** -0.5) @ (U.conj().T @ g)


def stft(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V_w f[k, m] = sum_n f[n] conj(w[n - k]) e^{-2 pi i m n / L}."""
    L = len(f)
    n = np.arange(L)
    return np.fft.fft(f[None, :] * np.conj(w[(n[None, :] - n[:, None]) % L]), axis=1)


def apply_word(word: list, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U f and the integer matrix A of U = U(g1) U(g2) ... (rightmost first)."""
    L = len(f)
    n = np.arange(L)
    A = np.eye(2, dtype=np.int64)
    for gen in word:
        kind = gen[0]
        if kind == "dft":
            G = np.array([[0, 1], [-1, 0]])
        elif kind == "chirp":
            G = np.array([[1, 0], [gen[1], 1]])
        elif kind == "dilate":
            u = gen[1] % L
            G = np.array([[u, 0], [0, pow(u, -1, L)]])
        else:
            raise ValueError(f"unknown generator {gen!r}")
        A = A @ G
    for gen in reversed(word):
        if gen[0] == "dft":
            f = np.fft.fft(f) / np.sqrt(L)
        elif gen[0] == "chirp":
            f = f * np.exp(1j * np.pi * gen[1] * n ** 2 / L)
        else:
            f = f[(pow(gen[1] % L, -1, L) * n) % L]
    return f, A % L


def bin_index(dist: np.ndarray) -> np.ndarray:
    return np.floor(np.log(dist) / np.log(np.sqrt(2))).astype(int)


def expected_profile(word: list, L: int, a: int, b: int) -> dict:
    """bin -> (envelope, count) of |V_w(Uw)(mu - A lam)| over the lattice."""
    w = tight_window(L, a, b)
    Uw, A = apply_word(word, w)
    absV = np.abs(stft(Uw, w))
    lam = np.array([(k, m) for k in range(0, L, a) for m in range(0, L, b)])
    img = (-(lam @ A.T)) % L
    # d = mu - A lam runs over a coset of the lattice for each lam: the
    # residue (d0 mod a, d1 mod b) decides whether d occurs, and how often
    mult = np.zeros((a, b), dtype=np.int64)
    np.add.at(mult, (img[:, 0] % a, img[:, 1] % b), 1)
    k = np.arange(L)
    m_grid = mult[(k % a)[:, None], (k % b)[None, :]]
    kw = (k + L // 2) % L - L // 2
    dist = np.sqrt(1.0 + kw[:, None].astype(float) ** 2 + kw[None, :] ** 2)
    idx = bin_index(dist)
    occurs = m_grid > 0
    env = np.zeros(idx.max() + 1)
    cnt = np.zeros(idx.max() + 1, dtype=np.int64)
    np.maximum.at(env, idx[occurs], absV[occurs])
    np.add.at(cnt, idx[occurs], m_grid[occurs])
    return {i: (float(env[i]), int(cnt[i])) for i in range(len(env)) if cnt[i]}


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------

def read_report(out: Path) -> dict:
    return json.loads((Path(out) / "report.json").read_text())


def read_profile(out: Path) -> list:
    """(bin index, envelope, count) rows of profile.csv."""
    rows = []
    with open(Path(out) / "profile.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            d = float(row["bin_dist"])
            rows.append((int(round(2 * np.log2(d) - 0.5)), float(row["envelope"]),
                         int(row["count"])))
    return rows


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_pass(out: Path) -> list:
    rep = read_report(out)
    if rep.get("pass") is not True:
        return [f"pass flag is {rep.get('pass')!r} (error {rep.get('error')!r})"]
    return []


def check_profile_total(out: Path) -> list:
    rep = read_report(out)
    L = rep["config"]["model"]["L"]
    N = (L // rep["frame"]["a"]) * (L // rep["frame"]["b"])
    total = sum(c for _, _, c in read_profile(out))
    return [] if total == N * N else [f"profile counts sum to {total}, not N^2 = {N * N}"]


def check_word_profile(out: Path, word: list) -> list:
    """profile.csv against the covariance formula for the metaplectic word."""
    rep = read_report(out)
    L = rep["config"]["model"]["L"]
    a, b = rep["frame"]["a"], rep["frame"]["b"]
    want = expected_profile(word, L, a, b)
    got = {i: (e, c) for i, e, c in read_profile(out)}
    errors = []
    if set(got) != set(want):
        errors.append(f"bins {sorted(got)} != expected {sorted(want)}")
    atol = ENV_ATOL * max(e for e, _ in want.values())
    for i in sorted(set(got) & set(want)):
        (e_got, c_got), (e_want, c_want) = got[i], want[i]
        if c_got != c_want:
            errors.append(f"bin {i}: count {c_got} != {c_want}")
        if abs(e_got - e_want) > ENV_RTOL * e_want + atol:
            errors.append(f"bin {i}: envelope {e_got!r} != {e_want!r}")
    return errors


def check_matrix_csv(out: Path, L: int, c: int) -> list:
    data = np.loadtxt(Path(out) / "matrix.csv", delimiter=",", skiprows=1, ndmin=2)
    N = 4 * L          # density-4 lattice
    errors = []
    if data.shape != (N * N, 6):
        return [f"matrix.csv has shape {data.shape}, want ({N * N}, 6)"]
    frob = float((data[:, 4] ** 2 + data[:, 5] ** 2).sum())
    if abs(frob - L) > 1e-9 * L:
        errors.append(f"sum |K|^2 = {frob!r}, want ||T||_F^2 = {L}")
    diag = (data[:, 0] == data[:, 2]) & (data[:, 1] == data[:, 3])
    trace = complex(data[diag, 4].sum(), data[diag, 5].sum())
    n = np.arange(L)
    gauss = complex(np.exp(1j * np.pi * c * n ** 2 / L).sum())
    if int(diag.sum()) != N or abs(trace - gauss) > 1e-9 * np.sqrt(L):
        errors.append(f"trace K = {trace!r} over {int(diag.sum())} entries, "
                      f"want the Gauss sum {gauss!r} over {N}")
    return errors


def check_sweep(out: Path) -> list:
    errors = []
    with open(Path(out) / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["sweep.csv has no rows"]
    for r in rows:
        measured, schur = float(r["measured_rel_error"]), float(r["schur_residual"])
        # both columns are printed to 7 digits; 1e-15 is the library's own slack
        if measured > schur * (1 + 1e-6) + 1e-15:
            errors.append(f"tau {r['tau']}: measured {measured} > Schur mass {schur}")
    return errors


def check_invert(out: Path, eps: float) -> list:
    cond = read_report(out)["diagnostics"]["condition_number"]
    hi = (1 + eps) / (1 - eps)
    if not 1 - 1e-12 <= cond <= hi * (1 + 1e-12):
        return [f"condition number {cond!r} outside [1, {hi!r}]"]
    return []


def check_factorize(out: Path) -> list:
    err = read_report(out)["diagnostics"]["reconstruction_rel_error"]
    return [] if err <= 1e-10 else [f"factorization rebuilds T to {err!r} > 1e-10"]


CHECKS = {
    "pass": check_pass,
    "profile_total": check_profile_total,
    "word_profile": check_word_profile,
    "matrix_csv": check_matrix_csv,
    "sweep": check_sweep,
    "invert": check_invert,
    "factorize": check_factorize,
}


def run_checks(out: Path, specs: list) -> list:
    """specs: [name, kwargs] pairs from the workload definition."""
    errors = []
    for name, kwargs in specs:
        try:
            errors += [f"{name}: {e}" for e in CHECKS[name](out, **kwargs)]
        except (OSError, ValueError, KeyError) as exc:     # missing or malformed output
            errors.append(f"{name}: cannot read the output: {exc!r}")
    return errors
