"""Gabor matrices of operators and their decay anatomy.

The Gabor matrix of T over a frame with windows w is

    K[mu, lam] = <T pi(lam) w, pi(mu) w>,

that is K = A T A^H with A the analysis operator of the frame (rows
pi(mu) w^H).  A is a fold followed by length-n_freq FFTs (gabor module
docstring), so K is assembled as two analyses and no L x L x N product:

    X = T A^H = (A T^H)^H,        K = A X,

each gabor.analysis_matrix over blocks of columns.  X is read as the
transposed view of A T^H, conjugated in place, so the work arrays are K
and that one N x L intermediate.

The decay fit needs |K| only.  _magnitude_columns runs the second
analysis by the same step gabor.fold_fft over blocks of lam columns, one
scratch array per block.  gabor_magnitudes writes the magnitudes of each
block straight into a real N x N array: half the bytes of K, bit for bit
np.abs(K).  The decay of |K| is measured against a canonical transformation
chi through the wrapped displacement d = mu - chi(lam), componentwise
reduced to [-L/2, L/2) in grid-index units.  decay_profile fits a given K
by rows.  operator_decay_profile gives the same profile without forming K:
where chi sends the lattice to integer points (every regime-A map, the
identity in regime B), every squared distance x = |d|^2 is an integer in
[0, L^2 / 2], so the fit folds each column block into a maximum and a count
per x and forms no N x N array at all; otherwise it fits gabor_magnitudes
by rows.

Every pass over rows (the mu of K or |K|, the atoms z of the off-grid
check, the translates of the symbol-class sweep) splits them by _row_blocks
into contiguous slices of about FIT_BLOCK_ENTRIES // W entries each.

The N x N arrays (K, |K| and the (N, N, 2) displacement array) and the
N x L first analysis are checked against the machine's physical memory
before they are allocated: a larger one raises SizeError.

Decay fit convention
--------------------
Displacements are binned geometrically in <d> = sqrt(1 + |d|^2) with ratio
sqrt(2); each bin keeps the sup of |K| (the decay condition is a sup bound).
The exponent is the slope of log envelope against log bin distance by least
squares *weighted by bin occupancy*: the outermost torus bins hold only the
corner sliver of displacements (orders of magnitude fewer samples), and
unweighted fitting lets that sliver fake a steep slope on profiles that are
actually flat.  Bins nearer than FIT_MIN_DIST or with fewer than
FIT_MIN_COUNT entries do not enter the fit.

Entries at the rounding floor carry no decay information: the outermost
torus bins of an exactly concentrated matrix hold values of order 1e-16 of
the peak whose size depends on the order of floating-point operations.  Each
bin's envelope, and every value entering C_fit, is therefore clamped from
below to FIT_FLOOR_RTOL times the largest |value|, so the fit does not move
with rounding noise.
"""

from __future__ import annotations

import csv
import itertools
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .blockpool import block_share, map_blocks
from .errors import FitError, ModelError, SizeError
from .gabor import GaborFrame, analysis_matrix, column_blocks, fold, fold_fft
from .operators import OperatorMatrix, SymbolGrid
from .phasegeom import CanonicalMap, linear_map
from .tfcore import stft_matrix, tf_shift_matrix, wrap_half

__all__ = [
    "GaborMatrix", "DecayProfile", "RowPaddedMatrix", "SparseGaborMatrix",
    "OffgridReport", "SymbolClassReport", "gabor_matrix", "gabor_magnitudes",
    "decay_profile", "operator_decay_profile",
    "offgraph_max", "offgrid_decay_check", "sparsify",
    "schur_bound", "symbol_class_norm", "gabor_matrix_to_csv",
    "gabor_matrix_from_csv", "profile_to_csv",
]

SYMBOL_CLASS_MAX_L = 128   # the 2d-STFT sweep is an L^4 log L computation
FIT_FLOOR_RTOL = 1e-13     # envelope floor relative to the peak (rounding)
FIT_MIN_DIST = 2.0         # bins nearer the graph do not enter the fit
FIT_MIN_COUNT = 3          # nor do bins with fewer entries
# entries in flight in the blocked passes (1 MiB of float64): the row
# blocks and the |K| column blocks share them out over the block pool's
# workers, FIT_BLOCK_ENTRIES // W per block (a quarter of that in the key
# fold, whose blocks hold 32 bytes per entry)
FIT_BLOCK_ENTRIES = 1 << 17
CSV_HEADER = ["mu_k", "mu_m", "lam_k", "lam_m", "re", "im"]


@dataclass(frozen=True)
class GaborMatrix:
    """Gabor coefficients of an operator over a frame's lattice.

    entries[mu_idx, lam_idx] = <T pi(lam) w, pi(mu) w> in the lattice's
    time-major enumeration; w is the tight window unless the matrix was
    assembled with use_tight=False.
    """

    entries: np.ndarray
    frame: GaborFrame

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        N = self.frame.lattice.size
        if e.shape != (N, N):
            raise ModelError(f"Gabor-matrix shape {e.shape} != ({N}, {N})")
        object.__setattr__(self, "entries", e)

    @property
    def lattice(self):
        return self.frame.lattice


@dataclass(frozen=True)
class DecayProfile:
    """Binned envelope of |K| against <mu - chi(lam)> with the fitted exponent."""

    bins: list                 # (distance, envelope, count) triples
    s_fit: float
    C_fit: float
    r2: float


@dataclass(frozen=True)
class RowPaddedMatrix:
    """Complex sparse matrix in row-padded ("ELL") form.

    Slot j of row i holds column cols[j, i] and value re[j, i] + 1j im[j, i].
    The first nnz-of-row-i slots hold the row's nonzero entries in column
    order; the remaining slots up to the common width hold the value 0.
    ``self @ x`` sums each row in slot order from 0, forming every product
    from the real and imaginary parts as a compiled CSR product does, so it
    gives the same floats as a CSR matvec over the same entries (for finite
    x: a zero slot adds a signed zero, which leaves every sum unchanged).
    """

    cols: np.ndarray           # (width, n_rows) column indices
    re: np.ndarray             # (width, n_rows) real parts
    im: np.ndarray             # (width, n_rows) imaginary parts
    shape: tuple[int, int]
    nnz: int

    @classmethod
    def from_dense(cls, A: np.ndarray) -> "RowPaddedMatrix":
        """The nonzero entries of the 2-D array A."""
        At = np.asarray(A, dtype=complex).T
        nonzero = At != 0                          # [column, row]
        counts = np.count_nonzero(nonzero, axis=0)
        width = int(counts.max(initial=0))
        # a stable sort of the zero flags puts each row's nonzero columns
        # first, in column order, and then its zero entries
        cols = np.argsort(~nonzero, axis=0, kind="stable")[:width].copy()
        vals = np.take_along_axis(At, cols, axis=0)
        return cls(cols=cols, re=np.ascontiguousarray(vals.real),
                   im=np.ascontiguousarray(vals.imag), shape=At.shape[::-1],
                   nnz=int(counts.sum()))

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.shape[1],):
            raise ModelError(f"vector shape {x.shape} does not match matrix shape {self.shape}")
        xr = np.ascontiguousarray(x.real).take(self.cols)
        xi = np.ascontiguousarray(x.imag).take(self.cols)
        out = np.empty(self.shape[0], dtype=complex)
        # a reduction over axis 0 adds the slots of each row in sequence
        t, u = self.re * xr, self.im * xi
        out.real = np.add.reduce(np.subtract(t, u, out=t), axis=0, initial=0.0)
        np.multiply(self.re, xi, out=t)
        np.multiply(self.im, xr, out=u)
        out.imag = np.add.reduce(np.add(t, u, out=t), axis=0, initial=0.0)
        return out


@dataclass(frozen=True)
class SparseGaborMatrix:
    """Thresholded Gabor matrix in row-padded form with its discarded Schur mass."""

    matrix: RowPaddedMatrix
    threshold: float
    kept_fraction: float
    dropped_schur_mass: float

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


@dataclass(frozen=True)
class OffgridReport:
    C_lattice: float
    C_offgrid: float
    ratio: float
    offsets: list


@dataclass(frozen=True)
class SymbolClassReport:
    norm: float
    envelope: np.ndarray       # sup over z of |V_Psi sigma(z, zeta)|, indexed by zeta
    s_sym: float
    bins: list


def _memory_budget() -> int:
    """Bytes of physical memory of this machine (no limit where unknown)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 1 << 62


def _require_memory(n_bytes: int, what: str) -> None:
    """Raise SizeError before allocating n_bytes that the machine does not have."""
    budget = _memory_budget()
    if n_bytes > budget:
        raise SizeError(f"{what} needs {n_bytes / 2 ** 20:.0f} MiB, more than the "
                        f"{budget / 2 ** 20:.0f} MiB of physical memory")


def _atom_images(T: OperatorMatrix, frame: GaborFrame, w) -> np.ndarray:
    """T A^H, the L x N array of columns T pi(lam) w: the transposed view of
    the first analysis A T^H, conjugated in place."""
    if T.config.L != frame.config.L:
        raise ModelError("operator/frame size mismatch")
    _require_memory(16 * frame.lattice.size * frame.config.L, "the N x L first analysis")
    Y = analysis_matrix(w, frame.lattice, T.entries.conj().T)     # A T^H
    return np.conjugate(Y, out=Y).T


def gabor_matrix(T: OperatorMatrix, frame: GaborFrame,
                 use_tight: bool = True) -> GaborMatrix:
    """Assemble K = A T A^H over the frame lattice by two folded-FFT analyses.

    The default window is the canonical tight window; use_tight=False scans
    against the frame's generating window instead (the decay class does not
    depend on the window, only the constants do).
    """
    N = frame.lattice.size
    _require_memory(16 * N * N, "the Gabor matrix")
    w = frame.window(use_tight)
    K = analysis_matrix(w, frame.lattice, _atom_images(T, frame, w))  # A (T A^H)
    return GaborMatrix(K, frame)


def gabor_magnitudes(T: OperatorMatrix, frame: GaborFrame) -> np.ndarray:
    """|K| over the tight window as a real (N, N) array, without forming K.

    Equal bit for bit to np.abs(gabor_matrix(T, frame).entries): the
    magnitudes of each block of _magnitude_columns go straight into the
    result.
    """
    N = frame.lattice.size
    _require_memory(8 * N * N, "the Gabor-matrix magnitudes")
    absK = np.empty((N, N))

    def write_block(cols, out):
        np.abs(out.reshape(N, -1), out=absK[:, cols])

    _magnitude_columns(T, frame, write_block, FIT_BLOCK_ENTRIES)
    return absK


def _magnitude_columns(T: OperatorMatrix, frame: GaborFrame, column_fn,
                       entries: int) -> None:
    """The second analysis of K over the tight window, one block of lam
    columns at a time on the block pool: column_fn(cols, out) gets each
    block's scratch array out[j, k, :] = K[j n_freq + k, cols].  The first
    analysis is that of gabor_matrix, and the blocks hold about
    entries // W entries each."""
    lat = frame.lattice
    W, Xq = fold(frame.tight, lat, _atom_images(T, frame, frame.tight))

    def column_block(cols):
        out = np.empty((lat.n_time, lat.n_freq, cols.stop - cols.start), dtype=complex)
        fold_fft(W, Xq[:, :, cols], out)
        column_fn(cols, out)

    map_blocks(column_block, column_blocks(lat.size, block_share(entries) // lat.size))


def _chi_points(chi, points: np.ndarray) -> np.ndarray:
    """Apply a CanonicalMap or a 2x2 matrix to (N, 2) index points; a point
    sent to inf or nan raises ModelError (no displacement is defined)."""
    if isinstance(chi, CanonicalMap):
        img = chi.map_points(points)
    elif np.shape(chi) == (2, 2):
        img = linear_map(chi).map_points(points)
    else:
        raise ModelError(f"cannot interpret chi of type {type(chi)!r}")
    if not np.isfinite(img).all():
        raise ModelError("chi sends a lattice point to a non-finite image")
    return img


def _lattice_images(lat, L: int, chi) -> np.ndarray:
    """chi(lam) of the points lam of the lattice lat of Z_L, each reduced to
    [-L/2, L/2) first, as in wrapped_displacements: an (N, 2) array."""
    return _chi_points(chi, wrap_half(lat.points().astype(float), L))


def _displacement_tables(lat, L: int, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two components of d as in wrapped_displacements over the lattice
    lat of Z_L, from the _lattice_images img: mu's time coordinate takes
    only n_time values and its frequency coordinate n_freq values, so they
    come from an (n_time, N) and an (n_freq, N) table."""
    t = (lat.a * np.arange(lat.n_time)).astype(float)
    f = (lat.b * np.arange(lat.n_freq)).astype(float)
    return (wrap_half(t[:, None] - img[:, 0][None, :], L),      # (n_time, N)
            wrap_half(f[:, None] - img[:, 1][None, :], L))      # (n_freq, N)


def wrapped_displacements(K: GaborMatrix, chi) -> np.ndarray:
    """d[mu_idx, lam_idx, :] = wrap(mu - chi(lam)) in index units, built
    from lattice.points() directly (the tables above are checked against it).

    Lattice points are reduced to the fundamental window [-L/2, L/2) before
    applying chi: a torus shift has no preferred lift, and nonlinear maps
    must see the canonical representative (linear integer maps are unaffected
    mod L).
    """
    pts = K.lattice.points().astype(float)
    L = K.frame.config.L
    _require_memory(16 * len(pts) ** 2, "the displacement array")
    img = _chi_points(chi, wrap_half(pts, L))
    d1 = wrap_half(pts[:, 0][:, None] - img[:, 0][None, :], L)
    d2 = wrap_half(pts[:, 1][:, None] - img[:, 1][None, :], L)
    return np.stack([d1, d2], axis=-1)


def envelope_fit(dists: np.ndarray, values: np.ndarray):
    """Shared binning + fit: geometric sqrt(2) bins of the bracketed
    distances <d> (>= 1, computed by the caller), sup envelope per bin,
    weighted least squares of log envelope on log distance.  Envelopes and
    the values entering C_fit are clamped to the rounding floor
    FIT_FLOOR_RTOL * max|values|.

    Returns (bins, s_fit, C_fit, r2) and raises FitError with fewer than
    four eligible bins.
    """
    dist = np.asarray(dists, dtype=float).ravel()
    vals = np.abs(np.asarray(values)).ravel()
    return _blocked_fit([None], lambda _: (dist, vals))


def _bracket(x: np.ndarray) -> np.ndarray:
    """<d> = sqrt(x + 1.0) of squared distances x, computed in x itself when
    x is a float array (a caller's temporary) and in a new one otherwise."""
    dist = x.astype(float, copy=False)
    dist += 1.0
    return np.sqrt(dist, out=dist)


def _bin_index(dist: np.ndarray) -> np.ndarray:
    """The sqrt(2) bin of each bracketed distance: floor(log <d> / log sqrt 2)."""
    idx = np.log(dist)
    idx /= np.log(np.sqrt(2))
    return np.floor(idx, out=idx).astype(np.intp)


def _weighted_max(dist: np.ndarray, vals: np.ndarray, s_fit: float, floor: float) -> float:
    """max of <d>^s_fit max(|value|, floor): the C_fit of these entries."""
    weighted_vals = dist ** s_fit
    weighted_vals *= np.maximum(vals, floor)
    return float(weighted_vals.max())


def _regression(env: np.ndarray, cnt: np.ndarray):
    """The fit from the bin maxima env (clamped to the floor in place) and
    the bin counts cnt: (floor, bins, s_fit, r2).  Raises FitError with
    fewer than four eligible bins."""
    nb = env.size
    floor = FIT_FLOOR_RTOL * float(env.max())      # env.max() is max|values|
    np.maximum(env, floor, out=env)
    dr = np.sqrt(2.0) ** (np.arange(nb) + 0.5)
    sel = (cnt >= FIT_MIN_COUNT) & (dr >= FIT_MIN_DIST) & (env > 0)
    if sel.sum() < 4:
        raise FitError(f"only {int(sel.sum())} eligible bins, need >= 4")
    x = np.log(dr[sel])
    y = np.log(env[sel])
    w = cnt[sel].astype(float)
    w = w / w.sum()
    xm = float((w * x).sum())
    ym = float((w * y).sum())
    slope = float((w * (x - xm) * (y - ym)).sum() / (w * (x - xm) ** 2).sum())
    yhat = ym + slope * (x - xm)
    ss_tot = float((w * (y - ym) ** 2).sum())
    r2 = 1.0 - float((w * (y - yhat) ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    bins = [(float(dr[i]), float(env[i]), int(cnt[i])) for i in range(nb) if cnt[i]]
    return floor, bins, -slope, r2


def _blocked_fit(blocks, entries):
    """envelope_fit over entries handed out in pieces: entries(block) gives
    the (distances, |values|) 1-d array pair of each block of the list
    blocks, once for the bins and once for C_fit, on the block pool.  Bin
    maxima, counts and the C_fit maximum do not depend on how the entries
    are split, so every split and worker count gives the same result."""

    def bin_block(block):
        dist, vals = entries(block)
        idx = _bin_index(dist)
        nb = int(idx.max()) + 1
        env = np.zeros(nb)
        np.maximum.at(env, idx, vals)
        return env, np.bincount(idx, minlength=nb)

    parts = map_blocks(bin_block, blocks)
    nb = max(env_b.size for env_b, _ in parts)
    env = np.zeros(nb)
    cnt = np.zeros(nb, dtype=np.intp)
    for env_b, cnt_b in parts:
        n = env_b.size
        np.maximum(env[:n], env_b, out=env[:n])
        cnt[:n] += cnt_b
    floor, bins, s_fit, r2 = _regression(env, cnt)
    C_fit = 0.0
    for c in map_blocks(lambda block: _weighted_max(*entries(block), s_fit, floor), blocks):
        C_fit = max(C_fit, c)
    return bins, s_fit, C_fit, r2


def _row_blocks(n_rows: int, row_entries: int) -> list:
    """Contiguous slices of n_rows rows of row_entries entries each, about
    FIT_BLOCK_ENTRIES // W entries (one row at least) per slice for W
    workers: the one split of every pass over rows in this module."""
    step = max(1, block_share(FIT_BLOCK_ENTRIES) // row_entries)
    return [slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def _fit_rows(rows, lat, tables) -> DecayProfile:
    """The decay fit over the lattice lat, |K| read by rows(mu): the (rows,
    N) array of |K[mu, lam]| over the lattice rows mu of a slice, with the
    displacement tables of _displacement_tables (squared in place).

    The fit runs on the block pool over the slices of _row_blocks.  A block's
    distances come from the rows j, k of the displacement tables of its mu =
    j n_freq + k, with the arithmetic of the full displacement array, so no
    N x N distance array is formed; the result depends neither on the block
    size nor on W.
    """
    d1sq, d2sq = (np.square(d, out=d) for d in tables)

    def block_entries(mu):
        j, k = np.divmod(np.arange(mu.start, mu.stop), lat.n_freq)
        return _bracket(d1sq[j] + d2sq[k]).ravel(), rows(mu).ravel()

    bins, s_fit, C_fit, r2 = _blocked_fit(_row_blocks(lat.size, lat.size), block_entries)
    return DecayProfile(bins=bins, s_fit=s_fit, C_fit=C_fit, r2=r2)


def _key_fit(T: OperatorMatrix, frame: GaborFrame, sq1: np.ndarray,
             sq2: np.ndarray) -> DecayProfile:
    """The decay fit of T from integer squared displacement tables sq1
    (n_time, N) and sq2 (n_freq, N), folded over the keys x = d1^2 + d2^2.

    The key of K[j n_freq + k, lam] is sq1[j, lam] + sq2[k, lam], an integer
    in [0, L^2 / 2], and its distance <d> = sqrt(x + 1.0) and bin are those
    of every entry with that key.  Each column block of _magnitude_columns
    folds its |K| into its worker's maximum and count of each key, so no
    N x N array is formed.  The bins come from the keys that hold entries,
    and C_fit is the max over them of <d>^s_fit max(key max, floor): a
    positive weight times a correctly rounded product is monotone, so this
    is the max over the entries bit for bit.  Maxima and integer counts do
    not depend on the order of the fold, so the result is that of _fit_rows
    for every W.
    """
    n_keys = int(sq1.max()) + int(sq2.max()) + 1
    accs = {}                                  # thread -> (key maxima, key counts)

    def fold_block(cols, out):
        acc = accs.get(threading.get_ident())
        if acc is None:
            acc = accs[threading.get_ident()] = (np.zeros(n_keys), np.zeros(n_keys, np.intp))
        envx_w, cntx_w = acc
        key = (sq1[:, None, cols] + sq2[None, :, cols]).ravel()
        np.maximum.at(envx_w, key, np.abs(out).ravel())
        np.add.at(cntx_w, key, 1)

    _magnitude_columns(T, frame, fold_block, FIT_BLOCK_ENTRIES // 4)
    (envx, cntx), *rest = accs.values()
    for envx_w, cntx_w in rest:
        np.maximum(envx, envx_w, out=envx)
        cntx += cntx_w
    seen = np.flatnonzero(cntx)
    dist = _bracket(seen)
    key_bin = _bin_index(dist)
    nb = int(key_bin.max()) + 1
    env, cnt = np.zeros(nb), np.zeros(nb, dtype=np.intp)
    np.maximum.at(env, key_bin, envx[seen])
    np.add.at(cnt, key_bin, cntx[seen])
    floor, bins, s_fit, r2 = _regression(env, cnt)
    C_fit = _weighted_max(dist, envx[seen], s_fit, floor)
    return DecayProfile(bins=bins, s_fit=s_fit, C_fit=C_fit, r2=r2)


def decay_profile(K: GaborMatrix, chi) -> DecayProfile:
    """Fit |K[mu, lam]| <= C <mu - chi(lam)>^{-s} over the lattice, taking
    |K| of one block of rows at a time (no N x N |K| array is formed)."""
    lat, L = K.lattice, K.frame.config.L
    tables = _displacement_tables(lat, L, _lattice_images(lat, L, chi))
    return _fit_rows(lambda mu: np.abs(K.entries[mu]), lat, tables)


def operator_decay_profile(T: OperatorMatrix, frame: GaborFrame, chi) -> DecayProfile:
    """decay_profile(gabor_matrix(T, frame), chi), field for field, without
    forming K.  Where chi sends the lattice to integer points (then every
    displacement is an integer) the fit folds the |K| column blocks by
    distance (_key_fit) and forms no N x N array; otherwise it fits from
    gabor_magnitudes(T, frame) by rows, with the tables built after |K|."""
    lat, L = frame.lattice, frame.config.L
    img = _lattice_images(lat, L, chi)
    if np.array_equal(img, np.round(img)):
        return _key_fit(T, frame, *((d ** 2).astype(np.intp)
                                    for d in _displacement_tables(lat, L, img)))
    absK = gabor_magnitudes(T, frame)
    return _fit_rows(lambda mu: absK[mu], lat, _displacement_tables(lat, L, img))


def offgraph_max(K: GaborMatrix, chi, min_steps: float = 8.0) -> float:
    """Largest |K| (relative to the peak) at lattice-step distance >= min_steps
    from the graph mu = chi(lam); steps scale the wrapped displacement by
    (1/a, 1/b).  |K| is formed one block of rows at a time."""
    lat = K.lattice
    L = K.frame.config.L
    d1, d2 = _displacement_tables(lat, L, _lattice_images(lat, L, chi))
    s1, s2 = (d1 / lat.a) ** 2, (d2 / lat.b) ** 2

    def block_maxima(mu):
        absK = np.abs(K.entries[mu])
        j, k = np.divmod(np.arange(mu.start, mu.stop), lat.n_freq)
        steps = np.sqrt(s1[j] + s2[k])
        # |K| >= 0, so -1 marks a block with no entry that far from the graph
        far = np.where(steps >= min_steps, absK, -1.0).max()
        return far, absK.max()

    far, peak = np.max(map_blocks(block_maxima, _row_blocks(lat.size, lat.size)), axis=0)
    return float(far / peak) if far >= 0 else 0.0


def _offsets_for(lat, n_offsets: int) -> list:
    """Deterministic fractional-multiple offsets realized on the unit lattice:
    diagonal fractions j/(n+1) of a cell first (half-cell included when n >= 2),
    then axis-aligned fractions as fillers."""
    diag, axis = [], []
    for j in range(1, n_offsets + 1):
        t = j / (n_offsets + 1)
        c = (round(lat.a * t), round(lat.b * t))
        if c != (0, 0) and c not in diag:
            diag.append(c)
        for c in ((round(lat.a * t), 0), (0, round(lat.b * t))):
            if c != (0, 0) and c not in axis and c not in diag:
                axis.append(c)
    return (diag + [c for c in axis if c not in diag])[:n_offsets]


def offgrid_decay_check(T: OperatorMatrix, frame: GaborFrame, chi, s: float,
                        n_offsets: int = 3) -> OffgridReport:
    """Compare the decay constant over the lattice with shifted copies (regime A).

    C(X) = max over z in X_z, w' in X_w of |<T pi(z) w, pi(w') w>| <w'-chi(z)>^s,
    where the X's run over the lattice and over lattice copies shifted by
    off-grid offsets u on the unit lattice.  The continuous/discrete
    equivalence predicts a bounded ratio.
    """
    if frame.config.regime != "A":
        raise ModelError("off-grid check is a regime-A (exact torus) operation")
    lat = frame.lattice
    L = frame.config.L
    pts = lat.points().astype(float)
    w = frame.tight.values
    offsets = [(0, 0)] + _offsets_for(lat, n_offsets)
    # the points w' of offset u form the time-major grid (t + u[0]) x (f + u[1])
    t = lat.a * np.arange(lat.n_time)
    f = lat.b * np.arange(lat.n_freq)
    grids = [(t + u[0], f + u[1]) for u in offsets]

    # C[i, j] is the constant for z-offset i and w'-offset j.  The STFT of
    # T pi(z) w gives <T pi(z) w, pi(w') w> for every w' at once; it is formed
    # for a block of z at a time on the block pool, and each block's maxima
    # for every w'-offset fold into C in block order.  The squared wrapped
    # displacements come from (z, w'-time) and (z, w'-freq) tables.
    C = np.zeros((len(offsets), len(offsets)))
    for i, u in enumerate(offsets):
        z = pts + np.array(u, dtype=float)
        img = _chi_points(chi, wrap_half(z, L))
        zi = z.astype(int)

        def block_maxima(blk):
            atoms = tf_shift_matrix(w, zi[blk, 0], zi[blk, 1])
            images = (T.entries @ atoms[:, :, None])[:, :, 0]    # one gemv per atom
            if not np.isfinite(images).all():
                raise ModelError("operator image has non-finite entries")
            V = stft_matrix(images, w)                           # [z, k, m]
            maxima = []
            for tw, fw in grids:
                vals = np.abs(V[:, (tw % L)[:, None], fw % L])   # [z, w'-time, w'-freq]
                d1sq = wrap_half(tw[None, :] - img[blk, 0][:, None], L) ** 2
                d2sq = wrap_half(fw[None, :] - img[blk, 1][:, None], L) ** 2
                weight = ((1.0 + d1sq)[:, :, None] + d2sq[:, None, :]) ** (s / 2)
                maxima.append(float((vals * weight).max()))
            return maxima

        for maxima in map_blocks(block_maxima, _row_blocks(lat.size, L * L)):
            for j, m in enumerate(maxima):
                C[i, j] = max(C[i, j], m)
    C_lattice = float(C[0, 0])
    C_offgrid = float(C.max())
    return OffgridReport(C_lattice=C_lattice, C_offgrid=C_offgrid,
                         ratio=C_offgrid / C_lattice, offsets=offsets[1:])


def sparsify(K: GaborMatrix, tau: float) -> SparseGaborMatrix:
    """Keep entries with |K| >= tau; record the Schur mass of what was dropped."""
    if not tau >= 0:
        raise ModelError(f"threshold must be >= 0, got {tau!r}")
    absK = np.abs(K.entries)
    keep = absK >= tau
    mat = RowPaddedMatrix.from_dense(np.where(keep, K.entries, 0.0))
    return SparseGaborMatrix(matrix=mat, threshold=float(tau),
                             kept_fraction=float(keep.mean()),
                             dropped_schur_mass=schur_bound(np.where(keep, 0.0, absK)))


def schur_bound(K) -> float:
    """max(max_mu sum_lam |K|, max_lam sum_mu |K|): an upper bound for the
    l2 operator norm of the matrix (Schur's test)."""
    A = np.abs(K.entries if isinstance(K, GaborMatrix) else np.asarray(K))
    return float(max(A.sum(axis=1).max(), A.sum(axis=0).max()))


def symbol_class_norm(sigma: SymbolGrid, s: float,
                      window2d: SymbolGrid | None = None) -> SymbolClassReport:
    """Weighted sup of the 2d STFT of a symbol: sup_z sup_zeta |V_Psi sigma| <zeta>^s.

    The L^2 translates Psi(. - z) are the L x L windows of the periodically
    tiled window.  Stacks of sigma conj(Psi(. - z)) over the _row_blocks
    slices of z2, about FIT_BLOCK_ENTRIES // W entries each, go through one
    batched 2d FFT per block (an L^4 log L computation overall, run on the
    block pool over groups of rows z1), so L is capped at
    SYMBOL_CLASS_MAX_L.  Also fits the decay exponent of the envelope
    sup_z |V_Psi sigma(z, .)| with the shared binning machinery.
    """
    L = sigma.config.L
    if L > SYMBOL_CLASS_MAX_L:
        raise SizeError(f"symbol_class_norm capped at L = {SYMBOL_CLASS_MAX_L}")
    if window2d is None:
        from .tfcore import periodized_gaussian
        g = periodized_gaussian(sigma.config).values
        Psi = np.outer(g, g)
    else:
        Psi = window2d.values
    if np.linalg.norm(Psi) == 0:
        raise ModelError("zero 2d window")
    # translates[r, c, i, j] = conj(Psi)[(i + r) % L, (j + c) % L], the
    # translate of conj(Psi) by z = (-r, -c) mod L
    translates = np.lib.stride_tricks.sliding_window_view(
        np.tile(np.conj(Psi), (2, 2))[:-1, :-1], (L, L))
    cols = _row_blocks(L, L * L)
    # each group of rows returns its L x L envelope; at most about
    # FIT_BLOCK_ENTRIES entries of them wait to be folded
    rows = max(1, L * L * L // FIT_BLOCK_ENTRIES)

    def rows_envelope(r0):
        """sup of |V_Psi sigma| over the translates of rows r0, r0 + 1, ..."""
        env_r = np.zeros((L, L))
        stack = np.empty((cols[0].stop, L, L), dtype=complex)
        mag = np.empty((cols[0].stop, L, L))
        for row in translates[r0:r0 + rows]:
            for c in cols:
                block = row[c]
                out, m = stack[:len(block)], mag[:len(block)]
                np.multiply(sigma.values, block, out=out)
                np.fft.fft(out, axis=2, out=out)       # fft2 over (1, 2), in place
                np.fft.fft(out, axis=1, out=out)
                np.maximum(env_r, np.abs(out, out=m).max(axis=0), out=env_r)
        return env_r

    env = np.zeros((L, L))
    for env_r in map_blocks(rows_envelope, range(0, L, rows)):
        np.maximum(env, env_r, out=env)
    zw = wrap_half(np.arange(L), L)
    dist = np.sqrt(1.0 + zw[:, None] ** 2 + zw[None, :] ** 2)
    norm = float((env * dist ** s).max())
    bins, s_sym, _, _ = envelope_fit(dist, env)
    return SymbolClassReport(norm=norm, envelope=env, s_sym=s_sym, bins=bins)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def gabor_matrix_to_csv(K: GaborMatrix, path) -> None:
    """Write rows (mu_k, mu_m, lam_k, lam_m, re, im) in lattice order.

    The bytes are those of csv.writer (\r\n line ends) with the floats
    written as repr; the rows go out in the blocks of whole mu rows of
    _row_blocks.
    """
    pts = [f"{k},{m}," for k, m in K.lattice.points().tolist()]
    N = len(pts)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for rows in _row_blocks(N, N):
            block = K.entries[rows]
            mu = itertools.chain.from_iterable(itertools.repeat(p, N) for p in pts[rows])
            lam = itertools.chain.from_iterable(itertools.repeat(pts, block.shape[0]))
            fh.write("".join(map("{}{}{!r},{!r}\r\n".format, mu, lam,
                                 block.real.ravel().tolist(), block.imag.ravel().tolist())))


def gabor_matrix_from_csv(path, frame: GaborFrame) -> GaborMatrix:
    """Read the layout written by gabor_matrix_to_csv back over a frame.

    Rows may come in any order; a lattice point given twice keeps its last
    row and one never given stays 0.  A row that names a point off the
    lattice, holds a non-numeric field or has other than six columns raises
    ModelError.
    """
    lat = frame.lattice
    L = frame.config.L
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header[:4] != CSV_HEADER[:4]:
            raise ModelError("unrecognized Gabor-matrix CSV header")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # header-only file
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ModelError(f"malformed Gabor-matrix CSV row: {exc}") from None
    if rows.size == 0:
        rows = rows.reshape(0, len(CSV_HEADER))
    if rows.shape[1] != len(CSV_HEADER):
        raise ModelError(f"Gabor-matrix CSV rows have {rows.shape[1]} columns, "
                         f"want {len(CSV_HEADER)}")
    coords = rows[:, :4]
    inside = (coords >= 0) & (coords < L)
    steps = np.array([lat.a, lat.b, lat.a, lat.b])
    on_lattice = inside & (np.fmod(np.where(inside, coords, 0.0), steps) == 0)
    if not on_lattice.all():
        r = int(np.flatnonzero(~on_lattice.all(axis=1))[0])
        raise ModelError(f"Gabor-matrix CSV data row {r + 1} names a point off the "
                         f"{lat.a} x {lat.b} lattice: {rows[r, :4].tolist()}")
    # lattice point (j a, k b) has index j n_freq + k (time-major order)
    index = (coords[:, 0::2] // lat.a * lat.n_freq + coords[:, 1::2] // lat.b).astype(np.intp)
    K = np.zeros((lat.size, lat.size), dtype=complex)
    K[index[:, 0], index[:, 1]] = rows[:, 4] + 1j * rows[:, 5]
    return GaborMatrix(K, frame)


def profile_to_csv(profile: DecayProfile, path) -> None:
    """Write (bin_dist, envelope, count) rows plus log10 columns for plotting."""
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["bin_dist", "envelope", "count", "log10_dist", "log10_envelope"])
        for d, e, c in profile.bins:
            wtr.writerow([repr(float(d)), repr(float(e)), c,
                          repr(float(np.log10(d))),
                          repr(float(np.log10(e))) if e > 0 else ""])
