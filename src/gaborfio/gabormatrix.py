"""Gabor matrices of operators and their decay anatomy.

The Gabor matrix of T over a frame with windows w is

    K[mu, lam] = <T pi(lam) w, pi(mu) w>,

that is K = A T A^H with A the analysis operator of the frame (rows
pi(mu) w^H).  A is a fold followed by length-n_freq FFTs (gabor module
docstring), so K is assembled as two analyses and no L x L x N product:

    X = T A^H,        K = A X.

The lattice is time-major, so the columns lam = j n_freq + k of whole time
indices j are a slice of K, and _gabor_columns fuses the two analyses per
block of time indices: the block's atom images X[:, lam] = T pi(lam) w come
from one batched GEMM against T' (T with its columns regrouped by residue
mod n_freq) and an inverse FFT (_block_images), and the second analysis
runs the step gabor.fold_fft over column sub-blocks of the block.  The
images are dropped after the block, so no N x L first analysis is formed;
gabor_matrix writes each whole block into its slice of K.

The decay of |K| is measured against a canonical transformation chi
through the wrapped displacement d = mu - chi(lam), componentwise reduced
to [-L/2, L/2) in grid-index units.  Every fold reads |K| alone, from a
column source columns(column_fn), which calls column_fn(cols, v, scratch)
on column blocks (_column_width) with v[j, k, :] = |K[j n_freq + k, cols]|
and scratch 16 bytes an entry that the fold may overwrite: _matrix_columns
reads them from a given K (decay_profile), and _gabor_columns computes
them from T without forming K or any other N x N array
(operator_decay_profile).  _decay_fit runs one of two folds over them:

* where chi sends the lattice to integer points (every regime-A map, the
  identity in regime B), every squared distance x = |d|^2 is an integer in
  [0, L^2 / 2], and _key_fit folds each block into a maximum per x, one
  array for all workers, while the counts of the keys come from the
  displacement tables alone (_key_counts: one column of each class of
  columns with the same keys);
* for every other chi (the sampled maps of the sine phases), _survivor_fit
  splits each sqrt(2) bin into sub-bins by distance and keeps only the
  entries whose |K| is above the largest sub-bin maximum farther out or
  above the largest one nearer in, and each bin's maximum (0.03-1.4% of the
  entries for the sampled maps tried at L = 256, 7% where |K| falls almost
  monotonically with distance), which hold every bin's maximum and the
  C_fit maximum for every exponent and floor.

One core, _fit, forms the bins, the floor, the regression and C_fit for
both folds and for envelope_fit: from (distance, |value|) pairs, or from
(distance, maximum, count) triples of the occupied keys or the survivors.

The off-grid check folds _weighted_sup over _gabor_columns of T conjugated
by its offsets.  Every pass over rows (the mu of K in offgraph_max, the CSV
writer and the sparse matrices of sparsify_each, the translates of the
symbol-class sweep) splits them by _row_blocks into contiguous slices of
about FIT_BLOCK_ENTRIES // W entries, each counted at what its pass holds
for it but in the symbol-class sweep (symbol_class_norm); the sparse product
runs over blocks of whole slots.  _block_units sizes these blocks and the
column sources'.  So no step of the threshold sweep or of the CSV writer
holds a temporary of K's size.

The N x N arrays (K, the (N, N, 2) displacement array, and |K| with the
densest sparse matrix of a sweep), the displacement tables, T' with the
blocks in flight of the fused analyses as one sum, and the key fold's
per-key maxima with its class counts (formed first, at most N pairs a
class) are checked against the machine's physical memory before they are
allocated: a larger one raises SizeError.

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

import bisect
import csv
import itertools
import os
import threading
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .blockpool import map_blocks, worker_limit, workers
from .errors import FitError, ModelError, SizeError
from .gabor import (GaborFrame, column_blocks, column_fold, fold_fft, spans,
                    window_fold)
from .operators import OperatorMatrix, SymbolGrid
from .phasegeom import CanonicalMap, linear_map
from .tfcore import array_field, periodized_gaussian, wrap_half

__all__ = [
    "GaborMatrix", "DecayProfile", "RowPaddedMatrix", "SparseGaborMatrix",
    "OffgridReport", "SymbolClassReport", "gabor_matrix", "decay_profile",
    "operator_decay_profile",
    "offgraph_max", "offgrid_decay_check", "sparsify", "sparsify_each",
    "schur_bound", "symbol_class_norm", "gabor_matrix_to_csv",
    "gabor_matrix_from_csv", "profile_to_csv",
]

SYMBOL_CLASS_MAX_L = 128   # the 2d-STFT sweep is an L^4 log L computation
FIT_FLOOR_RTOL = 1e-13     # envelope floor relative to the peak (rounding)
FIT_MIN_DIST = 2.0         # bins nearer the graph do not enter the fit
FIT_MIN_COUNT = 3          # nor do bins with fewer entries
# float64s in flight in the blocked passes (1 MiB), shared out by
# _block_units: FIT_BLOCK_ENTRIES // W entries a row block, the column
# sources a quarter of that (their blocks hold |K| and the scratch, 24 bytes
# an entry, at least gabor.COLUMN_ALIGN wide) and the sparse product, on one
# thread, an eighth (32 bytes an entry)
FIT_BLOCK_ENTRIES = 1 << 17
SUBBINS = 64               # sub-bins per sqrt(2) bin in the survivor fold
CSV_HEADER = ["mu_k", "mu_m", "lam_k", "lam_m", "re", "im"]
CSV_CHUNK_LINES = 8192     # lines of matrix.csv parsed at a time


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
        array_field(self, "entries", complex, (self.frame.lattice.size,) * 2, "Gabor-matrix")

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
    The first slots of row i hold the row's stored entries in column order,
    as many as it has (nnz in all); the remaining slots up to the common
    width hold the value 0.
    ``self @ x`` sums each row in slot order from 0, forming every product
    from the real and imaginary parts as a compiled CSR product does, so it
    gives the same floats as a CSR matvec over the same entries (for finite
    x: a zero slot adds a signed zero, which leaves every sum unchanged).
    from_mask builds the rows in blocks of _row_blocks and the product runs
    over blocks of whole slots, each with a temporary of about half a MiB,
    whatever the matrix's size; neither block size changes a bit.
    """

    cols: np.ndarray           # (width, n_rows) column indices
    re: np.ndarray             # (width, n_rows) real parts
    im: np.ndarray             # (width, n_rows) imaginary parts
    shape: tuple[int, int]
    nnz: int

    @classmethod
    def from_mask(cls, A: np.ndarray, mask: np.ndarray) -> "RowPaddedMatrix":
        """The entries of the 2-D complex array A where the boolean array
        mask of its shape is true."""
        return cls._from_rows(A, lambda rows: mask[rows], np.count_nonzero(mask, axis=1))

    @classmethod
    def _from_rows(cls, A: np.ndarray, keep_rows, counts: np.ndarray) -> "RowPaddedMatrix":
        """from_mask over the _row_blocks of A's rows, 32 bytes an entry of
        a row (the sort of its drop flags and the complex values it keeps):
        keep_rows(rows) is the mask of a block of rows and counts the kept
        entries of each row, so no array of A's shape is formed."""
        n, m = A.shape
        width = int(counts.max(initial=0))
        cols = np.empty((width, n), dtype=np.intp)
        re, im = np.empty((width, n)), np.empty((width, n))
        for rows in _row_blocks(n, 4 * m):
            # a stable sort of the drop flags puts each row's kept columns
            # first, in column order, and then its dropped ones, whose values
            # in the padding slots are set to 0
            idx = np.argsort(~keep_rows(rows), axis=1, kind="stable")[:, :width]
            vals = np.take_along_axis(A[rows], idx, axis=1)
            vals[np.arange(width) >= counts[rows, None]] = 0
            cols[:, rows], re[:, rows], im[:, rows] = idx.T, vals.real.T, vals.imag.T
        return cls(cols=cols, re=re, im=im, shape=(n, m), nnz=int(counts.sum()))

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.shape[1],):
            raise ModelError(f"vector shape {x.shape} does not match matrix shape {self.shape}")
        width, n = self.cols.shape
        # blocks of k whole slots, about FIT_BLOCK_ENTRIES // 8 entries for
        # any W, in one workspace a call of 32 bytes an entry (half a MiB):
        # the gathered x (contiguous, so that no product reads a strided
        # view), the products below the sums of the slots before them (a
        # reduction over axis 0 adds the slots of each row in sequence) and
        # the second products
        k = max(1, min(width, _block_units(n, 8, 1)))
        work = np.empty((4 * k + 1) * n)
        xc = work[:2 * k * n].view(complex).reshape(k, n)
        buf = work[2 * k * n:(3 * k + 1) * n].reshape(k + 1, n)
        u = work[(3 * k + 1) * n:].reshape(k, n)
        sums = np.zeros((2, n))                    # real and imaginary parts
        for s0 in range(0, width, k):
            j = min(k, width - s0)
            # mode "raise" would buffer out; every column index is in range
            xj = np.take(x, self.cols[s0:s0 + j], out=xc[:j], mode="clip")
            re, im = self.re[s0:s0 + j], self.im[s0:s0 + j]
            for part, (a, b, op) in enumerate(((xj.real, xj.imag, np.subtract),
                                               (xj.imag, xj.real, np.add))):
                np.multiply(re, a, out=buf[1:j + 1])
                np.multiply(im, b, out=u[:j])
                op(buf[1:j + 1], u[:j], out=buf[1:j + 1])
                buf[0] = sums[part]
                np.add.reduce(buf[:j + 1], axis=0, out=sums[part])
        out = np.empty(n, dtype=complex)
        out.real, out.imag = sums
        return out


@dataclass(frozen=True)
class SparseGaborMatrix:
    """Thresholded Gabor matrix in row-padded form with its discarded Schur mass."""

    matrix: RowPaddedMatrix
    kept_fraction: float
    dropped_schur_mass: float


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


def _time_blocks(n_time: int, W: int) -> list:
    """The spans of the n_time time indices of lam for the fused analyses on
    W workers: n_time // (16 W) indices each, so that the blocks in flight
    hold about a sixteenth of the N x L first analysis, but two at least (a
    one-index block would run its first product as a matrix-vector product;
    gabor.spans merges a last one into the block before it)."""
    return spans(n_time, max(2, n_time // (16 * W)))


def _block_units(unit: int, per_entry: int, W: int) -> int:
    """Units of `unit` entries (one at least) in a block of a pass on W
    workers counting per_entry float64s an entry (0 if one unit is larger):
    the one share of the row blocks, column sources and sparse products."""
    return max(1, FIT_BLOCK_ENTRIES // per_entry // W) // max(1, unit)


def _column_width(lat, W: int) -> int:
    """The columns of a column source's block on W workers, for every fold."""
    return _block_units(lat.size, 4, W)


def _fused_plan(lat, W: int, whole: bool) -> tuple:
    """(time blocks, column sub-block width, bytes) of the fused analyses
    on W workers, whose blocks go whole into K where whole: the width is
    then None, else _column_width.  The bytes are those of T' (16 L^2) and
    of the blocks in flight: each holds the GEMM product and the images of
    its time indices, 32 bytes an entry, and, unless whole, a scratch column
    sub-block of K, 16 bytes an entry."""
    L = lat.config.L
    times = _time_blocks(lat.n_time, W)
    M = lat.n_freq * max(js.stop - js.start for js in times)    # widest block
    width = None if whole else _column_width(lat, W)
    sub = 0 if width is None else max(c.stop - c.start for c in column_blocks(M, width))
    return times, width, 16 * L * L + min(W, len(times)) * (32 * M * L + 16 * lat.size * sub)


def _fused_workers(lat, whole: bool) -> int:
    """The workers of the fused analyses: the most of workers() whose T'
    and blocks in flight (_fused_plan) fit in the 16 L^2 + 16 N L bytes of
    the two arrays they replace, the conjugate copy of T and the N x L
    first analysis; one at least.  The column sub-blocks are at least
    gabor.COLUMN_ALIGN wide, so past some W the blocks in flight grow with
    W."""
    budget = 16 * lat.config.L * (lat.config.L + lat.size)
    return max([1] + [W for W in range(2, workers() + 1)
                      if _fused_plan(lat, W, whole)[2] <= budget])


def _thread_buffer(bufs: dict, n: int, dtype) -> np.ndarray:
    """The first n entries of the calling thread's buffer in bufs (thread
    id -> 1-d array), grown where too small: a pass holds one buffer a
    worker instead of allocating one a block."""
    tid = threading.get_ident()
    if tid not in bufs or bufs[tid].size < n:
        bufs[tid] = np.empty(n, dtype)
    return bufs[tid][:n]


def _block_images(Tq: np.ndarray, wT: np.ndarray, js: slice) -> np.ndarray:
    """The atom images T pi(lam) w of the lam = j n_freq + k of the time
    indices j of js, as the columns of an (L, M) array in lattice order: the
    first analysis of the block, from T' and the window fold wT of
    _gabor_columns.  P[q, j, n] = sum_r w[q + r n_freq - j a] T[n, q + r
    n_freq] is one batched GEMM, and the inverse FFT over q without its
    1 / n_freq gives the images: the modulation of pi(lam) depends on a
    time index only through its residue q.  The FFT writes them transposed,
    so that the columns of one time index are contiguous."""
    P = np.matmul(wT[:, js], Tq)                     # [q, j, n]
    nf, nj, L = P.shape
    X = np.empty((L, nj, nf), dtype=complex)
    np.fft.ifft(P, axis=0, norm="forward", out=X.transpose(2, 1, 0))
    return X.reshape(L, nj * nf)


def _gabor_columns(T: OperatorMatrix, frame: GaborFrame, w, column_fn=None,
                   K: np.ndarray | None = None) -> None:
    """The two analyses of K = A T A^H over the window w, fused per block of
    whole time indices of lam on the block pool: the column source of T
    (module docstring), or the store of every block into the (n_time,
    n_freq, N) array K where K is given.

    The columns lam of a block of time indices (_time_blocks) are a slice
    of K, and their atom images T pi(lam) w come from _block_images, so no
    N x L first analysis is formed.  The second analysis (gabor.fold_fft)
    goes whole into K[:, :, lam], or runs over column sub-blocks of the
    block (gabor.column_blocks, _column_width wide) into its worker's
    scratch, which goes with its |K| to column_fn(cols, v, scratch), cols
    the slice of global columns.  The images are dropped after the block.

    The pass runs on _fused_workers workers.  T' (T[n, q + r n_freq] as a
    contiguous (n_freq, b, L) array) and the blocks in flight are checked
    against the machine's memory as one sum (_fused_plan) before T' is
    formed.
    """
    lat = frame.lattice
    if T.config.L != frame.config.L:
        raise ModelError("operator/frame size mismatch")
    nt, nf = lat.n_time, lat.n_freq
    n_workers = _fused_workers(lat, K is not None)
    times, width, held = _fused_plan(lat, n_workers, K is not None)
    _require_memory(held, "T' and the atom-image blocks in flight")
    with worker_limit(n_workers):
        Tq = np.ascontiguousarray(column_fold(lat, T.entries.T))
        wT = window_fold(w, lat)
        W = np.conj(wT)
        bufs, vbufs = {}, {}      # thread -> scratch and |K| of the sub-blocks

        def time_block(js):
            X = _block_images(Tq, wT, js)
            c0, M = js.start * nf, X.shape[1]
            Xq = column_fold(lat, X)
            for cols in column_blocks(M, M if width is None else width):
                lam = slice(c0 + cols.start, c0 + cols.stop)
                out = (K[:, :, lam] if K is not None else _thread_buffer(
                    bufs, nt * nf * (cols.stop - cols.start), complex).reshape(nt, nf, -1))
                fold_fft(W, Xq[:, :, cols], out)
                if K is None:
                    v = _thread_buffer(vbufs, out.size, float).reshape(out.shape)
                    column_fn(lam, np.abs(out, out=v), out.reshape(-1))

        map_blocks(time_block, times)


def gabor_matrix(T: OperatorMatrix, frame: GaborFrame,
                 use_tight: bool = True) -> GaborMatrix:
    """Assemble K = A T A^H over the frame lattice by the fused folded-FFT
    analyses of _gabor_columns, each block written into its slice of K.

    The default window is the canonical tight window; use_tight=False scans
    against the frame's generating window instead (the decay class does not
    depend on the window, only the constants do).
    """
    lat = frame.lattice
    N = lat.size
    _require_memory(16 * N * N, "the Gabor matrix")
    K = np.empty((lat.n_time, lat.n_freq, N), dtype=complex)
    _gabor_columns(T, frame, frame.window(use_tight), K=K)
    return GaborMatrix(K.reshape(N, N), frame)


def _matrix_columns(K: GaborMatrix):
    """The column source of a given K (module docstring) on the block pool."""
    lat = K.lattice
    K3 = K.entries.reshape(lat.n_time, lat.n_freq, lat.size)

    def columns(column_fn) -> None:
        bufs, vbufs = {}, {}      # thread -> scratch and |K| of the blocks

        def block(cols):
            z = K3[:, :, cols]
            v = _thread_buffer(vbufs, z.size, float).reshape(z.shape)
            column_fn(cols, np.abs(z, out=v), _thread_buffer(bufs, z.size, complex))

        map_blocks(block, column_blocks(lat.size, _column_width(lat, workers())))

    return columns


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


def _lattice_images(lat, chi, shift=(0, 0)) -> np.ndarray:
    """chi(lam + shift) of the points lam of the lattice lat of Z_L, lam + shift
    reduced to [-L/2, L/2) first, as in wrapped_displacements: an (N, 2) array."""
    return _chi_points(chi, wrap_half((lat.points() + shift).astype(float), lat.config.L))


def _displacement_tables(lat, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two components of d as in wrapped_displacements over the lattice
    lat of Z_L, from the _lattice_images img: mu's time coordinate takes
    only n_time values and its frequency coordinate n_freq values, so they
    come from an (n_time, N) and an (n_freq, N) table, checked against the
    machine's memory."""
    L = lat.config.L
    _require_memory(8 * (lat.n_time + lat.n_freq) * lat.size, "the displacement tables")
    t = (lat.a * np.arange(lat.n_time)).astype(float)
    f = (lat.b * np.arange(lat.n_freq)).astype(float)
    tables = (t[:, None] - img[:, 0][None, :],                  # (n_time, N)
              f[:, None] - img[:, 1][None, :])                  # (n_freq, N)
    for d in tables:              # wrap_half's operations, in place
        d += L / 2
        d %= L
        d -= L / 2
    return tables


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
    img = _lattice_images(K.lattice, chi)
    d1 = wrap_half(pts[:, 0][:, None] - img[:, 0][None, :], L)
    d2 = wrap_half(pts[:, 1][:, None] - img[:, 1][None, :], L)
    return np.stack([d1, d2], axis=-1)


def envelope_fit(dists: np.ndarray, values: np.ndarray):
    """Shared binning + fit: geometric sqrt(2) bins of the bracketed
    distances <d> (>= 1, computed by the caller), sup envelope per bin,
    weighted least squares of log envelope on log distance.  Envelopes and
    the values entering C_fit are clamped to the rounding floor
    FIT_FLOOR_RTOL * max|values|.

    Returns (bins, s_fit, C_fit, r2). Raises ModelError when dists and
    values differ in size and FitError with fewer than four eligible bins.
    """
    dists, values = np.asarray(dists, dtype=float).ravel(), np.abs(np.asarray(values)).ravel()
    if dists.size != values.size:
        raise ModelError(f"{dists.size} distances for {values.size} values")
    return _fit(dists, values)


def _bracket(x: np.ndarray) -> np.ndarray:
    """<d> = sqrt(x + 1.0) of squared distances x, computed in x itself when
    x is a float array (a caller's temporary) and in a new one otherwise."""
    dist = x.astype(float, copy=False)
    dist += 1.0
    return np.sqrt(dist, out=dist)


def _bin_coordinate(dist: np.ndarray, out=None) -> np.ndarray:
    """log <d> / log sqrt 2 of bracketed distances, into out if given: the
    sqrt(2) bin of <d> is its floor."""
    idx = np.log(dist, out=out)
    idx /= np.log(np.sqrt(2))
    return idx


def _bin_index(dist: np.ndarray) -> np.ndarray:
    """The sqrt(2) bin of each bracketed distance: floor(log <d> / log sqrt 2)."""
    idx = _bin_coordinate(dist)
    return np.floor(idx, out=idx).astype(np.intp)


def _weighted_max(dist: np.ndarray, vals: np.ndarray, s_fit: float, floor: float) -> float:
    """max of <d>^s_fit max(|value|, floor): the C_fit of these entries, inf
    where a weighted value overflows."""
    with np.errstate(over="ignore"):
        weighted_vals = dist ** s_fit
        weighted_vals *= np.maximum(vals, floor)
    return float(weighted_vals.max())


def _regression(env: np.ndarray, cnt: np.ndarray):
    """The fit from the bin maxima env (clamped to the floor in place) and
    the bin counts cnt: (floor, bins, s_fit, r2).  Raises FitError where a
    |value| is inf or nan, or with fewer than four eligible bins."""
    nb = env.size
    floor = FIT_FLOOR_RTOL * float(env.max())      # env.max() is max|values|
    if not np.isfinite(floor):                     # an inf or nan |value|
        raise FitError("non-finite |K| among the entries to fit")
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


def _fit(dist: np.ndarray, vals: np.ndarray, *counts):
    """The fit core, (bins, s_fit, C_fit, r2), over 1-d arrays of distances
    <d> and |values|, or of distances, maxima and counts where each pair
    stands for `counts` entries.  Bin maxima, integer counts and the C_fit
    maximum do not depend on how the entries are grouped."""
    idx = _bin_index(dist)
    nb = int(idx.max()) + 1
    env = np.zeros(nb)
    with np.errstate(invalid="ignore"):       # a nan |value| raises in _regression
        np.maximum.at(env, idx, vals)
    cnt = np.bincount(idx, *counts, minlength=nb).astype(np.intp, copy=False)
    del idx                       # before _weighted_max allocates as much
    floor, bins, s_fit, r2 = _regression(env, cnt)
    return bins, s_fit, _weighted_max(dist, vals, s_fit, floor), r2


def _row_blocks(n_rows: int, row_entries: int) -> list:
    """Contiguous slices of n_rows rows of row_entries entries each, about
    FIT_BLOCK_ENTRIES // W entries (one row at least) per slice for W
    workers: the one split of every pass over rows in this module.  A pass
    that counts k float64s for each entry of its block passes k times its
    row length."""
    step = max(1, _block_units(row_entries, 1, workers()))
    return [slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def _key_counts(sq1: np.ndarray, sq2: np.ndarray) -> tuple:
    """The keys x = d1^2 + d2^2 that occur and how often, from the integer
    squared displacement tables sq1 (n_time, N) and sq2 (n_freq, N) of
    _key_fit, as (keys, counts) with a key repeated across classes.

    As mu runs over the lattice, mu - chi(lam) runs over the time steps of a
    and the frequency steps of b shifted by chi(lam), each wrapped into
    [-L/2, L/2): the multiset of a column's sq1 depends only on r = chi(lam)
    mod a up to r -> a - r (a sign flip of d1, the end point -L/2 aside,
    which keeps the squares), so only on its least value min(r, a - r)^2
    (its one value where a = L), and likewise for sq2 and b.  The columns
    of equal least values form a class with the keys of any one of them,
    so one column a class, weighted by the class size, counts all N^2
    keys.
    """
    m1, m2 = sq1.min(axis=0), sq2.min(axis=0)
    _, first, size = np.unique(m1 * (int(m2.max()) + 1) + m2, return_index=True,
                               return_counts=True)
    parts = [np.unique(np.add.outer(sq1[:, c], sq2[:, c]), return_counts=True)
             for c in first]
    return (np.concatenate([keys for keys, _ in parts]),
            np.concatenate([n * count for (_, count), n in zip(parts, size)]))


def _key_fit(columns, sq1: np.ndarray, sq2: np.ndarray) -> DecayProfile:
    """The decay fit of the K of the column source columns from integer
    squared displacement tables sq1 (n_time, N) and sq2 (n_freq, N), folded
    over the keys x = d1^2 + d2^2.

    The key of K[j n_freq + k, lam] is sq1[j, lam] + sq2[k, lam], an integer
    in [0, L^2 / 2], and every entry with that key has the distance <d> =
    sqrt(x + 1.0).  The counts of the keys do not depend on K and come
    from the tables (_key_counts).  Each column block folds its |K| into
    one maximum per key, an array (checked against the machine's memory
    with the class counts) that the workers share under a lock, by the keys
    it writes into its scratch (as 1-d views: np.maximum.at runs about ten
    times slower on 3-d ones).  _fit reads the occupied keys as (<d>, key
    max, key count) triples.  <d>^s_fit max(v, floor) is monotone in v (a
    positive weight times a correctly rounded product), so the max over the
    keys is the max over the entries bit for bit: the result is
    envelope_fit of all entries for every W and block size.
    """
    keys, counts = _key_counts(sq1, sq2)
    n_keys = int(sq1.max()) + int(sq2.max()) + 1
    _require_memory(8 * n_keys + 16 * keys.size, "the per-key maxima and the key counts")
    envx = np.zeros(n_keys)
    lock = threading.Lock()

    def fold_block(cols, v, scratch):
        key = scratch.view(np.intp)[:v.size]     # the first half of scratch
        np.add(sq1[:, None, cols], sq2[None, :, cols], out=key.reshape(v.shape))
        with lock, np.errstate(invalid="ignore"):     # nan raises in _regression
            np.maximum.at(envx, key, v.reshape(-1))

    columns(fold_block)
    return DecayProfile(*_fit(_bracket(keys), envx[keys], counts))


def _survivor_fit(columns, d1sq: np.ndarray, d2sq: np.ndarray) -> DecayProfile:
    """The decay fit of the K of the column source columns from the squared
    displacement tables d1sq (n_time, N) and d2sq (n_freq, N), folded over
    the |K| column blocks into the entries that can decide it.

    A block's distances <d> = sqrt((d1sq + d2sq) + 1.0) and their sqrt(2)
    bins are those of the whole (N, N) distance array, bit for bit.  Each
    bin splits into SUBBINS sub-bins by the key floor(SUBBINS log <d> / log
    sqrt 2), monotone in <d>; SUBBINS is a power of two, so the product is
    exact and key // SUBBINS is the bin.  An entry of a block survives if
    its |K| is

    * above the largest sub-bin maximum farther out or above the largest
      one nearer in (an empty side counts as -1), or
    * its bin's maximum, in the first sub-bin of the bin that holds it.

    An entry that does not survive thus has an entry at least as large
    strictly farther out and one strictly nearer in.  <d>^s max(|K|, floor)
    is monotone in |K|, and in <d> for a fixed s, so the farthest (s >= 0)
    or nearest (s < 0) entry that attains the C_fit maximum survives for
    every s and every floor, and so does a maximum of every bin.  _fit
    takes the survivors of all blocks as (<d>, |K|, 0) triples and the count
    of each occupied bin of a block as one (<d> of a survivor of the bin,
    0.0, count) triple: the result is envelope_fit of all entries for every
    W and block size, and no N x N array is formed (the survivors' share:
    module docstring).
    """
    parts = []                    # the blocks' triples

    def fold_block(cols, v, scratch):
        n, shape, v = v.size, v.shape, v.reshape(-1)
        # scratch's first n floats hold the distances, then the thresholds,
        # and its second half the keys
        dist, key = scratch.view(np.float64)[:n], scratch.view(np.intp)[n:]
        np.add(d1sq[:, None, cols], d2sq[None, :, cols], out=dist.reshape(shape))
        # the cast truncates, which is the floor of these non-negative keys
        np.multiply(_bin_coordinate(_bracket(dist), out=dist), SUBBINS, out=key,
                    casting="unsafe")
        # the entries of each bin, up to the bin of the last key
        per_key = np.bincount(key)
        cnt = np.add.reduceat(per_key, np.arange(0, per_key.size, SUBBINS))
        nb = cnt.size
        sub = np.full(nb * SUBBINS, -1.0)      # |K| >= 0: -1 marks an empty sub-bin
        with np.errstate(invalid="ignore"):    # a nan |K| survives (below)
            np.maximum.at(sub, key, v)
        # the largest sub-bin maximum farther out and nearer in, per sub-bin
        far = np.full_like(sub, -1.0)
        near = np.full_like(sub, -1.0)
        far[:-1] = np.maximum.accumulate(sub[:0:-1])[::-1]
        near[1:] = np.maximum.accumulate(sub[:-1])
        thr = np.minimum(far, near)
        # and each bin's maximum in the first of its sub-bins that holds it
        top = np.arange(0, sub.size, SUBBINS) + sub.reshape(nb, SUBBINS).argmax(axis=1)
        thr[top] = np.minimum(thr[top], np.nextafter(sub[top], -np.inf))
        np.take(thr, key, out=dist, mode="clip")    # "raise" would buffer out
        # not <= both, so that a NaN survives as envelope_fit would see it
        kept = np.flatnonzero(~(v <= dist))
        # the survivors' distances again, by the same sums
        j, k, c = np.unravel_index(kept, shape)
        c += cols.start
        kept_d = _bracket(d1sq[j, c] + d2sq[k, c])
        rep = np.empty(nb)
        rep[key[kept] // SUBBINS] = kept_d      # every occupied bin has a survivor
        occupied = np.flatnonzero(cnt)
        parts.append(
            (np.concatenate([kept_d, rep[occupied]]),
             np.concatenate([v[kept], np.zeros(occupied.size)]),
             np.concatenate([np.zeros(kept.size, np.intp), cnt[occupied]])))

    columns(fold_block)
    triples = [np.concatenate(f) for f in zip(*parts)]
    parts.clear()                 # drop the blocks' triples once concatenated
    return DecayProfile(*_fit(*triples))


def _decay_fit(columns, lat, chi) -> DecayProfile:
    """The decay fit of the K of the column source columns along chi: by
    integer distance (_key_fit) where chi sends the lattice lat of Z_L to
    integer points, and by per-bin survivors (_survivor_fit) otherwise."""
    img = _lattice_images(lat, chi)
    tables = list(_displacement_tables(lat, img))
    # the folds hold only the squared tables, squared in place; the key fold
    # takes each as an intp copy, and its float table goes before the next
    # is converted
    if np.array_equal(img, np.round(img)):
        for i, d in enumerate(tables):
            tables[i] = np.square(d, out=d).astype(np.intp)
        del d
        return _key_fit(columns, *tables)
    return _survivor_fit(columns, *(np.square(d, out=d) for d in tables))


def decay_profile(K: GaborMatrix, chi) -> DecayProfile:
    """Fit |K[mu, lam]| <= C <mu - chi(lam)>^{-s} over the lattice by the
    folds of _decay_fit over K's column blocks."""
    return _decay_fit(_matrix_columns(K), K.lattice, chi)


def operator_decay_profile(T: OperatorMatrix, frame: GaborFrame, chi) -> DecayProfile:
    """decay_profile(gabor_matrix(T, frame), chi), field for field, from the
    fused analyses of T over the tight window: no N x N array is formed."""
    return _decay_fit(partial(_gabor_columns, T, frame, frame.tight), frame.lattice, chi)


def offgraph_max(K: GaborMatrix, chi, min_steps: float = 8.0) -> float:
    """Largest |K| (relative to the peak) at lattice-step distance >= min_steps
    from the graph mu = chi(lam); steps scale the wrapped displacement by
    (1/a, 1/b).  |K| is formed one block of rows at a time, counted at 4
    float64s an entry: |K|, the steps, their mask and np.where's result."""
    lat = K.lattice
    d1, d2 = _displacement_tables(lat, _lattice_images(lat, chi))
    s1, s2 = (d1 / lat.a) ** 2, (d2 / lat.b) ** 2

    def block_maxima(mu):
        absK = np.abs(K.entries[mu])
        j, k = np.divmod(np.arange(mu.start, mu.stop), lat.n_freq)
        steps = np.sqrt(s1[j] + s2[k])
        # |K| >= 0, so -1 marks a block with no entry that far from the graph
        far = np.where(steps >= min_steps, absK, -1.0).max()
        return far, absK.max()

    far, peak = np.max(map_blocks(block_maxima, _row_blocks(lat.size, 4 * lat.size)), axis=0)
    return float(far / peak) if far >= 0 else 0.0


def _offsets_for(lat, n_offsets: int) -> list:
    """Deterministic fractional-multiple offsets realized on the unit lattice:
    diagonal fractions j/(n+1) of a cell first (half-cell included when n >= 2),
    then axis-aligned fractions as fillers.

    Both kinds of candidates, (round(a t), round(b t)) and the axis ones, are
    non-decreasing in t = j/(n+1), so a new one can appear only at j = 1 or
    where round(a t) or round(b t) steps up: the loop runs at those j alone
    (found by bisection, with the loop's own arithmetic), at most a + b + 1
    of them, and gives the list of the loop over every j <= n.
    """
    n = n_offsets
    steps = {1} if n else set()
    for cell in (lat.a, lat.b):
        for k in range(1, cell + 1):
            i = bisect.bisect_left(range(1, n + 1), k, key=lambda j: round(cell * (j / (n + 1))))
            if i < n:
                steps.add(i + 1)
    diag, axis = [], []
    for j in sorted(steps):
        t = j / (n_offsets + 1)
        c = (round(lat.a * t), round(lat.b * t))
        if c != (0, 0) and c not in diag:
            diag.append(c)
        for c in ((round(lat.a * t), 0), (0, round(lat.b * t))):
            if c != (0, 0) and c not in axis and c not in diag:
                axis.append(c)
    return (diag + [c for c in axis if c not in diag])[:n_offsets]


def _shifted(T: OperatorMatrix, u, v) -> OperatorMatrix:
    """pi(v)^* T pi(u) for integer offsets u, v: the columns of T modulated
    by u[1] and rolled by -u[0], the rows by -v[1] and -v[0]; O(L^2)."""
    L = T.config.L
    n = np.arange(L)
    e = T.entries * np.exp(2j * np.pi * (u[1] * n % L) / L)
    e *= np.exp(-2j * np.pi * (v[1] * n % L) / L)[:, None]
    return OperatorMatrix(np.roll(e, (-v[0], -u[0]), axis=(0, 1)), T.config)


def _weighted_sup(columns, d1sq: np.ndarray, d2sq: np.ndarray, s: float) -> float:
    """max |K| ((1 + d1^2) + d2^2)^(s/2) over the K of the column source
    columns, from squared displacement tables as in _survivor_fit: inf where
    a product overflows, nan where |K| is, and the same bits for every W and
    block size (the products are elementwise, the maximum exact); a block's
    weights go into its scratch."""
    maxima = []

    def fold_block(cols, v, scratch):
        weight = scratch.view(np.float64)[:v.size].reshape(v.shape)
        np.add(1.0, d1sq[:, None, cols], out=weight)
        weight += d2sq[None, :, cols]
        with np.errstate(over="ignore", invalid="ignore"):
            weight **= s / 2
            weight *= v
        maxima.append(weight.max())

    columns(fold_block)
    return float(np.max(maxima))


def offgrid_decay_check(T: OperatorMatrix, frame: GaborFrame, chi, s: float,
                        n_offsets: int = 3) -> OffgridReport:
    """Compare the decay constant over the lattice with shifted copies (regime A).

    C(X) = max over z in X_z, w' in X_w of |<T pi(z) w, pi(w') w>| <w'-chi(z)>^s,
    where the X's run over the lattice and over lattice copies shifted by
    off-grid offsets u on the unit lattice.  The continuous/discrete
    equivalence predicts a bounded ratio.

    pi(lam + u) = c pi(lam) pi(u) with |c| = 1, so for the offsets u_i of z
    and u_j of w' the values are |K_ij[mu, lam]|, K_ij the Gabor matrix of
    _shifted(T, u_i, u_j), weighted by <mu - (chi(wrap(lam + u_i)) - u_j)>^s:
    C[i, j] is _weighted_sup over its fused analyses, with no N x N array.
    A non-finite T or a zero C_lattice raises ModelError.
    """
    if frame.config.regime != "A":
        raise ModelError("off-grid check is a regime-A (exact torus) operation")
    if not np.isfinite(T.entries).all():
        raise ModelError("operator has non-finite entries")
    lat = frame.lattice
    offsets = [(0, 0)] + _offsets_for(lat, n_offsets)
    C = np.zeros((len(offsets), len(offsets)))
    for i, u in enumerate(offsets):
        img = _lattice_images(lat, chi, u)
        for j, v in enumerate(offsets):
            d1sq, d2sq = (np.square(d, out=d) for d in _displacement_tables(lat, img - v))
            columns = partial(_gabor_columns, _shifted(T, u, v), frame, frame.tight)
            C[i, j] = _weighted_sup(columns, d1sq, d2sq, s)
    C_lattice, C_offgrid = float(C[0, 0]), float(C.max())
    if C_lattice == 0:
        raise ModelError("the Gabor matrix of the operator is zero on the lattice")
    return OffgridReport(C_lattice=C_lattice, C_offgrid=C_offgrid,
                         ratio=C_offgrid / C_lattice, offsets=offsets[1:])


def sparsify(K: GaborMatrix, tau: float) -> SparseGaborMatrix:
    """Keep entries with |K| >= tau; record the Schur mass of what was dropped."""
    return next(sparsify_each(K, [tau]))


def sparsify_each(K: GaborMatrix, taus):
    """sparsify(K, tau) for each tau of taus in turn, from one |K|.

    |K| is one array for all the thresholds, checked against the machine's
    memory with the densest matrix a threshold can keep (24 bytes an entry
    of K) before it is formed.  Each threshold runs over the _row_blocks of
    K's rows twice, forming each block's keep mask anew: first the kept
    count of each row and the Schur sums of the dropped |K| (the row sums
    of each block, and the column sums carried from block to block in row
    order, so both are those of schur_bound bit for bit), then the matrix
    (RowPaddedMatrix._from_rows).  No other array of K's shape is formed,
    and a matrix is formed when the one before it has been taken.
    """
    A = K.entries
    n, m = A.shape
    _require_memory(32 * n * m, "|K| and the densest sparse matrix of the sweep")
    absK = np.abs(A)
    blocks = _row_blocks(n, 4 * m)
    # a block's dropped |K| below the column sums of the blocks before it
    dropped = np.empty((max(b.stop - b.start for b in blocks) + 1, m))
    for tau in taus:
        if not tau >= 0:
            raise ModelError(f"threshold must be >= 0, got {tau!r}")
        counts, row_sums = np.empty(n, dtype=np.intp), np.empty(n)
        for i, rows in enumerate(blocks):
            keep, d = absK[rows] >= tau, dropped[1:rows.stop - rows.start + 1]
            counts[rows] = np.count_nonzero(keep, axis=1)
            np.copyto(d, absK[rows])
            np.copyto(d, 0.0, where=keep)
            with np.errstate(over="ignore"):
                row_sums[rows] = d.sum(axis=1)
                dropped[0] = dropped[1 if i == 0 else 0:len(d) + 1].sum(axis=0)
        yield SparseGaborMatrix(
            matrix=RowPaddedMatrix._from_rows(A, lambda rows: absK[rows] >= tau, counts),
            kept_fraction=int(counts.sum()) / (n * m),
            dropped_schur_mass=float(max(row_sums.max(), dropped[0].max())))


def schur_bound(K) -> float:
    """max(max_mu sum_lam |K|, max_lam sum_mu |K|): an upper bound for the
    l2 operator norm of the matrix (Schur's test), inf where a sum
    overflows."""
    with np.errstate(over="ignore"):
        A = np.abs(K.entries if isinstance(K, GaborMatrix) else np.asarray(K))
        return float(max(A.sum(axis=1).max(), A.sum(axis=0).max()))


def symbol_class_norm(sigma: SymbolGrid, s: float,
                      window2d: SymbolGrid | None = None) -> SymbolClassReport:
    """Weighted sup of the 2d STFT of a symbol: sup_z sup_zeta |V_Psi sigma| <zeta>^s.

    The L^2 translates Psi(. - z) are the L x L windows of the periodically
    tiled window.  The blocks (z1, slice of z2) pair each row z1 with the
    _row_blocks slices of z2, about FIT_BLOCK_ENTRIES // W entries each: a
    block stacks sigma conj(Psi(. - z)) in its worker's buffer, runs one
    batched 2d FFT in place and folds its maximum over z into one envelope
    under a lock (an L^4 log L computation overall, so L is capped at
    SYMBOL_CLASS_MAX_L).  A block holds 3 float64s an entry (its stack and
    |.|) but counts 1: counting 3 saved 1.9 MiB at L = 64 but ran 4-8%
    slower there and a fifth slower at L = 128.  Also fits the decay
    exponent of the envelope sup_z |V_Psi sigma(z, .)| with the shared
    binning machinery.  An envelope that overflows raises ModelError.
    """
    L = sigma.config.L
    if L > SYMBOL_CLASS_MAX_L:
        raise SizeError(f"symbol_class_norm capped at L = {SYMBOL_CLASS_MAX_L}")
    g = periodized_gaussian(sigma.config).values
    Psi = np.outer(g, g) if window2d is None else window2d.values
    if np.linalg.norm(Psi) == 0:
        raise ModelError("zero 2d window")
    # translates[r, c, i, j] = conj(Psi)[(i + r) % L, (j + c) % L], the
    # translate of conj(Psi) by z = (-r, -c) mod L
    translates = np.lib.stride_tricks.sliding_window_view(
        np.tile(np.conj(Psi), (2, 2))[:-1, :-1], (L, L))
    env = np.zeros((L, L))
    bufs, lock = {}, threading.Lock()        # thread -> stack buffer

    def fold_block(block):
        win = translates[block]              # block = (z1, slice of z2)
        out = _thread_buffer(bufs, win.size, complex).reshape(win.shape)
        with np.errstate(over="ignore", invalid="ignore"):     # env is checked below
            np.multiply(sigma.values, win, out=out)
            np.fft.fft(out, axis=2, out=out)       # fft2 over (1, 2), in place
            np.fft.fft(out, axis=1, out=out)
            m = np.abs(out).max(axis=0)
            with lock:
                np.maximum(env, m, out=env)

    map_blocks(fold_block, [(z1, z2) for z1 in range(L) for z2 in _row_blocks(L, L * L)])
    if not np.isfinite(env).all():
        raise ModelError("the short-time Fourier transform of the symbol overflows")
    zw = wrap_half(np.arange(L), L)
    dist = np.sqrt(1.0 + zw[:, None] ** 2 + zw[None, :] ** 2)
    with np.errstate(over="ignore"):                # inf fails the pass flag
        norm = float((env * dist ** s).max())
    bins, s_sym, _, _ = envelope_fit(dist, env)
    return SymbolClassReport(norm=norm, envelope=env, s_sym=s_sym, bins=bins)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _distinct_texts(values: np.ndarray, end: str) -> tuple:
    """(texts, at): repr(v) + end once for each distinct float v of values,
    and the index into texts of each entry, in the shape of values.

    The floats are told apart by their bits, so 0.0 and -0.0 keep their own
    texts, where float equality would merge them.
    """
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(np.float64).tolist()
    del bits
    texts = np.fromiter((repr(v) + end for v in floats), dtype=object, count=len(floats))
    return texts, at.reshape(values.shape)


def gabor_matrix_to_csv(K: GaborMatrix, path) -> None:
    """Write rows (mu_k, mu_m, lam_k, lam_m, re, im) in lattice order.

    The bytes are those of csv.writer (\r\n line ends) with the floats
    written as repr.  The rows go out in the blocks of whole mu rows of
    _row_blocks, and repr runs once per distinct float of a block and part
    (real or imaginary): the Gabor matrix of a metaplectic word repeats its
    floats bit for bit, often rows apart.  The blocks are sized at 4
    float64s an entry, what np.unique's sort and the indices of a block
    hold; its texts add up to about 150 bytes an entry where no float
    repeats, but smaller blocks would repr a word's repeated floats once
    per block.  Each file row is one join of its four fields; a block's
    texts are released before the next block's are formed.
    """
    pts = [f"{k},{m}," for k, m in K.lattice.points().tolist()]
    N = len(pts)
    line = [""] * (4 * N)           # mu, lam, re and im of each entry of a row
    line[1::4] = pts
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for rows in _row_blocks(N, 4 * N):
            block = K.entries[rows]
            re, re_at = _distinct_texts(block.real, ",")
            im, im_at = _distinct_texts(block.imag, "\r\n")
            for mu, r, i in zip(pts[rows], re_at, im_at):
                line[0::4] = [mu] * N
                line[2::4] = re[r]
                line[3::4] = im[i]
                fh.write("".join(line))
            del re, re_at, im, im_at


def gabor_matrix_from_csv(path, frame: GaborFrame) -> GaborMatrix:
    """Read the layout written by gabor_matrix_to_csv back over a frame.

    Rows may come in any order; a lattice point given twice keeps its last
    row and one never given stays 0.  A row that names a point off the
    lattice, holds a non-numeric field or has other than six columns raises
    ModelError.  The file is parsed CSV_CHUNK_LINES lines at a time
    (np.loadtxt of a slice of the open file), and each chunk is checked and
    written into K before the next is read, so no array of all the rows is
    formed.
    """
    lat = frame.lattice
    L = frame.config.L
    steps = np.array([lat.a, lat.b, lat.a, lat.b])
    K = np.zeros((lat.size, lat.size), dtype=complex)
    start = 0                     # the data rows of the chunks before
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header != CSV_HEADER:
            raise ModelError("unrecognized Gabor-matrix CSV header")
        # a chunk is the next line and the lines after it, so the loop ends
        # with the file (a chunk of blank lines alone parses to no rows)
        for first in fh:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)   # no rows
                    rows = np.loadtxt(itertools.chain([first], itertools.islice(
                        fh, CSV_CHUNK_LINES - 1)), delimiter=",", ndmin=2)
            except ValueError as exc:
                # numpy numbers the rows from the chunk's first line
                within = f" (in the lines after data row {start})" if start else ""
                raise ModelError(f"malformed Gabor-matrix CSV row: {exc}{within}") from None
            if rows.size == 0:
                continue
            if rows.shape[1] != len(CSV_HEADER):
                raise ModelError(f"Gabor-matrix CSV rows have {rows.shape[1]} columns, "
                                 f"want {len(CSV_HEADER)}")
            coords = rows[:, :4]
            inside = (coords >= 0) & (coords < L)
            on_lattice = inside & (np.fmod(np.where(inside, coords, 0.0), steps) == 0)
            if not on_lattice.all():
                r = int(np.flatnonzero(~on_lattice.all(axis=1))[0])
                raise ModelError(f"Gabor-matrix CSV data row {start + r + 1} names a point "
                                 f"off the {lat.a} x {lat.b} lattice: {rows[r, :4].tolist()}")
            # lattice point (j a, k b) has index j n_freq + k (time-major order)
            index = (coords[:, 0::2] // lat.a * lat.n_freq
                     + coords[:, 1::2] // lat.b).astype(np.intp)
            K[index[:, 0], index[:, 1]] = rows[:, 4] + 1j * rows[:, 5]
            start += len(rows)
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
