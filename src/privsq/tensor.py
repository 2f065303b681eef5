"""Core linear algebra over labeled tensor-product spaces.

Density operators, pure-state vectors, and isometries carry a
:class:`~privsq.layout.SystemLayout`; all reductions and permutations are
label-driven.  The public constructors validate; operations build their
results, valid by construction, from validated values without validating
again.  Everything here is a pure function of its inputs, values are
immutable after construction, and randomness enters only through explicit
integer seeds or a caller's generator (PCG64, see :func:`haar_unitary`).
Values that carry arrays, here and elsewhere, compare and hash by identity.

Conventions
-----------
* Flat indices are row-major over the listed system order (first system
  most significant).
* Eigenvalues in ``(-1e-12, 1e-12)`` are treated as zero for ranks and
  entropies; ``0 * log 0 = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .layout import LayoutError, SystemLayout, as_labels

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-10
EIG_CLIP = 1e-12


def _unchecked(target, *values):
    """``target`` (an instance under construction, or a frozen dataclass to
    instantiate without its ``__init__``) with its fields set to ``values``
    in declaration order, arrays (also those in a tuple) made read-only in
    place; nothing is checked."""
    obj = object.__new__(target) if isinstance(target, type) else target
    for field, value in zip(fields(obj), values, strict=True):
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        object.__setattr__(obj, field.name, value)
    return obj


def _finite(values, what: str, dtype: type = complex) -> np.ndarray:
    """``values`` as a new array; refuses NaN and infinite entries, which
    every tolerance comparison after this one would let through."""
    arr = np.array(values, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite entries (NaN or infinity)")
    return arr


# ---------------------------------------------------------------------------
# raw-matrix cores, shared by the typed operations and the entropy module
# ---------------------------------------------------------------------------

def reduce_matrix(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix over the systems not in ``keep``.

    ``dims`` are the subsystem dimensions in order; ``keep`` are positions
    (any order, duplicates ignored), and the kept systems retain their
    original relative order in the output.
    """
    n = len(dims)
    keep_sorted = sorted(set(keep))
    traced = [i for i in range(n) if i not in keep_sorted]
    t = mat.reshape(tuple(dims) * 2)
    for j, pos in enumerate(traced):
        cur = n - j
        t = np.trace(t, axis1=pos - j, axis2=pos - j + cur)
    d_keep = int(np.prod([dims[i] for i in keep_sorted])) if keep_sorted else 1
    return t.reshape(d_keep, d_keep)


def permute_matrix(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the subsystems of a square matrix; ``perm[i]`` is the old
    position of the system that ends up at position ``i``."""
    n = len(dims)
    t = mat.reshape(tuple(dims) * 2)
    axes = tuple(perm) + tuple(p + n for p in perm)
    d = int(np.prod(dims))
    return np.ascontiguousarray(t.transpose(axes)).reshape(d, d)


def entropy_bits(mat: np.ndarray) -> float:
    """Von Neumann entropy in bits of a (nearly) PSD Hermitian matrix."""
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    w = w[w > EIG_CLIP]
    if w.size == 0:
        return 0.0
    return float(-(w @ np.log2(w)))


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Spectral square root; eigenvalues below the clip threshold are
    treated as zero so that square roots do not amplify rank-deficiency
    noise."""
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    w = np.where(w > EIG_CLIP, w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix together with the layout of its subsystems.

    Construction validates finite entries, hermiticity (max entry deviation
    ``1e-10``), unit trace (``1e-10``), and positivity (min eigenvalue
    ``>= -1e-10``).
    """

    layout: SystemLayout
    matrix: np.ndarray

    def __init__(self, matrix: np.ndarray, layout: SystemLayout):
        mat = _finite(matrix, "density matrix")
        d = layout.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match layout dimension {d}")
        herm = np.abs(mat - mat.conj().T).max() if d else 0.0
        if herm > TOL_HERM:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {herm:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"matrix trace {tr:.12g} is not 1 within {TOL_TRACE}")
        wmin = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
        if wmin < -TOL_PSD:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {wmin:.3e}")
        _unchecked(self, layout, mat)

    @property
    def dim(self) -> int:
        return self.layout.total_dim


@dataclass(frozen=True, eq=False)
class PureStateVector:
    """A unit vector on a labeled tensor-product space."""

    layout: SystemLayout
    amplitudes: np.ndarray

    def __init__(self, amplitudes: np.ndarray, layout: SystemLayout):
        amp = _finite(amplitudes, "state vector").reshape(-1)
        if amp.shape != (layout.total_dim,):
            raise ValueError(
                f"amplitude length {amp.shape[0]} does not match layout dimension {layout.total_dim}"
            )
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state vector norm {nrm:.12g} is not 1 within 1e-10")
        _unchecked(self, layout, amp)

    def density(self) -> DensityOperator:
        amp = self.amplitudes
        return _unchecked(DensityOperator, self.layout, np.outer(amp, amp.conj()))


@dataclass(frozen=True, eq=False)
class Isometry:
    """A matrix ``V`` with ``V^dag V = I`` mapping one labeled space to another.

    Rows index the output space, columns the input space.
    """

    input_layout: SystemLayout
    output_layout: SystemLayout
    matrix: np.ndarray

    def __init__(self, matrix: np.ndarray, input_layout: SystemLayout, output_layout: SystemLayout):
        mat = _finite(matrix, "isometry")
        shape = (output_layout.total_dim, input_layout.total_dim)
        if mat.shape != shape:
            raise ValueError(f"isometry shape {mat.shape} does not match layouts {shape}")
        dev = np.abs(mat.conj().T @ mat - np.eye(shape[1])).max()
        if dev > 1e-10:
            raise ValueError(f"V^dag V deviates from identity by {dev:.3e}")
        _unchecked(self, input_layout, output_layout, mat)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def kron(a, b):
    """Kronecker product under the row-major index convention.

    Accepts two :class:`DensityOperator`, two :class:`PureStateVector`, or
    two plain arrays; labeled inputs concatenate their layouts (labels must
    not collide).
    """
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return _unchecked(DensityOperator, a.layout.concat(b.layout), np.kron(a.matrix, b.matrix))
    if isinstance(a, PureStateVector) and isinstance(b, PureStateVector):
        amp = np.kron(a.amplitudes, b.amplitudes)
        return _unchecked(PureStateVector, a.layout.concat(b.layout), amp)
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(rho: DensityOperator, keep: str | Iterable[str]) -> DensityOperator:
    """Reduced operator on ``keep`` (kept systems stay in their original order)."""
    keep = as_labels(keep)
    if not keep:
        raise LayoutError("keep must name at least one system")
    pos = rho.layout.positions(keep)
    mat = reduce_matrix(rho.matrix, rho.layout.dims, pos)
    return _unchecked(DensityOperator, rho.layout.sublayout(keep), mat)


def permute_systems(rho: DensityOperator, order: Iterable[str]) -> DensityOperator:
    """The same operator re-expressed with its systems listed in ``order``."""
    order = as_labels(order)
    if sorted(order) != sorted(rho.layout.labels):
        raise LayoutError(f"{order} is not a permutation of {rho.layout.labels}")
    perm = [rho.layout.position(lbl) for lbl in order]
    mat = permute_matrix(rho.matrix, rho.layout.dims, perm)
    return _unchecked(DensityOperator, SystemLayout(rho.layout.systems[p] for p in perm), mat)


def eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized as ``(M + M^dag)/2`` first to absorb
    floating-point drift; returns ``(w, U)`` with ``U diag(w) U^dag``
    reconstructing the input.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if np.abs(mat - mat.conj().T).max() > TOL_HERM:
        raise ValueError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigh((mat + mat.conj().T) / 2)


def purification_matrix(mat: np.ndarray, d_ref: int | None = None) -> np.ndarray:
    """Canonical purification amplitudes as a ``(d_ref, d)`` matrix.

    Row ``r`` is ``sqrt(lambda_r) v_r`` with eigenvalues taken in descending
    order and values below ``1e-12`` dropped.  With ``d_ref=None`` the row
    count equals the rank; otherwise rows of zeros pad up to ``d_ref``.
    A stack ``(..., d, d)`` is purified with one ``eigh`` into ``(...,
    d_ref, d)``; there ``d_ref=None`` means the largest rank in the stack,
    and a matrix of lower rank is padded with rows of zeros.
    """
    w, v = np.linalg.eigh((mat + mat.conj().swapaxes(-1, -2)) / 2)
    order = np.argsort(w, axis=-1)[..., ::-1]
    w = np.take_along_axis(w, order, -1)
    v = np.take_along_axis(v, order[..., None, :], -1)
    kept = w > EIG_CLIP
    rank = int(kept.sum(-1).max())
    if d_ref is None:
        d_ref = rank
    if rank > d_ref:
        raise ValueError(f"reference dimension {d_ref} is below the state rank {rank}")
    out = np.zeros(mat.shape[:-2] + (d_ref, mat.shape[-1]), dtype=complex)
    out[..., :rank, :] = (np.sqrt(np.where(kept, w, 0.0))[..., :rank, None]
                          * v.swapaxes(-1, -2)[..., :rank, :])
    return out


def purify(rho: DensityOperator, ref_label: str = "R") -> PureStateVector:
    """Canonical purification of ``rho`` on ``ref_label (x) original systems``.

    The reference dimension equals the rank (eigenvalues above ``1e-12``);
    tracing out the reference recovers ``rho``.
    """
    if ref_label in rho.layout.labels:
        raise LayoutError(f"reference label {ref_label!r} collides with the state's systems")
    m = purification_matrix(rho.matrix)
    layout = SystemLayout(((ref_label, m.shape[0]),)).concat(rho.layout)
    return _unchecked(PureStateVector, layout, m.reshape(-1))


def apply_stinespring(
    rho: DensityOperator,
    v: Isometry,
    acting: str | Iterable[str],
    discard: str | Iterable[str] = (),
) -> DensityOperator:
    """Apply ``V . V^dag`` on the ``acting`` systems, then trace out ``discard``.

    ``acting`` binds positionally to the isometry's input systems (dims must
    match).  The output layout lists the isometry's output systems first,
    followed by the untouched systems in their original order; ``discard``
    may name any systems of that layout (another label raises LayoutError).
    """
    acting = as_labels(acting)
    if len(set(acting)) != len(acting):
        raise LayoutError(f"duplicate acting labels {acting}")
    in_dims = v.input_layout.dims
    if len(acting) != len(in_dims):
        raise ValueError(
            f"{len(acting)} acting systems bound to an isometry with {len(in_dims)} inputs"
        )
    for lbl, d in zip(acting, in_dims):
        if rho.layout.dim_of(lbl) != d:
            raise ValueError(
                f"system {lbl!r} has dimension {rho.layout.dim_of(lbl)}, isometry expects {d}"
            )
    rest = [lbl for lbl in rho.layout.labels if lbl not in acting]
    collide = set(v.output_layout.labels) & set(rest)
    if collide:
        raise LayoutError(f"isometry output labels {sorted(collide)} collide with untouched systems")
    layout = v.output_layout.concat(rho.layout.sublayout(rest)) if rest else v.output_layout
    dropped = layout.positions(discard)  # refuses an unknown label
    if len(dropped) == len(layout.labels):
        raise LayoutError("cannot discard every system")
    ordered = permute_systems(rho, tuple(acting) + tuple(rest))
    d_rest = int(np.prod([rho.layout.dim_of(lbl) for lbl in rest])) if rest else 1
    big = np.kron(v.matrix, np.eye(d_rest))
    out = _unchecked(DensityOperator, layout, big @ ordered.matrix @ big.conj().T)
    if dropped:
        out = partial_trace(out, [lbl for i, lbl in enumerate(layout.labels) if i not in dropped])
    return out


def dephase(rho: DensityOperator, labels: str | Iterable[str]) -> DensityOperator:
    """Projective measurement channel in the standard basis of each labeled
    system: all matrix elements off-diagonal in those indices are zeroed."""
    pos = rho.layout.positions(labels)
    dims = rho.layout.dims
    n = len(dims)
    t = rho.matrix.reshape(tuple(dims) * 2).copy()
    for p in pos:
        shape = [1] * (2 * n)
        shape[p] = dims[p]
        shape[p + n] = dims[p]
        t = t * np.eye(dims[p]).reshape(shape)
    d = rho.layout.total_dim
    return _unchecked(DensityOperator, rho.layout, t.reshape(d, d))


def _seeded_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """The PCG64 generator of an integer seed, or a caller's generator as is.

    Anything else raises ``TypeError``: numpy would draw ``None`` from OS
    entropy, and the sample would not be reproducible; a ``bool``, though an
    ``int`` subclass, is refused as ``OptimizerConfig`` refuses it.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer, np.random.Generator)):
        raise TypeError(f"seed must be an int or a numpy Generator, got {seed!r}")
    return np.random.default_rng(seed)


def haar_unitary(d: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-random ``d x d`` unitary, deterministic in ``seed``.

    Sampled as a complex Ginibre matrix followed by QR with the R-diagonal
    phase correction, which makes the distribution exactly Haar.  The PRNG
    is numpy's PCG64, a named, seedable, cross-platform-stable generator:
    an integer seed starts the stream ``PCG64(seed)``, and a ``Generator``
    is drawn from in place (as in every sampler here); any other seed,
    ``None`` included, raises ``TypeError``.
    """
    if d < 1:
        raise ValueError(f"dimension {d} < 1")
    return _haar_from_normals(_seeded_rng(seed).standard_normal((2, d, d)))


def _haar_from_normals(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals shaped ``(..., 2, d, d)`` (real
    parts, then imaginary parts): the complex Ginibre matrix, its QR, and the
    R-diagonal phase correction, stacked over the leading axes."""
    g = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def random_density(
    layout: SystemLayout, rank: int, seed: int | np.random.Generator
) -> DensityOperator:
    """Random density operator of the requested rank (Ginibre ``G G^dag / Tr``),
    deterministic in ``seed``."""
    d = layout.total_dim
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} out of range 1..{d}")
    return _unchecked(DensityOperator, layout,
                      _ginibre_density(_seeded_rng(seed).standard_normal((2, d, rank))))


def _ginibre_density(z: np.ndarray) -> np.ndarray:
    """``G G^dag / Tr`` from normals shaped ``(..., 2, d, rank)`` (real parts
    of ``G``, then imaginary parts), stacked over the leading axes."""
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    mat = g @ g.conj().swapaxes(-1, -2)
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]


def random_pure(layout: SystemLayout, seed: int | np.random.Generator) -> PureStateVector:
    """Haar-random pure state on the given layout, deterministic in ``seed``."""
    d = layout.total_dim
    rng = _seeded_rng(seed)
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return _unchecked(PureStateVector, layout, amp / np.linalg.norm(amp))


__all__ = [
    "DensityOperator",
    "PureStateVector",
    "Isometry",
    "kron",
    "partial_trace",
    "permute_systems",
    "eigh",
    "purify",
    "purification_matrix",
    "apply_stinespring",
    "dephase",
    "haar_unitary",
    "random_density",
    "random_pure",
    "reduce_matrix",
    "permute_matrix",
    "entropy_bits",
    "psd_sqrt",
]
