"""Test-matrix generators with prescribed decay, and decay-profile tools.

Two synthetic families exercise the multiply across decay classes:
exponential off-diagonal decay exp(-alpha |i-j|) (insulator-like) and
algebraic decay 1/|i-j|**p (metal-like).  Two 1-D tight-binding model
Hamiltonians stand in for self-consistent-field matrices in the
purification benchmarks: an alternating-on-site chain with a spectral gap,
and a uniform (gapless) chain.

Decay profiles pair every atom-block norm with the distance between its
atoms, the raw material for block-norm-vs-separation plots and for fitting
decay envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadtree import _LEAF_SIZE, from_dense


def _check_n(n):
    """Reject a matrix size that is not an integer (numpy integers pass)."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")


def gen_exponential(n, alpha, leaf_size=_LEAF_SIZE):
    """Quadtree matrix with entries exp(-alpha * |i - j|); n an integer,
    alpha > 0 and finite."""
    _check_n(n)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    return from_dense(np.exp(-alpha * dist), leaf_size=leaf_size)


def gen_algebraic(n, p, leaf_size=_LEAF_SIZE):
    """Quadtree matrix with entries 1/|i - j|**p off the diagonal, 0 on it;
    n an integer, p > 0 and finite."""
    _check_n(n)
    if not math.isfinite(p) or p <= 0:
        raise ValueError(f"p must be finite and > 0, got {p}")
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    out = np.zeros((n, n))
    off = dist > 0
    out[off] = dist[off] ** (-float(p))
    return from_dense(out, leaf_size=leaf_size)


@dataclass
class ModelHamiltonian:
    """Parameters of a 1-D tight-binding chain.

    kind
        "gapped": alternating on-site energies +gap/2, -gap/2 with
        nearest-neighbour hopping, spectral gap ~ ``gap`` at half filling.
        "gapless": uniform chain (zero on-site), eigenvalues
        2 * hopping * cos(m pi / (n + 1)).
    """

    n: int
    kind: str = "gapped"
    gap: float = 1.0
    hopping: float = 1.0

    def __post_init__(self):
        _check_n(self.n)
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.kind not in ("gapped", "gapless"):
            raise ValueError(f"kind must be 'gapped' or 'gapless', got {self.kind!r}")
        if not math.isfinite(self.gap) or (self.kind == "gapped" and self.gap <= 0):
            raise ValueError(f"gap must be finite, and > 0 when gapped, got {self.gap}")
        if not math.isfinite(self.hopping):
            raise ValueError(f"hopping must be finite, got {self.hopping}")

    @property
    def n_occ(self):
        """Occupation count for purification: half filling."""
        return self.n // 2


def gen_model_hamiltonian(model, leaf_size=_LEAF_SIZE):
    """Dense tight-binding Hamiltonian of ``model`` as a quadtree matrix."""
    n = model.n
    h = np.zeros((n, n))
    rng_i = np.arange(n - 1)
    h[rng_i, rng_i + 1] = model.hopping
    h[rng_i + 1, rng_i] = model.hopping
    if model.kind == "gapped":
        sites = np.arange(n)
        h[sites, sites] = np.where(sites % 2 == 0, 0.5 * model.gap,
                                   -0.5 * model.gap)
    return from_dense(h, leaf_size=leaf_size)


# -- geometries ---------------------------------------------------------------

def chain_positions(count):
    """Unit-spaced 1-D chain along x (a nanotube-like geometry)."""
    pts = np.zeros((count, 3))
    pts[:, 0] = np.arange(count)
    return pts


# -- decay profiles -----------------------------------------------------------

def decay_profile(m, positions, block_size):
    """Pair every atom-block norm with its atom separation.

    Partitions the logical matrix into block_size x block_size atom blocks
    (positions count x block_size must equal logical_dim) and emits one row
    (|r_a - r_b|, ||m_ab||_F) for every ordered block pair, as an (M, 2)
    array.
    """
    pts = np.asarray(positions, dtype=np.float64)
    count = pts.shape[0]
    if count * block_size != m.logical_dim:
        raise ValueError(
            f"{count} atoms x block {block_size} != matrix dim {m.logical_dim}")
    dense = m.to_dense()
    blocks = dense.reshape(count, block_size, count, block_size).swapaxes(1, 2)
    norms = np.sqrt((blocks ** 2).sum(axis=(2, 3)))
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return np.column_stack([dists.ravel(), norms.ravel()])


def bin_profile(profile):
    """Geometric mean of block norms per distance bin.

    Bins are 0.5 wide; zero norms are excluded (they carry no information
    on a log scale) and empty bins are dropped.  Returns
    (bin_centers, geometric_means).
    """
    width = 0.5
    dist, norm = np.asarray(profile).T
    keep = norm > 0
    dist, norm = dist[keep], norm[keep]
    which = np.floor(dist / width).astype(np.int64)
    centers, means = [], []
    for b in np.unique(which):
        sel = which == b
        centers.append((b + 0.5) * width)
        means.append(np.exp(np.log(norm[sel]).mean()))
    return np.array(centers), np.array(means)


def log_linear_fit(profile):
    """Least-squares line through (distance, log norm) on data binned by
    ``bin_profile``.

    Returns (slope, intercept, r_squared); a clearly negative slope with
    r_squared near 1 certifies an exponential decay envelope
    norm <= C * exp(slope * distance).
    """
    centers, means = bin_profile(profile)
    if centers.size < 2:
        raise ValueError("need at least two populated bins to fit")
    logs = np.log(means)
    slope, intercept = np.polyfit(centers, logs, 1)
    fitted = slope * centers + intercept
    ss_res = float(((logs - fitted) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def write_profile_csv(profile, path):
    """Write a decay profile as CSV with header ``distance,block_norm``."""
    with open(path, "w") as fh:
        fh.write("distance,block_norm\n")
        for d, v in np.asarray(profile):
            fh.write(f"{d:.17g},{v:.17g}\n")
