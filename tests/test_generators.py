"""Decay-matrix generators, model Hamiltonians and decay-profile extraction."""

import math

import numpy as np
import pytest

from spamm.generators import (
    ModelHamiltonian,
    bin_profile,
    chain_positions,
    decay_profile,
    gen_algebraic,
    gen_exponential,
    gen_model_hamiltonian,
    log_linear_fit,
    write_profile_csv,
)
from spamm.quadtree import from_dense

from conftest import jittered_grid_positions


# ------------------------------------------------------------- exponential

def test_exponential_spot_values():
    a = gen_exponential(512, 1.0).to_dense()
    assert a[0, 0] == 1.0
    assert a[0, 1] == np.exp(-1.0)
    assert a[17, 42] == np.exp(-25.0)


def test_exponential_huge_alpha_is_identity():
    a = gen_exponential(64, 700.0).to_dense()
    # |i-j| = 1 leaves a denormal ~1e-304; everything farther underflows to 0
    assert np.max(np.abs(a - np.eye(64))) <= 1e-300
    assert np.count_nonzero(gen_exponential(64, 800.0).to_dense()) == 64


def test_exponential_matches_formula():
    for n, alpha in ((30, 0.3), (512, 2.0)):
        idx = np.arange(n)
        ref = np.exp(-alpha * np.abs(idx[:, None] - idx[None, :]))
        assert np.array_equal(gen_exponential(n, alpha).to_dense(), ref)


def test_exponential_rejects_bad_alpha():
    for alpha in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            gen_exponential(16, alpha)
    # a size that is not an integer is named; a numpy integer is a size
    for n in (3.5, 4.0, "4"):
        with pytest.raises(ValueError, match="n must be an integer"):
            gen_exponential(n, 1.0)
    assert gen_exponential(np.int64(5), 1.0).logical_dim == 5


# --------------------------------------------------------------- algebraic

def test_algebraic_values():
    a = gen_algebraic(512, 3.0).to_dense()
    assert np.array_equal(np.diag(a), np.zeros(512))
    off = np.abs(np.arange(512)[:, None] - np.arange(512)[None, :]) == 1
    assert np.array_equal(a[off], np.ones(off.sum()))
    assert a[0, 2] == 0.125  # 1 / 2**3


def test_algebraic_n2_any_p():
    for p in (0.5, 1.0, 3.0, 7.0):
        assert np.array_equal(gen_algebraic(2, p).to_dense(),
                              np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_algebraic_rejects_bad_p():
    for p in (0.0, -2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="p must be finite and > 0"):
            gen_algebraic(16, p)
    for n in (2.5, 4.0, "4"):
        with pytest.raises(ValueError, match="n must be an integer"):
            gen_algebraic(n, 1.0)
    assert gen_algebraic(np.int64(5), 1.0).logical_dim == 5


def test_generators_symmetric_bitexact():
    for m in (gen_exponential(100, 0.8), gen_algebraic(100, 3.0)):
        d = m.to_dense()
        assert np.array_equal(d, d.T)


def test_generator_roundtrip_exact():
    g = gen_exponential(75, 1.3)
    d = g.to_dense()
    assert np.array_equal(from_dense(d).to_dense(), d)


# ------------------------------------------------------- model Hamiltonians

def test_gapped_n2_zero_hopping_eigenvalues():
    h = gen_model_hamiltonian(ModelHamiltonian(2, "gapped", gap=2.0, hopping=0.0))
    d = h.to_dense()
    assert np.array_equal(d, np.diag([1.0, -1.0]))
    assert sorted(np.linalg.eigvalsh(d)) == [-1.0, 1.0]


def test_gapless_spectrum_matches_dense_oracle():
    n, t = 256, 1.0
    h = gen_model_hamiltonian(ModelHamiltonian(n, "gapless", hopping=t)).to_dense()
    got = np.sort(np.linalg.eigvalsh(h))
    k = np.arange(1, n + 1)
    ref = np.sort(2.0 * t * np.cos(k * np.pi / (n + 1)))
    assert np.max(np.abs(got - ref)) <= 1e-10


def test_gapped_spectral_gap_near_requested():
    n = 256
    h = gen_model_hamiltonian(ModelHamiltonian(n, "gapped", gap=1.0,
                                               hopping=1.0)).to_dense()
    ev = np.sort(np.linalg.eigvalsh(h))
    gap = ev[n // 2] - ev[n // 2 - 1]
    assert abs(gap - 1.0) <= 0.05


def test_hamiltonian_structure_and_symmetry():
    m = ModelHamiltonian(10, "gapped", gap=0.6, hopping=2.5)
    d = gen_model_hamiltonian(m).to_dense()
    assert np.array_equal(d, d.T)
    assert d[3, 4] == 2.5 and d[4, 3] == 2.5
    assert d[0, 0] == 0.3 and d[1, 1] == -0.3
    assert d[2, 5] == 0.0


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        ModelHamiltonian(1)
    with pytest.raises(ValueError):
        ModelHamiltonian(8, "metallic")
    with pytest.raises(ValueError):
        ModelHamiltonian(8, "gapped", gap=-1.0)
    for kind in ("gapped", "gapless"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="gap must be finite"):
                ModelHamiltonian(8, kind, gap=bad)
            with pytest.raises(ValueError, match="hopping must be finite"):
                ModelHamiltonian(8, kind, hopping=bad)
    for n in (4.5, 4.0, "4"):
        with pytest.raises(ValueError, match="n must be an integer"):
            ModelHamiltonian(n)
    assert gen_model_hamiltonian(ModelHamiltonian(np.int64(6))).logical_dim == 6
    assert ModelHamiltonian(8, "gapless", gap=-1.0).gap == -1.0  # unused there
    assert ModelHamiltonian(8).n_occ == 4  # half filling default


# ------------------------------------------------------------ decay profiles

def test_profile_identity_offdiagonal_zero():
    prof = decay_profile(from_dense(np.eye(64)), chain_positions(16), 4)
    prof = np.asarray(prof)
    off = prof[:, 0] > 0
    assert off.any()
    assert np.all(prof[off, 1] == 0.0)


def test_profile_exponential_monotone_bins():
    prof = decay_profile(gen_exponential(64, 1.0), chain_positions(16), 4)
    centers, gmeans = bin_profile(prof)
    assert len(centers) > 3
    assert np.all(np.diff(gmeans) < 0)


def test_profile_purified_gapped_density_decays(gapped256):
    prof = decay_profile(gapped256["exact"].density, chain_positions(64), 4)
    slope, _, r2 = log_linear_fit(prof)
    assert slope < 0
    assert r2 > 0.9


def test_profile_size_mismatch_rejected():
    with pytest.raises(ValueError):
        decay_profile(from_dense(np.eye(64)), chain_positions(10), 4)


def test_profile_csv_roundtrip(tmp_path):
    prof = decay_profile(gen_exponential(32, 0.9), chain_positions(8), 4)
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "distance,block_norm"
    back = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(back, np.asarray(prof))


def test_bin_profile_excludes_zero_norms():
    prof = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 4.0], [2.0, 9.0]])
    centers, gmeans = bin_profile(prof)
    # the (1, 0) row carries no log-scale information and is dropped
    assert len(centers) == 3
    assert gmeans[1] == 4.0


def test_jittered_grid_deterministic():
    a = jittered_grid_positions(30, seed=7)
    b = jittered_grid_positions(30, seed=7)
    c = jittered_grid_positions(30, seed=8)
    assert np.array_equal(a, b)
    assert a.shape == (30, 3)
    assert not np.array_equal(a, c)
