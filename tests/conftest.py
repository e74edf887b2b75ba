"""Shared fixtures: the representative bundle/label combinations used
throughout the suite, a seeded RNG factory, the bump's spherical
transform and squared norm by one strichartz.bump_transform, and the
loader of the repository's tools."""

import importlib.util
import os
from pathlib import Path

# one BLAS thread unless the caller chose otherwise, set before NumPy loads
# its BLAS: a suite that shares its cores with another process ran one
# n = 8 test in 120 s instead of 2 s with the default thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from hyperform import BundleSpec, SpectralPoint, sigma_q, SIGMA_PLUS, SIGMA_MINUS
from hyperform.strichartz import bump_transform


def case_points(lam=1.0):
    """One spectral point per (case type, sigma label):

    generic (n=6, p=2, sigma q:1 and q:2), half-odd (n=5, p=2, sigma
    q:1, plus, minus), half-even (n=4, p=2, chirality +/-, sigma q:2).
    """
    out = []
    g = BundleSpec(6, 2)
    out += [SpectralPoint(g, sigma_q(1), lam), SpectralPoint(g, sigma_q(2), lam)]
    h = BundleSpec(5, 2)
    out += [
        SpectralPoint(h, sigma_q(1), lam),
        SpectralPoint(h, SIGMA_PLUS, lam),
        SpectralPoint(h, SIGMA_MINUS, lam),
    ]
    for chir in ("plus", "minus"):
        out.append(SpectralPoint(BundleSpec(4, 2, chir), sigma_q(2), lam))
    return out


def kernel_points(lam=1.0):
    """One spectral point per bundle shape of the tau-radial kernel:
    half-odd n=3 (sigma plus, minus), chirality n=4, half-odd n=5
    (sigma plus), generic n=6 (sigma q:1, q:2), and n=8, p=3 (C = 56)."""
    return [
        SpectralPoint(BundleSpec(3, 1), SIGMA_PLUS, lam),
        SpectralPoint(BundleSpec(3, 1), SIGMA_MINUS, lam),
        SpectralPoint(BundleSpec(4, 2, "plus"), sigma_q(2), lam),
        SpectralPoint(BundleSpec(5, 2), SIGMA_PLUS, lam),
        SpectralPoint(BundleSpec(6, 2), sigma_q(1), lam),
        SpectralPoint(BundleSpec(6, 2), sigma_q(2), lam),
        SpectralPoint(BundleSpec(8, 3), sigma_q(3), lam),
    ]


def bump_coefficient(f, pt):
    """b_sigma(lambda) of the bump f at pt's real lambda, with F f(lambda, k) =
    b_sigma(lambda) P_sigma tau(k)^T v0 (1e-10 of its absolute scale S)."""
    return float(bump_transform(f, [pt.lam_real], sigmas=[pt.sigma])[0][0, 0])


def bump_norm2(f):
    """||f||^2 of the bump f (lambda 0 sets the sweep's panels only)."""
    return bump_transform(f, [0.0], sigmas=())[1]


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def load_tool(name):
    """The module tools/<name>.py, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
