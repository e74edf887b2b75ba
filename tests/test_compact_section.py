"""The radial bump section: its horocycle integrals against the
per-pair quadrature oracle, and the left equivariance that the batched
route rests on."""

import numpy as np
import pytest

from hyperform import BundleSpec, bump_section, haar_sample_K
from hyperform.extrep import chirality_matrix, tau_matrix
from hyperform.liegroup import at_mats, embed_rotation
from hyperform.transforms import radon_batch

from oracles import radon_pairs

SPECS = [BundleSpec(3, 1), BundleSpec(4, 1), BundleSpec(4, 2, "plus"),
         BundleSpec(4, 2, "minus")]


def _complex_v0(spec, rng):
    v = rng.normal(size=spec.dim_full) + 1j * rng.normal(size=spec.dim_full)
    if spec.chirality != "none":
        v = chirality_matrix(spec.n, spec.chirality) @ v
    return v


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.n}-{s.p}-{s.chirality}")
def test_radon_batch_matches_per_pair_quadrature(spec, rng):
    r = 1.3
    f = bump_section(spec, r, v0=_complex_v0(spec, rng))
    ks = haar_sample_K(spec.n, size=3, rng=rng)
    # radii inside the support, on its edge and outside it
    ts = np.array([-1.6, -0.8, 0.0, 0.5, 1.1, r, 1.9])
    grid = 8 if spec.n == 4 else 16
    got = radon_batch(f, ts, ks, grid=grid)
    want = radon_pairs(f, ts, ks, grid)
    assert np.all(got[:, np.abs(ts) >= r] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # left equivariance: f(k g) is the bump with fiber vector tau(k)^T v0
    gs = (embed_rotation(haar_sample_K(spec.n, size=6, rng=rng))
          @ at_mats(rng.uniform(0.0, 1.5, 6), spec.n)
          @ embed_rotation(haar_sample_K(spec.n, size=6, rng=rng)))
    for k in ks:
        moved = bump_section(spec, r, v0=tau_matrix(k, spec.p).T @ f.v0)
        lhs = f.eval_batch(embed_rotation(k) @ gs)
        rhs = moved.eval_batch(gs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(np.max(np.abs(rhs)), 1e-300)
