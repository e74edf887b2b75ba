"""The public refusals of every module, one table: each case names the
call, the exception type it must raise and a fragment of its message,
with warnings as errors."""

import click
import numpy as np
import pytest

import hyperform.extrep as xr
import hyperform.liegroup as lg
import hyperform.specialfn as sf
import hyperform.strichartz as st
import hyperform.transforms as tfm
from hyperform.cli import main
from hyperform.extrep import BundleSpec, FormVector, MLabel, sigma_q
from hyperform.spherical import SpectralPoint


def _pt(lam=1.0):
    return SpectralPoint(BundleSpec(3, 1), sigma_q(1), lam)


def _section(pt):
    atom = tfm.BoundaryAtom(lg.GroupElement(np.eye(4)), FormVector(3, 1, [1.0, 0.0, 0.0]))
    return tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])


def _sampler_section(pt):
    return tfm.BoundarySection.from_sampler(pt, lambda ks: np.zeros((len(ks), 3)), budget=8)


def _decompose(tmp_path, *args, matrix=None):
    if matrix is not None:
        path = tmp_path / "g.txt"
        path.write_text(matrix)
        args = ("--matrix", str(path), *args)
    main.main(["decompose", *args], standalone_mode=False)


_ROT = lg.haar_sample_K(3, rng=np.random.default_rng(5))

CASES = {
    # specialfn
    "hyp2f1_negz_z_positive": (lambda _: sf.hyp2f1_negz(1.0, 1.0, 2.0, 0.5),
                               ValueError, "requires z <= 0"),
    "hyp2f1_negz_c_pole": (lambda _: sf.hyp2f1_negz(1.0, 1.0, -2.0, -0.5),
                           ValueError, "non-positive integer c"),
    "jacobi_alpha_negative_integer": (lambda _: sf.JacobiParams(-2.0, -0.5, 1.0),
                                      ValueError, "is a negative integer"),
    "jacobi_psi_lambda_in_iZ": (lambda _: sf.jacobi_psi(sf.JacobiParams(1.5, -0.5, 2j), 1.0),
                                ValueError, "pole at lambda in i*Z"),
    "jacobi_phi_pair_beta": (lambda _: sf.jacobi_phi_pair(sf.JacobiParams(1.0, 0.0, 1.0), 0.5),
                             ValueError, "requires beta = -1/2"),
    # spherical
    "spectral_point_lambda_near_0": (lambda _: _pt(1e-7), ValueError, "lambda too close to 0"),
    # extrep
    "mlabel_kind": (lambda _: MLabel("r"), ValueError, "unknown MLabel kind"),
    "mlabel_q": (lambda _: MLabel("plus", 1), ValueError, "q must be given exactly"),
    "bundle_n_below_2": (lambda _: BundleSpec(1, 1), ValueError, "need n >= 2"),
    "bundle_chirality": (lambda _: BundleSpec(4, 2, "left"), ValueError, "bad chirality"),
    "form_vector_not_finite": (lambda _: FormVector(3, 1, [1.0, np.nan, 0.0]),
                               ValueError, "non-finite coefficients"),
    "form_vector_spec": (lambda _: FormVector(3, 1, [1.0, 0.0, 0.0], spec=BundleSpec(4, 1)),
                         ValueError, "spec does not match"),
    "form_vector_off_eigenspace": (lambda _: FormVector(4, 2, np.eye(6)[0],
                                                        spec=BundleSpec(4, 2, "plus")),
                                   ValueError, "not in the requested star eigenspace"),
    "tau_vec_batch_length": (lambda _: xr.tau_vec_batch(np.eye(3)[None], 1, np.ones(4)),
                             ValueError, "need vectors of length C(n,p)"),
    # liegroup
    "k_element_not_square": (lambda _: lg.KElement(np.ones((2, 3))),
                             ValueError, "needs a square matrix"),
    "k_element_det_minus_1": (lambda _: lg.KElement(np.diag([1.0, 1.0, -1.0])),
                              ValueError, "determinant -1"),
    "k_element_beyond_repair": (lambda _: lg.KElement(_ROT + 1e-3, mode="repair"),
                                ValueError, "too large to repair"),
    "group_element_time_reversed": (lambda _: lg.GroupElement(np.diag([-1.0, 1.0, 1.0, -1.0])),
                                    ValueError, "time orientation reversed"),
    "ny_mats_y_length": (lambda _: lg.ny_mats(np.zeros(3), 3), ValueError, "y must have length"),
    "iwasawa_translates_both_per_sample": (
        lambda _: lg.iwasawa_translates(np.repeat(np.eye(4)[..., None], 2, axis=-1),
                                        np.repeat(np.eye(3)[..., None], 2, axis=-1)),
        ValueError, "not both"),
    # transforms
    "boundary_atom_vector": (lambda _: tfm.BoundaryAtom(lg.GroupElement(np.eye(4)), np.ones(3)),
                             TypeError, "must be a FormVector"),
    "boundary_section_empty": (lambda _: tfm.BoundarySection(_pt()),
                               ValueError, "exactly one of atoms/sampler"),
    "poisson_mc_no_samples": (lambda _: tfm.poisson_mc(_pt(), _section(_pt()),
                                                       lg.GroupElement(np.eye(4)), 0),
                              ValueError, "positive sample count"),
    # strichartz
    "ball_average_of_a_sampler": (lambda _: st.ball_average_atom(_pt(), _sampler_section(_pt()),
                                                                 2.0),
                                  ValueError, "sampler sections are rejected"),
    "head_ball_average_complex_lambda": (lambda _: st.head_ball_average(_pt(1.0 + 0.5j), 2.0),
                                         ValueError, "requires real lambda"),
    "reconstruction_method": (lambda _: st.inversion_reconstruct(_pt(), _section(_pt()), 2.0,
                                                                 method="exact"),
                              ValueError, "unknown reconstruction method"),
    "bump_transform_no_lambda": (lambda _: st.bump_transform(
        tfm.bump_section(BundleSpec(3, 1), 1.0), []), ValueError, "at least one lambda"),
    "energy_one_window_point": (lambda _: st.spectral_projection_energy(
        tfm.bump_section(BundleSpec(3, 1), 1.0), [1.0], 2.0), ValueError, "two window points"),
    # cli
    "decompose_unparsable_matrix": (lambda tmp: _decompose(tmp, matrix="1 2\nx y\n"),
                                    click.UsageError, "cannot parse matrix file"),
    "decompose_random_without_seed": (lambda tmp: _decompose(tmp, "--random", "--n", "3"),
                                      click.UsageError, "--seed is mandatory"),
    "decompose_not_lorentz": (lambda tmp: _decompose(tmp, matrix="2 0 0 0\n0 2 0 0\n"
                                                                 "0 0 2 0\n0 0 0 2\n"),
                              click.UsageError, "does not preserve the form"),
    "decompose_at_nan": (lambda tmp: _decompose(tmp, "--at", "nan", "--n", "3"),
                         click.UsageError, "--at must be a finite boost"),
    "decompose_at_inf": (lambda tmp: _decompose(tmp, "--at", "inf", "--n", "3"),
                         click.UsageError, "--at must be a finite boost"),
    "decompose_at_minus_inf": (lambda tmp: _decompose(tmp, "--at", "-inf", "--n", "3"),
                               click.UsageError, "--at must be a finite boost"),
    "decompose_at_n_1": (lambda tmp: _decompose(tmp, "--at", "1", "--n", "1"),
                         click.UsageError, "need n >= 2"),
    "decompose_at_n_0": (lambda tmp: _decompose(tmp, "--at", "1", "--n", "0"),
                         click.UsageError, "need n >= 2"),
    "decompose_random_n_1": (lambda tmp: _decompose(tmp, "--random", "--n", "1", "--seed", "1"),
                             click.UsageError, "need n >= 2"),
    "decompose_random_n_0": (lambda tmp: _decompose(tmp, "--random", "--n", "0", "--seed", "1"),
                             click.UsageError, "need n >= 2"),
    "decompose_matrix_too_small": (lambda tmp: _decompose(tmp, matrix="1 0\n0 1\n"),
                                   click.UsageError, "invalid matrix"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", CASES)
def test_public_refusals(case, tmp_path):
    call, exc, fragment = CASES[case]
    with pytest.raises(exc) as info:
        call(tmp_path)
    assert fragment in str(info.value), (case, str(info.value))
