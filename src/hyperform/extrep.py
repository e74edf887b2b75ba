"""The representation of SO(n) on complex p-forms and its SO(n-1) branching.

Lambda^p C^n carries the p-th exterior power tau_p of the standard
representation; basis p-subsets of {1..n} are kept in colexicographic
order, which for bitmask encodings is plain ascending integer order, so
subset rank/unrank is O(1).  M = SO(n-1) is embedded as the stabilizer
of e_1.  Restricted to M,

    Lambda^p C^n  =  e_1 ^ Lambda^(p-1) C^(n-1)  (+)  Lambda^p C^(n-1)

which is the multiplicity-free branching sigma_(p-1) (+) sigma_p for
p < (n-1)/2.  At p = (n-1)/2 (n odd) the second summand is the middle
degree of C^(n-1) and splits further into the +-/- eigenspaces of the
induced Hodge star; at p = n/2 (n even) tau_p itself splits into the
+-/- eigenspaces of the ambient star with eigenvalues +-1 (n/2 even)
or +-i (n/2 odd).

The sigma projectors are realized as orthogonal idempotents inside
Lambda^p C^n rather than as maps onto separate coordinate spaces; for
the split cases they are built from the star-times-wedge operator and
passed through an eigenvalue cleanup that enforces exact idempotence
and self-adjointness in floating point.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .liegroup import KElement

__all__ = [
    "BundleSpec",
    "MLabel",
    "FormVector",
    "sigma_q",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "tau_matrix",
    "tau_matrix_batch",
    "tau_apply",
    "hodge_star",
    "hodge_matrix",
    "wedge_e1",
    "contract_e1",
    "wedge_e1_matrix",
    "contract_e1_matrix",
    "project_M",
    "proj_matrix",
    "dims",
    "branching",
]


# ---------------------------------------------------------------------------
# labels and specs


@dataclass(frozen=True)
class MLabel:
    """A label in the unitary dual of M = SO(n-1) relevant to p-forms.

    kind "q" is sigma_q on Lambda^q C^(n-1); "plus"/"minus" are the two
    halves of the middle-degree sigma_p when p = (n-1)/2.
    """

    kind: str
    q: int | None = None

    def __post_init__(self):
        if self.kind not in ("q", "plus", "minus"):
            raise ValueError(f"unknown MLabel kind {self.kind!r}")
        if (self.kind == "q") != (self.q is not None):
            raise ValueError("q must be given exactly for kind 'q'")

    def __str__(self):
        return f"q:{self.q}" if self.kind == "q" else self.kind

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text in ("plus", "minus"):
            return cls(text)
        if text.startswith("q:"):
            return cls("q", int(text[2:]))
        raise ValueError(f"cannot parse MLabel from {text!r}")


def sigma_q(q):
    return MLabel("q", q)


SIGMA_PLUS = MLabel("plus")
SIGMA_MINUS = MLabel("minus")


@dataclass(frozen=True)
class BundleSpec:
    """Form degree bundle over H^n(R): degree p with optional chirality.

    chirality "plus"/"minus" selects a Hodge-star eigenspace and is
    only meaningful for n even, p = n/2.
    """

    n: int
    p: int
    chirality: str = "none"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not (1 <= self.p <= self.n // 2):
            raise ValueError(f"need 1 <= p <= n/2, got p={self.p}, n={self.n}")
        if self.chirality not in ("none", "plus", "minus"):
            raise ValueError(f"bad chirality {self.chirality!r}")
        if self.chirality != "none" and not (self.n % 2 == 0 and self.p == self.n // 2):
            raise ValueError("chirality requires n even and p = n/2")
        if self.chirality == "none" and self.n % 2 == 0 and self.p == self.n // 2:
            raise ValueError("p = n/2 with n even requires a chirality choice")

    @property
    def case(self):
        if 2 * self.p == self.n:
            return "half_even"
        if 2 * self.p == self.n - 1:
            return "half_odd"
        return "generic"

    @property
    def dim_tau(self):
        d = comb(self.n, self.p)
        return d // 2 if self.chirality != "none" else d

    @property
    def dim_full(self):
        """Dimension of the ambient Lambda^p coordinate space."""
        return comb(self.n, self.p)


class FormVector:
    """A complex vector of p-form coefficients over the colex basis.

    Carries (n, degree); the optional BundleSpec marks vectors that are
    fiber values of the bundle (degree = spec.p) and triggers the
    chirality membership check.  Vectors of chirality specs are stored
    in full Lambda^(n/2) coordinates, constrained to the eigenspace.
    """

    __slots__ = ("n", "degree", "coeffs", "spec")

    def __init__(self, n, degree, coeffs, spec=None):
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if coeffs.size != comb(n, degree):
            raise ValueError(
                f"expected {comb(n, degree)} coefficients for (n={n}, p={degree}), "
                f"got {coeffs.size}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite coefficients")
        if spec is not None:
            if (spec.n, spec.p) != (n, degree):
                raise ValueError("spec does not match (n, degree)")
            if spec.chirality != "none":
                proj = chirality_matrix(spec.n, spec.chirality)
                nrm = np.linalg.norm(coeffs)
                if nrm > 0 and np.linalg.norm(proj @ coeffs - coeffs) > 1e-10 * nrm:
                    raise ValueError("vector is not in the requested star eigenspace")
        self.n = n
        self.degree = degree
        self.coeffs = coeffs
        self.spec = spec

    @classmethod
    def of(cls, spec, coeffs):
        return cls(spec.n, spec.p, coeffs, spec=spec)

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def __repr__(self):
        return f"FormVector(n={self.n}, p={self.degree})"


# ---------------------------------------------------------------------------
# basis bookkeeping


@lru_cache(maxsize=None)
def _basis(n, p):
    """(masks, elements) of the colex-ordered p-subsets of {0..n-1}.

    masks is an int array in ascending order (== colex order on
    subsets); elements is the (C(n,p), p) array of sorted members.
    """
    subs = sorted(combinations(range(n), p), key=lambda s: s[::-1])
    masks = np.array([sum(1 << i for i in s) for s in subs], dtype=np.int64)
    elems = np.array(subs, dtype=np.int64).reshape(len(subs), p)
    return masks, elems


@lru_cache(maxsize=None)
def _rank_table(n, p):
    masks, _ = _basis(n, p)
    return {int(m): i for i, m in enumerate(masks)}


# ---------------------------------------------------------------------------
# tau matrices


@lru_cache(maxsize=None)
def _laplace_tables(n, q):
    """Index tables of the first-row Laplace expansion of the q x q
    minors u[I, J] over the colex basis: the first row i_0 of each I,
    the rank of I minus i_0 among the (q-1)-subsets, the k-th column j_k
    of each J, and the rank of J minus j_k (whose k = 0 column is the
    second table)."""
    masks, elems = _basis(n, q)
    rank_dn = _rank_table(n, q - 1)
    drop = np.array([[rank_dn[int(m) ^ (1 << int(j))] for j in row]
                     for m, row in zip(masks, elems)]).reshape(elems.shape)
    return elems[:, 0], drop[:, 0], elems, drop


def tau_matrix(u, p):
    """Matrix of Lambda^p(u) over the colex basis: p x p minors of u."""
    return tau_matrix_batch(np.asarray(u, dtype=float)[None], p)[0]


def tau_matrix_batch(us, p):
    """Lambda^p(u) for stacked matrices (..., n, n): the p x p minors
    u[I, J] over the colex basis.

    Built degree by degree from Lambda^1(u) = u by the Laplace expansion
    along the first row of each minor,

        det u[I, J] = sum_k (-1)^k u[i_0, j_k] det u[I - i_0, J - j_k],

    whose (q-1)-minors are entries of Lambda^(q-1)(u); one gather per
    column k over precomputed index tables, O(q C(n,q)^2) per matrix.
    """
    us = np.asarray(us, dtype=float)
    n = us.shape[-1]
    if p == 0:
        return np.ones(us.shape[:-2] + (1, 1))
    out = us.copy()
    for q in range(2, p + 1):
        first, rest, cols, drop = _laplace_tables(n, q)
        prev = out
        for k in range(q):
            # in place, so at most three (..., C(n,q), C(n,q)) arrays live
            term = us[..., first[:, None], cols[None, :, k]]
            term *= prev[..., rest[:, None], drop[None, :, k]]
            if k == 0:
                out = term
            elif k % 2:
                out -= term
            else:
                out += term
    return out


def tau_apply(k, xi):
    """Apply Lambda^p(k) to a form vector."""
    u = k.mat if isinstance(k, KElement) else np.asarray(k, dtype=float)
    if u.shape[-1] != xi.n:
        raise ValueError(f"dimension mismatch: k is SO({u.shape[-1]}), form has n={xi.n}")
    mat = tau_matrix(u, xi.degree)
    return FormVector(xi.n, xi.degree, mat @ xi.coeffs, spec=xi.spec)


# ---------------------------------------------------------------------------
# Hodge star, wedge and contraction by e_1


@lru_cache(maxsize=None)
def hodge_matrix(n, p):
    """Matrix of the Hodge star Lambda^p -> Lambda^(n-p), orientation
    e_1 ^ ... ^ e_n:  star e_I = sgn(I, I^c) e_{I^c}."""
    masks, elems = _basis(n, p)
    rank_c = _rank_table(n, n - p)
    full = (1 << n) - 1
    out = np.zeros((comb(n, n - p), comb(n, p)))
    for j, (m, members) in enumerate(zip(masks, elems)):
        cm = full ^ int(m)
        comp = [i for i in range(n) if cm >> i & 1]
        # parity of the concatenation (I, I^c) as a permutation of (0..n-1)
        inv = sum(1 for a in members for b in comp if a > b)
        out[rank_c[cm], j] = -1.0 if inv % 2 else 1.0
    return out


@lru_cache(maxsize=None)
def wedge_e1_matrix(n, p):
    """e_1 ^ (.) : Lambda^p -> Lambda^(p+1).  Sign is +1 throughout
    because e_1 is the smallest basis element."""
    masks, _ = _basis(n, p)
    rank_up = _rank_table(n, p + 1)
    out = np.zeros((comb(n, p + 1), comb(n, p)))
    for j, m in enumerate(masks):
        if not int(m) & 1:
            out[rank_up[int(m) | 1], j] = 1.0
    return out


@lru_cache(maxsize=None)
def contract_e1_matrix(n, p):
    """iota_{e_1} : Lambda^p -> Lambda^(p-1), adjoint of wedge_e1."""
    masks, _ = _basis(n, p)
    rank_dn = _rank_table(n, p - 1)
    out = np.zeros((comb(n, p - 1), comb(n, p)))
    for j, m in enumerate(masks):
        if int(m) & 1:
            out[rank_dn[int(m) & ~1], j] = 1.0
    return out


def hodge_star(xi):
    """Hodge star of a form vector; the degree flips to n - p."""
    mat = hodge_matrix(xi.n, xi.degree)
    return FormVector(xi.n, xi.n - xi.degree, mat @ xi.coeffs)


def wedge_e1(xi):
    if xi.degree >= xi.n:
        raise ValueError("cannot raise degree above n")
    return FormVector(xi.n, xi.degree + 1, wedge_e1_matrix(xi.n, xi.degree) @ xi.coeffs)


def contract_e1(xi):
    if xi.degree < 1:
        raise ValueError("cannot lower degree below 0")
    return FormVector(xi.n, xi.degree - 1, contract_e1_matrix(xi.n, xi.degree) @ xi.coeffs)


# ---------------------------------------------------------------------------
# M projectors and chirality


@lru_cache(maxsize=None)
def chirality_matrix(n, which):
    """Projector onto the +-/- eigenspace of star on middle forms,
    eigenvalue mu = +-1 for n/2 even and +-i for n/2 odd."""
    if n % 2:
        raise ValueError("chirality needs n even")
    half = n // 2
    s = hodge_matrix(n, half).astype(complex)
    mu = (1.0 if half % 2 == 0 else 1.0j) * (1.0 if which == "plus" else -1.0)
    return _clean_projector(0.5 * (np.eye(s.shape[0]) + s / mu))


def _clean_projector(mat):
    """Symmetrize and round the spectrum of an almost-projector to
    exactly {0,1}; raises if any eigenvalue is ambiguous."""
    mat = 0.5 * (mat + mat.conj().T)
    w, v = np.linalg.eigh(mat)
    if np.any(np.abs(w - np.round(w)) > 1e-8) or np.any((np.round(w) != 0) & (np.round(w) != 1)):
        raise ArithmeticError(f"not a projector: spectrum {w}")
    keep = np.round(w) == 1
    p = (v[:, keep] @ v[:, keep].conj().T)
    return 0.5 * (p + p.conj().T)


@lru_cache(maxsize=None)
def _proj_matrix_cached(n, p, chirality, kind, q):
    full = comb(n, p)
    masks, _ = _basis(n, p)
    e1_in = (masks & 1).astype(bool)
    if chirality != "none":
        # tau^{+-}_{n/2} restricts irreducibly to sigma_{n/2}; the
        # isotypic projector acts as the identity on the eigenspace,
        # i.e. as the chirality projector on full coordinates.
        if kind != "q" or q != p:
            raise ValueError("chirality specs branch to sigma_{n/2} only")
        return chirality_matrix(n, chirality)
    if kind == "q":
        d = np.where(e1_in if q == p - 1 else ~e1_in, 1.0, 0.0)
        return np.diag(d).astype(complex)
    # sigma^{+-} at p = (n-1)/2: split the e_1-free part by the induced
    # (n-1)-dimensional Hodge star, which equals star_n o wedge_e1 there.
    t = hodge_matrix(n, p + 1) @ wedge_e1_matrix(n, p)
    free = np.diag(np.where(~e1_in, 1.0, 0.0)).astype(complex)
    phase = 1j ** (p * (p + 2))
    sign = 1.0 if kind == "plus" else -1.0
    return _clean_projector(0.5 * free + 0.5 * sign * phase * t.astype(complex))


def proj_matrix(spec, sigma):
    """The orthogonal projector of Lambda^p onto the sigma-isotypic
    subspace, as a matrix on full coordinates."""
    _check_sigma(spec, sigma, for_projection=True)
    return _proj_matrix_cached(spec.n, spec.p, spec.chirality, sigma.kind, sigma.q)


def project_M(spec, sigma, xi):
    """Orthogonal projection of xi onto the sigma-isotypic subspace."""
    mat = proj_matrix(spec, sigma)
    return FormVector(xi.n, xi.degree, mat @ xi.coeffs, spec=xi.spec)


def _check_sigma(spec, sigma, for_projection=False):
    if spec.chirality != "none":
        if sigma != sigma_q(spec.p):
            raise ValueError(f"sigma {sigma} not admissible for chirality spec")
        return
    if sigma.kind == "q":
        if sigma.q not in (spec.p - 1, spec.p):
            raise ValueError(f"sigma {sigma} not admissible for p={spec.p}")
        return
    if spec.case != "half_odd":
        raise ValueError("sigma^{+-} labels require p = (n-1)/2")


def branching(spec):
    """The multiplicity-free list of M-types of tau, in display order."""
    if spec.chirality != "none":
        return [sigma_q(spec.p)]
    if spec.case == "half_odd":
        return [sigma_q(spec.p - 1), SIGMA_PLUS, SIGMA_MINUS]
    return [sigma_q(spec.p - 1), sigma_q(spec.p)]


def dims(spec, sigma):
    """(d_tau, d_sigma, d_tau/d_sigma); the ratio is exact."""
    _check_sigma(spec, sigma)
    d_tau = comb(spec.n, spec.p)
    if spec.chirality != "none":
        d_tau //= 2
        d_sig = Fraction(comb(spec.n - 1, spec.p))
    elif sigma.kind == "q":
        d_sig = Fraction(comb(spec.n - 1, sigma.q))
    else:
        d_sig = Fraction(comb(spec.n - 1, spec.p), 2)
    ratio = Fraction(d_tau) / d_sig
    return d_tau, float(d_sig), float(ratio)
