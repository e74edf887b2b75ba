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
Lambda^p C^n rather than as maps onto separate coordinate spaces, built
exactly from the integer Hodge and wedge tables: their entries are 0,
+-1/2, +-i/2 or 1, so P @ P == P and P == P^H hold bit for bit.  The
cached tables are read-only.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np


__all__ = [
    "BundleSpec",
    "MLabel",
    "FormVector",
    "default_vector",
    "sigma_q",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "tau_matrix",
    "tau_matrix_batch",
    "tau_apply_batch",
    "tau_vec_batch",
    "hodge_matrix",
    "wedge_table",
    "wedge_batch",
    "proj_matrix",
    "chirality_matrix",
    "dims",
    "branching",
    "sigma_blocks",
    "check_sigma",
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
        """The label of "q:K", "plus" (or "+") and "minus" (or "-")."""
        text = text.strip()
        text = {"+": "plus", "-": "minus"}.get(text, text)
        if text in ("plus", "minus"):
            return cls(text)
        if text.startswith("q:"):
            try:
                return cls("q", int(text[2:]))
            except ValueError:
                pass
        raise ValueError(f'cannot parse MLabel from {text!r} (use "q:K", "plus", "minus")')


@lru_cache(maxsize=None)
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

    def __repr__(self):
        return f"FormVector(n={self.n}, p={self.degree})"


def default_vector(spec):
    """The unit fiber vector e_1 of the colex basis, projected to the
    chirality of spec when there is one and renormalized."""
    v = np.zeros(spec.dim_full, dtype=complex)
    v[0] = 1.0
    if spec.chirality != "none":
        v = chirality_matrix(spec.n, spec.chirality) @ v
    return FormVector.of(spec, v / np.linalg.norm(v))


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

_TAU_BLOCK = 2 ** 15  # output entries per block of tau_matrix_batch
_VEC_BLOCK = 2 ** 14  # level entries per block of tau_vec_batch


def _square_stack(us, p):
    """(us as floats, n); ValueError unless us is (..., n, n), 0 <= p <= n."""
    us = np.asarray(us, dtype=float)
    if us.ndim < 2 or us.shape[-1] != us.shape[-2] or not 0 <= p <= us.shape[-1]:
        raise ValueError(f"need square matrices (..., n, n) and 0 <= p <= n, got {us.shape}, p={p}")
    return us, us.shape[-1]


@lru_cache(maxsize=None)
def _laplace_tables(n, q):
    """Flat gather tables, row-major in (I, J), of the first-row Laplace
    expansion of the q x q minors u[I, J], one pair per column k: where
    u[i_0, j_k] sits in a flat u and where the (q-1)-minor of I - i_0,
    J - j_k sits in a flat Lambda^(q-1)(u), i_0 the first row of I."""
    masks, elems = _basis(n, q)
    rank_dn = _rank_table(n, q - 1)
    drop = np.array([[rank_dn[int(m) ^ (1 << int(j))] for j in row]
                     for m, row in zip(masks, elems)]).reshape(elems.shape)
    first, rest = elems[:, 0], drop[:, 0]
    return [((first[:, None] * n + elems[None, :, k]).ravel(),
             (rest[:, None] * comb(n, q - 1) + drop[None, :, k]).ravel())
            for k in range(q)]


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
    column k over precomputed index tables, O(q C(n,q)^2) per matrix, in
    blocks of about _TAU_BLOCK output entries to keep temporaries in cache.
    Lambda^0(u) = [[1]]; p outside 0..n raises ValueError.
    """
    us, n = _square_stack(us, p)
    if p == 0:
        return np.ones(us.shape[:-2] + (1, 1))
    flat = us.reshape(-1, n * n)
    out = np.empty((flat.shape[0], comb(n, p) ** 2))
    step = max(1, _TAU_BLOCK // out.shape[1])
    for lo in range(0, flat.shape[0], step):
        block = acc = flat[lo:lo + step]
        for q in range(2, p + 1):
            prev = acc
            for k, (entry, minor) in enumerate(_laplace_tables(n, q)):
                # in place, so at most three (block, C(n,q)^2) arrays live
                term = np.take(block, entry, axis=1)
                term *= np.take(prev, minor, axis=1)
                if k == 0:
                    acc = term
                elif k % 2:
                    acc -= term
                else:
                    acc += term
        out[lo:lo + step] = acc
    return out.reshape(us.shape[:-2] + (comb(n, p),) * 2)


def tau_apply_batch(taus, cols):
    """taus @ cols for real Lambda^p stacks (..., C, C) and complex
    columns (..., C, k), broadcasting, as one real matmul on cols viewed
    as real (..., C, 2k), each column's real and imaginary part side by
    side: the stack is never cast to complex.  tau(u)^T is the swapaxes."""
    cols = np.ascontiguousarray(cols, dtype=complex)
    return (taus @ cols.view(float)).view(complex)


@lru_cache(maxsize=None)
def _contract_tables(n, p):
    """tau_vec_batch's gathers, (term k, 2, state (P, J)) per level q = 1..p: P a
    q-subset of {0..n-p+q-1}, J a (p-q)-subset; where s u[i, j] sits in [u; -u] and
    state (P - i, J + j) in level q-1, i = max P, j the k-th column not in J, s its sign."""
    levels = []
    for q in range(1, p + 1):
        rank_pre, rank_up = _rank_table(n - p + q - 1, q - 1), _rank_table(n, p - q + 1)
        rows = []
        for pm in map(int, _basis(n - p + q, q)[0]):
            i = pm.bit_length() - 1
            for jm in map(int, _basis(n, p - q)[0]):
                rows.append([(i * n + j + n * n * (bin(jm & ((1 << j) - 1)).count("1") % 2),
                              rank_pre[pm ^ 1 << i] * comb(n, p - q + 1) + rank_up[jm | 1 << j])
                             for j in range(n) if not jm >> j & 1])
        levels.append(np.ascontiguousarray(np.array(rows).transpose(1, 2, 0)))
    return levels


def tau_vec_batch(us, p, x):
    """Lambda^p(u) x for u (..., n, n) and complex x, one vector per matrix
    (..., C(n,p)) broadcasting against u or one shared (C(n,p),), by the
    first-row expansion (Lambda^p(u) x)_I = (Lambda^(p-1)(u) iota_{u[min I, :]} x)_(I - min I):
    2.6k real products per column at n = 8, p = 3, the minors alone 11k.  Blocks of
    about _VEC_BLOCK level entries are (entries, re/im, samples); p <= 1 is
    tau_apply_batch on u.  Lambda^p(u)^T x is this on the swapaxes of u."""
    us, n = _square_stack(us, p)
    x, dim = np.asarray(x, dtype=complex), comb(n, p)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"need vectors of length C(n,p) = {dim}, got shape {x.shape}")
    if p <= 1:
        return tau_apply_batch(us if p else np.ones(us.shape[:-2] + (1, 1)), x[..., None])[..., 0]
    lead = np.broadcast_shapes(us.shape[:-2], x.shape[:-1])
    flat = np.broadcast_to(us, lead + (n, n)).reshape(-1, n, n)
    x = np.broadcast_to(x, lead + (dim,)).reshape(-1, dim)  # a shared x stays a view
    out, tables = np.empty((flat.shape[0], dim, 2)), _contract_tables(n, p)
    step = max(1, _VEC_BLOCK // max(level.shape[-1] for level in tables))
    for lo in range(0, flat.shape[0], step):
        blk = flat[lo:lo + step]
        uu = np.ascontiguousarray(np.concatenate((blk, -blk), axis=-2).reshape(len(blk), -1).T)
        state = np.stack((x[lo:lo + step].real.T, x[lo:lo + step].imag.T), axis=1)
        for level in tables:
            acc, term = np.zeros((2, level.shape[-1], 2, len(blk)))
            for ent, src in level:
                np.take(state, src, axis=0, out=term, mode="clip")
                acc += np.multiply(term, np.take(uu, ent, axis=0)[:, None], out=term)
            state = acc
        out[lo:lo + step] = state.transpose(2, 0, 1)
    return out.view(complex).reshape(lead + (dim,))


# ---------------------------------------------------------------------------
# Hodge star and wedge by e_1


def _read_only(a):
    """a, no longer writeable: a cached table is shared by every caller."""
    a.flags.writeable = False
    return a


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
    return _read_only(out)


@lru_cache(maxsize=None)
def wedge_table(n, p, star=False):
    """(shape, flat, comp, sign) of b ^ (.) : Lambda^p -> Lambda^(p+1), or of
    star(b ^ .) with star: the matrix holds sign * b[comp] at its flat
    positions and 0 elsewhere; e_j ^ e_J = (-1)^#{i in J : i < j} e_(J+j)."""
    masks, rank_up = _basis(n, p)[0], _rank_table(n, p + 1)
    rows, cols, comp, sign = np.array([
        (rank_up[m | 1 << j], col, j, -1 if (m & ((1 << j) - 1)).bit_count() % 2 else 1)
        for col, m in enumerate(map(int, masks)) for j in range(n) if not m >> j & 1],
        dtype=np.int64).reshape(-1, 4).T
    if star:
        hodge = hodge_matrix(n, p + 1)  # one +-1 per column
        rows, sign = np.abs(hodge).argmax(axis=0)[rows], sign * hodge.sum(axis=0)[rows]
    shape = (comb(n, n - p - 1 if star else p + 1), comb(n, p))
    return shape, *map(_read_only, (rows * shape[1] + cols, comp, sign))


def wedge_batch(bs, p, star=False):
    """The matrices of b ^ (.) on Lambda^p, or of star(b ^ .) with star,
    for stacked real vectors b, an (..., n) array: one scatter of wedge_table."""
    shape, flat, comp, sign = wedge_table(bs.shape[-1], p, star)
    out = np.zeros(bs.shape[:-1] + (shape[0] * shape[1],))
    out[..., flat] = sign * bs[..., comp]
    return out.reshape(bs.shape[:-1] + shape)


# ---------------------------------------------------------------------------
# M projectors and chirality


@lru_cache(maxsize=None)
def chirality_matrix(n, which):
    """Projector (I + star/mu)/2 onto the +-/- eigenspace of star on middle
    forms, eigenvalue mu = +-1 for n/2 even and +-i for n/2 odd; exact."""
    if n % 2:
        raise ValueError("chirality needs n even")
    half = n // 2
    mu = (1.0 if half % 2 == 0 else 1.0j) * (1.0 if which == "plus" else -1.0)
    return _read_only(0.5 * (np.eye(comb(n, half)) + hodge_matrix(n, half) / mu))


@lru_cache(maxsize=None)
def _proj_matrix_cached(n, p, chirality, kind, q):
    if chirality != "none":
        # tau^{+-}_{n/2} restricts irreducibly to sigma_{n/2}; the
        # isotypic projector acts as the identity on the eigenspace,
        # i.e. as the chirality projector on full coordinates.
        return chirality_matrix(n, chirality)
    e1_in = (_basis(n, p)[0] & 1).astype(bool)
    if kind == "q":
        # sigma_(p-1) on e_1 ^ Lambda^(p-1), sigma_p (split or not) on the e_1-free part
        return _read_only(np.diag(e1_in if q == p - 1 else ~e1_in).astype(complex))
    # sigma^{+-} at p = (n-1)/2: the e_1-free part split by the induced
    # (n-1)-dimensional Hodge star, which is star eps(e_1) there
    phase = 1j ** (p * (p + 2)) * (1 if kind == "plus" else -1)
    free = np.diag(~e1_in).astype(complex)
    return _read_only(0.5 * (free + phase * wedge_batch(np.eye(n)[0], p, star=True)))


def proj_matrix(spec, sigma):
    """The orthogonal projector of Lambda^p onto the sigma-isotypic
    subspace, as an exact, read-only matrix on full coordinates; the
    unsplit sigma_p at p = (n-1)/2 is the e_1-free part, P_{sigma^+} + P_{sigma^-}."""
    check_sigma(spec, sigma)
    return _proj_matrix_cached(spec.n, spec.p, spec.chirality, sigma.kind, sigma.q)


def check_sigma(spec, sigma):
    """Raise ValueError unless sigma labels an M-isotypic constituent of
    tau: a member of the branching, or a label that sigma_blocks splits
    into members (the unsplit sigma_p at p = (n-1)/2)."""
    if sigma not in branching(spec) and sigma_blocks(spec, sigma) == [sigma]:
        raise ValueError(f"sigma {sigma} not admissible for {spec}: neither in the branching "
                         f"({', '.join(map(str, branching(spec)))}) nor a sum of its labels")


def branching(spec):
    """The multiplicity-free list of M-types of tau, in display order."""
    if spec.chirality != "none":
        return [sigma_q(spec.p)]
    if spec.case == "half_odd":
        return [sigma_q(spec.p - 1), SIGMA_PLUS, SIGMA_MINUS]
    return [sigma_q(spec.p - 1), sigma_q(spec.p)]


def sigma_blocks(spec, sigma):
    """The branching labels whose projectors sum to P_sigma: the unsplit
    sigma_p at p = (n-1)/2 is sigma^+ (+) sigma^-, and every other
    label is its own block."""
    if spec.case == "half_odd" and sigma == sigma_q(spec.p):
        return [SIGMA_PLUS, SIGMA_MINUS]
    return [sigma]


@lru_cache(maxsize=None)
def dims(spec, sigma):
    """(d_tau, d_sigma, d_tau/d_sigma); the ratio is exact."""
    check_sigma(spec, sigma)
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
