"""The Lorentz group SO0(n,1) and its Iwasawa / Cartan structure theory.

Elements are (n+1) x (n+1) real matrices preserving the quadratic form
x_1^2 + ... + x_n^2 - x_{n+1}^2 and the time orientation (lower right
entry >= 1).  K = SO(n) sits in the upper left block, A = {a_t} is the
hyperbolic one-parameter group in the (1, n+1) plane, and N = {n_y},
y in R^(n-1), is the usual horospherical group.  Conventions:

    a_t  : cosh t at (1,1) and (n+1,n+1), sinh t at (1,n+1), (n+1,1)
    n_y  : unipotent, parametrized so that n_y n_z = n_{y+z}

Iwasawa G = KAN reads off the last row of g: with c_1 = g[n,0] and
d = g[n,n], H(g) = log(c_1 + d) (the argument is always positive on
G), and y = e^{-H} * (middle entries of the last row).  kappa is read
off the columns of g: xi = e_1 + e_{n+1} has n_y xi = xi and
a_H xi = e^H xi, so kappa e_1 = e^{-H} (g xi) and kappa e_j =
g e_j - y_j (g xi) for j = 2..n (upper n entries), with an error of
about e^t ulps at Cartan radius t.  One kernel, iwasawa_translates,
applies this to every x = g^{-1} r that the Poisson kernels need,
reading x off the blocks of g and the rotations r.  Cartan
G = K A+ K uses t+ = arccosh(d); the left factor k1 is the rotation
taking e_1 to b/|b| (b the upper right column), built from a
deterministic Householder reflection with a sign fix, so decompositions
are reproducible across runs.

This module owns the batch geometry of the package.  Its array kernels
are public and take stacked arrays, returning stacked (..., n+1, n+1)
matrices or their factors: embed_rotation, inv_mats (J g^T J), at_mats
(boosts), ny_mats (horospherical elements), plane_rotations,
cartan_axis, cartan_radius, polar_blocks and iwasawa_translates, the
one Iwasawa kernel: the factors of g^{-1} r read off the blocks of g
and the rotations r, stored sample-major.  Every other module builds
on them, and they do no validation.  The scalar API (make_*, iwasawa,
cartan, polar_k, GroupElement.inv) wraps the same kernels, with the
GroupElement and KElement wrappers carrying the validation.
"""

import operator
from functools import lru_cache

import numpy as np

__all__ = [
    "GroupElement",
    "KElement",
    "IwasawaFactors",
    "CartanFactors",
    "make_rotation",
    "make_at",
    "make_ny",
    "iwasawa",
    "cartan",
    "polar_k",
    "haar_sample_K",
    "radial_weight",
    "embed_rotation",
    "inv_mats",
    "at_mats",
    "ny_mats",
    "plane_rotations",
    "iwasawa_translates",
    "cartan_axis",
    "cartan_radius",
    "polar_blocks",
    "gate_k",
    "rotation_block",
]

# Below t+ = TIE_EPS the Cartan k1 direction b/|b| is numerically
# meaningless and the decomposition falls back to (polar_k(g), 0, id).
TIE_EPS = 1.0e-12

# Orthogonality slack accepted from K blocks produced by chained matrix
# products before we declare an internal consistency error.
_CONSISTENCY_TOL = 1.0e-8


def gate_k(block, what):
    """ArithmeticError unless K blocks (..., n, n) are within 1e-8 of orthogonal."""
    # the Gram matrices minus I, reduced in place; square stacked products
    # run several times faster on a C-ordered copy than on a swapaxes view
    gram = np.ascontiguousarray(block.swapaxes(-1, -2)) @ block
    _shift_diagonal(gram, -1.0)
    defect = np.abs(gram, out=gram).max()
    if not defect <= _CONSISTENCY_TOL:  # a NaN defect raises too
        raise ArithmeticError(f"{what} lost orthogonality: defect {defect:.3e}")


@lru_cache(maxsize=None)
def _identity(n):
    """The n x n identity, built once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _shift_diagonal(a, x):
    """a += x on the diagonals of a C-contiguous stack (..., n, n), in
    place through a strided view; raises if a is not contiguous."""
    n = a.shape[-1]
    diag = a.reshape(-1, n * n, copy=False)[:, :: n + 1]
    diag += x


# ---------------------------------------------------------------------------
# wrappers


class KElement:
    """A rotation u in SO(n), validated on construction.

    mode="strict" requires u^T u = I within 1e-12 and det u > 0;
    mode="repair" re-orthonormalizes through the polar projection
    (nearest rotation in Frobenius norm) provided the defect is small.
    """

    __slots__ = ("mat",)

    def __init__(self, mat, mode="strict"):
        u = np.asarray(mat, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"KElement needs a square matrix, got shape {u.shape}")
        self._orthonormal(u, mode)
        if np.linalg.det(self.mat) < 0.0:
            raise ValueError("matrix has determinant -1, not in SO(n)")

    @classmethod
    def _of_rotation(cls, u):
        """KElement(u, mode="repair") with no det check, for u with det +1 by
        construction: a factor of iwasawa, cartan or polar_k."""
        out = object.__new__(cls)
        out._orthonormal(u, "repair")
        return out

    def _orthonormal(self, u, mode):
        # one matrix: subtracting I is x - 0 = x off the diagonal, as the shift
        gram = u.T @ u
        np.subtract(gram, _identity(len(u)), out=gram)
        defect = np.abs(gram, out=gram).max()
        if mode == "repair":
            if defect > 1.0e-6:
                raise ValueError(f"rotation defect {defect:.3e} too large to repair")
            if defect > 1.0e-14:
                w, _, vt = np.linalg.svd(u)
                u = w @ vt
        elif defect > 1.0e-12:
            raise ValueError(f"matrix is not orthogonal: defect {defect:.3e}")
        self.mat = u

    def __repr__(self):
        return f"KElement(n={self.mat.shape[0]})"


class GroupElement:
    """An element of SO0(n,1), validated on construction.

    Invariants: g^T J g = J within 1e-12 relative to the squared entry
    scale, lower-right entry >= 1, and determinant +1 (checked through
    slogdet so large boosts do not overflow), with 4 (n + 1) eps max|g|^2 more
    slack: rounding g moves log det g by up to 1.6 eps max|g|^2 (n <= 8, t <= 16).
    """

    __slots__ = ("mat",)

    def __init__(self, mat, check=True):
        g = np.asarray(mat, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 3:
            raise ValueError(f"GroupElement needs (n+1)x(n+1), n >= 2; got {g.shape}")
        if check:
            n = g.shape[0] - 1
            scale = max(1.0, float(np.abs(g).max()) ** 2)
            form = inv_mats(g) @ g  # J g^T J g - I = J (g^T J g - J), same entries up to sign
            _shift_diagonal(form, -1.0)
            defect = np.abs(form, out=form).max() / scale
            if defect > 1.0e-12:
                raise ValueError(f"matrix does not preserve the form: defect {defect:.3e}")
            if g[n, n] < 1.0 - 1.0e-12:
                raise ValueError(f"time orientation reversed: d = {g[n, n]!r}")
            sign, logdet = np.linalg.slogdet(g)
            slack = 1.0e-9 * (1.0 + abs(np.log(scale))) + 4.0 * (n + 1) * 2.0 ** -52 * scale
            if sign <= 0.0 or abs(logdet) > slack:
                raise ValueError("determinant is not +1")
        self.mat = g

    @property
    def n(self):
        return self.mat.shape[0] - 1

    def inv(self):
        return GroupElement(inv_mats(self.mat), check=False)

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            return GroupElement(self.mat @ other.mat, check=False)
        return NotImplemented

    def __repr__(self):
        return f"GroupElement(n={self.n})"


class IwasawaFactors:
    """Result of the Iwasawa decomposition g = kappa a_H n_y."""

    __slots__ = ("kappa", "h", "y")

    def __init__(self, kappa, h, y):
        self.kappa = kappa
        self.h = h
        self.y = y


class CartanFactors:
    """Result of the Cartan decomposition g = k1 a_t k2, t >= 0."""

    __slots__ = ("k1", "t", "k2")

    def __init__(self, k1, t, k2):
        self.k1 = k1
        self.t = t
        self.k2 = k2


# ---------------------------------------------------------------------------
# constructors (array kernels + wrappers)


def embed_rotation(u):
    """(..., n, n) rotations -> (..., n+1, n+1) group elements."""
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    out = np.zeros(u.shape[:-2] + (n + 1, n + 1))
    out[..., :n, :n] = u
    out[..., n, n] = 1.0
    return out


def inv_mats(mats):
    """(..., n+1, n+1) group matrices -> their inverses J g^T J, exact
    (a transpose and sign flips)."""
    jj = np.ones(mats.shape[-1])
    jj[-1] = -1.0
    return jj[:, None] * mats.swapaxes(-1, -2) * jj[None, :]


def plane_rotations(n, c, s):
    """(...,) cosines and sines -> (..., n, n) rotations in the (e1, e2)
    coordinate plane of R^n, [[c, -s], [s, c]] in the upper left."""
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    out = np.zeros(c.shape + (n, n))
    idx = np.arange(2, n)
    out[..., idx, idx] = 1.0
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def at_mats(t, n):
    """(...,) parameters -> (..., n+1, n+1) boosts a_t."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (n + 1, n + 1))
    idx = np.arange(1, n)
    out[..., idx, idx] = 1.0
    ch, sh = np.cosh(t), np.sinh(t)
    out[..., 0, 0] = ch
    out[..., n, n] = ch
    out[..., 0, n] = sh
    out[..., n, 0] = sh
    return out


def ny_mats(y, n):
    """(..., n-1) parameters -> (..., n+1, n+1) horospherical n_y."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != n - 1:
        raise ValueError(f"y must have length n-1 = {n - 1}, got {y.shape[-1]}")
    q = 0.5 * np.sum(y * y, axis=-1)
    out = np.zeros(y.shape[:-1] + (n + 1, n + 1))
    idx = np.arange(1, n)
    out[..., idx, idx] = 1.0
    out[..., 0, 0] = 1.0 - q
    out[..., 0, 1:n] = y
    out[..., 0, n] = q
    out[..., 1:n, 0] = -y
    out[..., 1:n, n] = y
    out[..., n, 0] = -q
    out[..., n, 1:n] = y
    out[..., n, n] = 1.0 + q
    return out


def make_rotation(u):
    """Embed u in SO(n) as a GroupElement fixing the time axis."""
    if isinstance(u, KElement):
        u = u.mat
    else:
        u = KElement(u, mode="strict").mat
    return GroupElement(embed_rotation(u), check=False)


def make_at(t, n):
    """The boost a_t in SO0(n,1)."""
    return GroupElement(at_mats(float(t), n), check=False)


def make_ny(y):
    """The horospherical element n_y; the dimension is len(y) + 1."""
    y = np.asarray(y, dtype=float).reshape(-1)
    return GroupElement(ny_mats(y, y.size + 1), check=False)


# ---------------------------------------------------------------------------
# decompositions


def iwasawa_translates(g, rots=None):
    """(H, y, kappa) of x = g^{-1} r, read off g's blocks without forming x.

    g is one group matrix (n+1, n+1) or one per sample, sample-major
    (n+1, n+1, m); rots is one rotation (n, n), one per sample, (n, n, m)
    with r_s = rots[:, :, s], or None for r = I; not both per sample.  H is
    (m,), y (n-1, m) and kappa sample-major (n, n, m), with m = 1 when
    neither input has a sample axis.  With g = [[A, b], [c^T, d]], x has
    the rows (A^T r, -c) and (-b^T r, d), and with xi = e_0 + e_n (n_y xi =
    xi, a_H xi = e^H xi, so x xi = e^H kappa xi)

        S = d - b^T r e_0 = e^H,   y_j = -b^T r e_j / S,
        kappa e_0 = (A^T r e_0 - c) / S,
        kappa e_j = A^T r e_j - y_j (A^T r e_0 - c),   j = 1 .. n-1.

    A^T r and b^T r are one matrix product; an entry with one nonzero term
    is that term rounded once, so at g = a_t this is the closed form of
    a_{-t} r.  With rots None they are A^T and b, and x = g^{-1} is read
    back exactly, signs of zeros included.  The error grows like e^t ulps
    at Cartan radius t.  ValueError unless S > 0, ArithmeticError when
    kappa^T kappa is more than 1e-8 from I or not finite, which for random
    g happens from t of about 16 on.
    """
    n = g.shape[0] - 1
    g = g.reshape(g.shape[:2] + (-1,))
    if rots is None:
        acc = g[:n].transpose(1, 0, 2).copy()
    else:
        r = rots.reshape(n, n, -1)
        if g.shape[-1] > 1 and r.shape[-1] > 1:
            raise ValueError("iwasawa_translates takes one g or one rotation per sample, not both")
        # [A | b]^T r, its rows A^T r and b^T r, samples last
        acc = np.tensordot(g[:n], r, axes=(0, 0)).transpose(0, 2, 1, 3).reshape(n + 1, n, -1)
    kappa, c, d = acc[:n], g[n, :n], g[n, n]
    s = d - acc[n, 0]
    if (s <= 0.0).any():
        raise ValueError("Iwasawa argument c_1 + d is not positive")
    h = np.log(s)
    y = -acc[n, 1:] / s
    gxi = kappa[:, 0]
    gxi -= c
    kappa[:, 1:] -= gxi[:, None] * y
    gxi /= s
    gram = np.einsum("ais,ajs->ijs", kappa, kappa)
    gram.reshape(n * n, -1)[:: n + 1] -= 1.0
    defect = np.abs(gram, out=gram).max(initial=0.0)  # 0 on no samples
    if not defect <= _CONSISTENCY_TOL:  # a NaN defect raises too
        raise ArithmeticError(
            f"Iwasawa K factor lost orthogonality: defect {defect:.3e}")
    return h, y, kappa


def iwasawa(g):
    """Decompose g = kappa a_H n_y; returns IwasawaFactors, from
    iwasawa_translates at g^{-1} and r = I."""
    h, y, kappa = iwasawa_translates(inv_mats(g.mat))
    return IwasawaFactors(KElement._of_rotation(kappa[:, :, 0]), float(h[0]), y[:, 0])


def polar_blocks(mats):
    """K-part of the polar (geodesic-symmetry) decomposition, as the
    n x n rotation block A - b c^T / (1 + d)."""
    n = mats.shape[-1] - 1
    a = mats[..., :n, :n]
    b = mats[..., :n, n]
    c = mats[..., n, :n]
    d = mats[..., n, n]
    return a - b[..., :, None] * c[..., None, :] / (1.0 + d)[..., None, None]


def polar_k(g):
    """Rotation part pi0(g) of g = pi0 exp(X), the hyperbolic polar
    factorization; equals k1 k2 of the Cartan decomposition."""
    is_group = isinstance(g, GroupElement)
    block = polar_blocks(g.mat if is_group else np.asarray(g))
    gate_k(block, "polar block")
    # the K-part of an SO0(n,1) element has det +1; a bare array is checked
    return KElement._of_rotation(block) if is_group else KElement(block, mode="repair")


def rotation_block(g):
    """The rotation k of g = diag(k, 1) when the last row and column of g are
    e_n entrywise to 1e-12, else None: g[n, n] = 1 + eps alone still allows a
    radius A+(g) of about sqrt(2 eps)."""
    mat = g.mat
    e_n = np.eye(mat.shape[-1])[-1]
    if max(np.max(np.abs(mat[-1] - e_n)), np.max(np.abs(mat[:, -1] - e_n))) > 1e-12:
        return None
    return mat[:-1, :-1]


def cartan_radius(mats):
    """t = arccosh(max(g_nn, 1)) of stacked g = k1 a_t k2 (g_nn may round below 1)."""
    return np.arccosh(np.maximum(mats[..., -1, -1], 1.0))


def cartan_axis(mats):
    """(t, b = k1 e_1, pi0 = k1 k2) of stacked g = k1 a_t k2: g's upper right
    column is sinh(t) k1 e_1; k1 = pi0 below TIE_EPS, and where that column
    is 0, which is then a tie at t = 0 (g_nn may exceed 1 by rounding).
    ArithmeticError when pi0 is more than 1e-8 from orthogonal or not finite."""
    pol = polar_blocks(mats)
    gate_k(pol, "Cartan K factors")
    t, col = cartan_radius(mats), mats[..., :-1, -1]
    norm = np.sqrt((col * col).sum(axis=-1))
    flat = norm == 0.0
    tie = (t < TIE_EPS) | flat
    if not tie.any():
        return t, col / norm[..., None], pol
    b = col / np.where(tie, 1.0, norm)[..., None]
    b[tie] = pol[tie][..., 0]
    t[flat] = 0.0
    return t, b, pol


def _householder_to_e1(b):
    """Stacked rotations S with S e_1 = b for unit vectors b, built from
    the reflection through (b - e_1) with the last column negated to
    restore det = +1.  Deterministic; b ~ +e_1 returns the identity."""
    v = np.array(b, dtype=float)
    v[..., 0] -= 1.0
    vv = (v * v).sum(axis=-1)
    # the b at +e_1 (or NaN); None where every b is away from it, as at
    # the scalar cartan's b, which then takes no masks
    near = None if vv.min() > 1.0e-28 else ~(vv > 1.0e-28)
    # I - 2 v v^T / vv in place: I - x is 0 - x off the diagonal, which
    # keeps the sign of zeros, and 1 - x on it, as (0 - x) + 1 rounds
    out = 2.0 * v[..., :, None] * v[..., None, :]
    out /= (vv if near is None else np.where(near, 1.0, vv))[..., None, None]
    eye = _identity(b.shape[-1])
    np.subtract(eye, out, out=out)
    out[..., :, -1] *= -1.0
    if near is not None:
        out[near] = eye
    return out


def cartan(g):
    """Decompose g = k1 a_t k2 with t >= 0; returns CartanFactors.  t, b and
    pi0 come from cartan_axis: k1 = pi0 below TIE_EPS, else the Householder
    rotation with k1 e_1 = b, which fixes the M-ambiguity deterministically,
    and k2 = k1^T pi0 (~e^t ulps, where a_{-t} k1^{-1} g costs ~e^{2t})."""
    t, b, pol = cartan_axis(g.mat[None])
    k1 = pol if t[0] < TIE_EPS else _householder_to_e1(b)
    k2 = np.ascontiguousarray(k1.swapaxes(-1, -2)) @ pol
    return CartanFactors(KElement._of_rotation(k1[0]), float(t[0]), KElement._of_rotation(k2[0]))


# haar_sample_K sweeps stacks of at least this many rotations per unit
# of n (see its docstring for the measured crossover)
_SWEEP_PER_N = 16


def haar_sample_K(n, size=None, rng=None):
    """Haar-distributed rotations in SO(n).

    Gaussian QR with the R-diagonal sign fix (Mezzadri's recipe): the
    unique Q of z = QR whose R has a positive diagonal, for one draw
    z = rng.standard_normal((size, n, n)), with the last column flipped
    where det Q = -1 so that every sample lies in SO(n).  Returns an
    (n, n) array, or (size, n, n) when size is given.

    Stacks of m >= 16 n rotations take one Householder sweep over the
    whole stack (_householder_rotations), with no LAPACK call per
    matrix.  Below that the fixed cost of the sweep's NumPy calls
    loses, and the stack takes one LAPACK QR per matrix and a stacked
    det; a single draw always does.  Measured crossover (best of 21
    timings, one BLAS thread, 2-vCPU Xeon): m = 24-32 at n = 2, 48-64
    at n = 3, 64-96 at n = 4, about 96 at n = 6 and 96-128 at n = 8.
    Both paths give the same Q to rounding (the tests pin them within
    1e-12 of each other, and bit for bit below the switch).
    """
    n = _nonnegative_int(n, "n")
    if n < 1:
        raise ValueError(f"haar_sample_K needs n >= 1, got {n}")
    m = 1 if size is None else _nonnegative_int(size, "size")
    if rng is None:
        rng = np.random.default_rng()
    z = rng.standard_normal((m, n, n))
    if m >= _SWEEP_PER_N * n:
        q = _householder_rotations(z)
    else:
        q, r = np.linalg.qr(z)
        d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        d[d == 0.0] = 1.0
        q = q * d[:, None, :]
        det = np.linalg.det(q)
        q[det < 0.0, :, -1] = -q[det < 0.0, :, -1]
    return q[0] if size is None else q


def _nonnegative_int(value, name):
    """value as a non-negative int, else ValueError (no silent int())."""
    try:
        out = operator.index(value)
    except TypeError:
        raise ValueError(f"haar_sample_K {name} must be an integer, got {value!r}") from None
    if out < 0:
        raise ValueError(f"haar_sample_K {name} must be non-negative, got {out}")
    return out


def _householder_rotations(z):
    """The rotations of haar_sample_K for a (m, n, n) Gaussian stack z.

    LAPACK's dgeqrf/dorgqr, run on the whole stack at once: the stack
    is copied to (row, col, sample) order so that each step is a few
    NumPy calls on arrays of length m.  Reflection j maps column j's
    part x from row j down to beta e_j, beta = -sign(x_0)|x|, and is
    skipped (tau = 0, the identity) where x has no part below row j.
    The reflectors are kept below the diagonal, with R's diagonal in
    d, and Q = H_0 ... H_{n-2} is built back from the last column in
    the same array.  det Q = (-1)^(reflections applied), so the sign
    fix Q diag(sign d) lands in SO(n) after flipping its last column
    where that count plus the number of negative d is odd.  The result
    is written over z.
    """
    m, n, _ = z.shape
    a = np.ascontiguousarray(z.transpose(1, 2, 0))
    d = np.empty((n, m))
    tau = np.zeros((n, m))
    w = np.empty((n, m))
    t = np.empty((n, m))
    # parity of the reflections applied: all n - 1 until one is skipped
    odd = np.full(m, (n - 1) % 2 == 1)
    # 0/0 only where a whole column part is zero; the skip below resets it
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n - 1):
            x = a[j:, j]
            alpha = x[0].copy()
            sig = np.einsum("im,im->m", x[1:], x[1:])
            beta = d[j]
            np.sqrt(alpha * alpha + sig, out=beta)
            np.copysign(beta, -alpha, out=beta)
            np.divide(beta - alpha, beta, out=tau[j])
            x[1:] /= alpha - beta
            skip = sig == 0.0
            if skip.any():
                beta[skip] = alpha[skip]
                tau[j, skip] = 0.0
                x[1:, skip] = 0.0
                odd ^= skip
            x[0] = 1.0
            _reflect(x, a[j:, j + 1:], tau[j], w[: n - j - 1], t[: n - j - 1])
    d[n - 1] = a[n - 1, n - 1]
    a[:, n - 1] = 0.0
    a[n - 1, n - 1] = 1.0
    for j in range(n - 2, -1, -1):
        x = a[j:, j]
        _reflect(x, a[j:, j + 1:], tau[j], w[: n - j - 1], t[: n - j - 1])
        x[1:] *= -tau[j]
        np.subtract(1.0, tau[j], out=x[0])
        a[:j, j] = 0.0
    neg = d < 0.0
    odd ^= np.logical_xor.reduce(neg, axis=0)
    neg[n - 1] ^= odd
    a *= 1.0 - 2.0 * neg
    np.copyto(z.transpose(1, 2, 0), a)
    return z


def _reflect(v, blk, tau, w, t):
    """blk -= tau v (v^T blk) in place, v[0] = 1, over (row, col, sample)."""
    np.einsum("im,ikm->km", v, blk, out=w)
    w *= tau
    blk[0] -= w
    for i in range(1, v.shape[0]):
        np.multiply(w, v[i], out=t)
        blk[i] -= t


def radial_weight(t, n):
    """Density (2 sinh t)^(n-1) of the Cartan-radial measure on G/K."""
    return (2.0 * np.sinh(np.asarray(t, dtype=float))) ** (n - 1)
