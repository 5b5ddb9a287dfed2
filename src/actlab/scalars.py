"""Scalar backends and small dense self-adjoint linear algebra.

Two scalar modes run through the whole library:

* ``rational`` -- entries are :class:`fractions.Fraction` stored in
  object-dtype numpy arrays; every comparison is exact and tolerance-free.
  Bulk exact arithmetic runs on integer numerators over one denominator:
  :func:`integer_array` clears denominators, :func:`exact_cast` stores the
  numerators as int64 or Python ints for a bound, and :func:`exact_dtype`
  picks exact float64, int64 or Python int arithmetic for a bound.
* ``float`` -- entries are float64, and every comparison follows one rule,
  owned by :func:`negligible`: a quantity counts as zero when
  ``|value| <= tol * scale``, where ``scale`` is the size of the quantity
  tested, of the same degree in the tensor.  Scaling the input by any
  factor scales both sides, so no float verdict depends on that factor.
  A test with no reference scale (is this tensor zero?) is exact.

Eigendecompositions exist only in float mode.  Exact callers use ranks,
kernels, and fraction-free elimination instead, which is all the decision
procedures downstream actually need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from numbers import Integral

import numpy as np

from .errors import DegenerateInput, InvalidDimension, InvalidOperator

__all__ = [
    "ScalarMode",
    "RATIONAL",
    "FLOAT",
    "float_mode",
    "vector",
    "matrix",
    "zeros",
    "max_abs",
    "negligible",
    "fraction_sqrt",
    "is_selfadjoint",
    "require_selfadjoint",
    "eig_selfadjoint",
    "rank_with_mode",
    "random_unit_vector",
    "random_rational_unit_vector",
    "orthocomplement_basis",
    "orthonormalize_exact",
    "complete_orthonormal_exact",
]

DEFAULT_TOL = 1e-9
SLICE_ENTRIES = 2**14  # the most entries one slice of pairs, or one block of c R_Theta, holds at once


@dataclass(frozen=True)
class ScalarMode:
    """Arithmetic backend selector: exact rationals or float64 with tolerance."""

    kind: str
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.kind not in ("rational", "float"):
            raise ValueError(f"unknown scalar kind {self.kind!r}")
        if self.kind == "float" and not self.tol > 0:
            raise ValueError("float mode requires tol > 0")

    @property
    def exact(self) -> bool:
        return self.kind == "rational"

    def scalar(self, v):
        """Coerce a number (or 'p/q' string) into this mode's scalar type; a value that does
        not convert (a NaN or infinity when exact, a malformed string) is ``DegenerateInput``."""
        try:
            return Fraction(v) if self.exact else float(Fraction(v) if isinstance(v, str) else v)
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            raise DegenerateInput(str(exc)) from exc

    def zero(self):
        return Fraction(0) if self.exact else 0.0


RATIONAL = ScalarMode("rational")
FLOAT = ScalarMode("float")


def float_mode(tol: float = DEFAULT_TOL) -> ScalarMode:
    return ScalarMode("float", tol)


def mode_of(a: np.ndarray) -> ScalarMode:
    """Infer the scalar mode of an array from its dtype (default tolerance)."""
    return RATIONAL if a.dtype == object else FLOAT


def vector(entries, mode: ScalarMode) -> np.ndarray:
    try:
        entries = list(entries)
    except TypeError:  # not iterable, or a 0-d array
        raise InvalidDimension(f"vectors need a sequence of entries, got {type(entries).__name__}") from None
    v = np.array([mode.scalar(e) for e in entries], dtype=object if mode.exact else float)
    if v.ndim != 1 or v.size < 1:
        raise InvalidDimension("vectors need at least one entry")
    return v


def matrix(rows, mode: ScalarMode) -> np.ndarray:
    return np.array(
        [[mode.scalar(e) for e in row] for row in rows],
        dtype=object if mode.exact else float,
    )


def zeros(shape, mode: ScalarMode) -> np.ndarray:
    if mode.exact:
        a = np.empty(shape, dtype=object)
        a.fill(Fraction(0))
        return a
    return np.zeros(shape, dtype=float)


def eye(m: int, mode: ScalarMode) -> np.ndarray:
    a = zeros((m, m), mode)
    np.fill_diagonal(a, mode.scalar(1))
    return a


def exact_dtype(bound: int) -> np.dtype:
    """The fastest dtype whose arithmetic is exact on integers of magnitude
    at most ``bound``, a bound on every intermediate of the computation.

    float64 below 2^53, where every integer is a float, so sums and products
    of that size are exact in any order (a BLAS matmul included); int64
    below 2^62; else object, for Python ints, which never overflow.
    """
    if bound < 2**53:
        return np.dtype(np.float64)
    return np.dtype(np.int64 if bound < 2**62 else object)


def exact_cast(nums: np.ndarray, bound: int) -> np.ndarray:
    """Integer numerators stored for intermediates of magnitude at most ``bound``:
    an int64 array stays int64 while ``exact_dtype(bound)`` is not object, and
    becomes Python ints otherwise; an object array of Python ints stays as it is."""
    return nums.astype(object) if nums.dtype == np.int64 and exact_dtype(bound) == object else nums


def integer_array(values, denominator: int = 1):
    """Clear denominators: ``(N, d)`` with ``N / d == values / denominator``.

    ``d > 0`` is reduced, the lcm of the denominators of those quotients.  The
    reduction divides by g = gcd(d, gcd of all N), which divides
    gcd(d, first nonzero N); so it takes that cheap gcd first and sweeps the
    whole array only when it is not 1.  ``N`` is int64 below 2^62 in max|N|,
    else an object array of Python ints; callers whose arithmetic on N
    reaches larger intermediates pass it through ``exact_cast``.
    """
    return integer_array_max(values, denominator)[:2]


def integer_array_max(values, denominator: int = 1):
    """``integer_array(values, denominator)`` with the max|N| that sized it: ``(N, d, max|N|)``."""
    nums, d = _reduced(values, denominator)
    top = int(max_abs(nums))
    return nums.astype(object if exact_dtype(top) == object else np.int64, copy=False), d, top


def _reduced(values, denominator: int):
    """``(N, d)`` of ``integer_array`` before the tier: int64 arrays and object arrays of
    Python ints as given; anything else is read once, as one list of numerator-denominator
    pairs (of ``Fraction(v)`` for entries that are not ints, ``Fraction``s or floats), whose
    numerators over the lcm of the denominators are built as int64 when below 2^62."""
    a = np.asarray(values)
    nums, common = a, 1
    if a.dtype != np.int64:
        flat = a.ravel().tolist()
        types = set(map(type, flat))
        if a.dtype != object or not types <= {int}:  # Python ints pass as given
            if not types <= {int, Fraction, float}:  # numpy integers as ints, which do not wrap
                flat = [Fraction(int(v) if isinstance(v, np.integer) else v) for v in flat]
            ratios = [v.as_integer_ratio() for v in flat]
            common = lcm(*[d for _, d in ratios])
            flat = [n for n, _ in ratios] if common == 1 else [n * (common // d) for n, d in ratios]
            top = max(max(flat, default=0), -min(flat, default=0))
            nums = np.array(flat, dtype=np.int64 if top < 2**62 else object).reshape(a.shape)
    d = common * denominator
    g = gcd(d, _first_nonzero(nums)) if d != 1 else 1
    if g != 1:
        g = gcd(g, int(np.gcd.reduce(nums, axis=None)))
    if g != 1:
        nums, d = nums // g, d // g
    return nums, d


def _first_nonzero(a: np.ndarray) -> int:
    """The first nonzero entry of ``a`` in row-major order, 0 if there is none;
    scanned one leading slice at a time, since a tensor's first nonzero lies near its start."""
    for block in a if a.ndim > 1 else [a]:
        hit = np.flatnonzero(block)
        if hit.size:
            return int(block.flat[hit[0]])
    return 0


def fraction_array(values, denominator: int) -> np.ndarray:
    """The ``Fraction`` object array ``values / denominator`` of integer numerators."""
    zero = Fraction(0)
    flat = [Fraction(n, denominator) if n else zero for n in np.asarray(values).ravel().tolist()]
    return np.array(flat, dtype=object).reshape(np.shape(values))


def float_array(values, denominator: int = 1) -> np.ndarray:
    """The float64 array ``values / denominator`` of exact values, each entry rounded once as
    ``float(Fraction)`` rounds it; ``DegenerateInput`` when an entry passes the float range."""
    a = np.asarray(values)
    try:
        return np.array([v / denominator for v in a.ravel().tolist()], dtype=float).reshape(a.shape)
    except OverflowError as exc:
        raise DegenerateInput(f"an exact value passes the float range ({exc})") from None


def max_abs(a) -> Fraction | float:
    """Sup norm of an array; the zero of the ambient scalar type if empty.

    int64 and float64 arrays take the larger of |min| and |max|: two passes
    and no |a| temporary, with the value, type and sign bit of
    ``np.abs(a).max()`` (0.0 for -0.0, and NaN propagates), except that an
    int64 min of -2^63, which ``np.abs`` wraps to itself, gives the Python int 2^63.
    """
    a = np.asarray(a)
    if a.size == 0:
        return Fraction(0) if a.dtype == object else 0.0
    if a.dtype == np.int64 or a.dtype == np.float64:
        low = a.min()
        return 2**63 if a.dtype == np.int64 and low == -(2**63) else max(np.abs(a.max()), np.abs(low))
    return np.abs(a).max()


def negligible(value, mode: ScalarMode, scale=1):
    """The one zero test: ``value == 0`` in rational mode, else ``|value| <= tol * scale``.

    ``scale`` is the size of the quantity tested (|R| for tensor identities,
    |R|^2 for commutators, the largest eigenvalue or entry of a matrix, 1 for
    dimensionless quantities), so the verdict does not change when the data
    is scaled.  Works elementwise on arrays.
    """
    if mode.exact:
        return value == 0
    return abs(value) <= mode.tol * scale


def fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def is_selfadjoint(a: np.ndarray, mode: ScalarMode | None = None) -> bool:
    mode = mode or mode_of(a)
    dev = max_abs(a - a.T)
    return dev == 0 or negligible(dev, mode, max_abs(a))  # an exact zero needs no scale


def require_selfadjoint(a: np.ndarray, mode: ScalarMode | None = None, what: str = "operator"):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidOperator(f"{what} must be a square matrix, got shape {a.shape}")
    if not is_selfadjoint(a, mode):
        raise InvalidOperator(f"{what} is not symmetric")


def eig_selfadjoint(a: np.ndarray):
    """Eigendecomposition of a symmetric float matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal matrix columns.  Float mode only: exact
    rational inputs should use ranks/kernels instead of spectra.
    """
    a = np.asarray(a)
    if a.dtype == object:
        raise InvalidOperator("eig_selfadjoint is float-only; rational callers use ranks/kernels")
    vals, vecs, _ = _eigensplit_float(a.astype(float), FLOAT)
    return vals, vecs


def _eigensplit_float(j: np.ndarray, mode: ScalarMode):
    """The one float eigen-split of a symmetric matrix (``InvalidOperator``
    otherwise): ``(eigenvalues, eigenvectors as matrix columns, keep)`` from
    one eigh, where ``keep`` marks the eigenvalues above
    tol * max|eigenvalue|; the rest span the kernel."""
    require_selfadjoint(j, mode)
    vals, vecs = np.linalg.eigh(j.astype(float))
    return vals, vecs, ~negligible(vals, mode, max_abs(vals))


def _pivot_columns(a: np.ndarray) -> list[int]:
    """Pivot columns of a rational matrix by fraction-free (Bareiss) elimination:
    the columns independent of those before them; their count is the rank."""
    rows = [integer_array(row)[0].tolist() for row in a]  # row scaling keeps column dependencies
    n = len(rows)
    if n == 0:
        return []
    ncols = len(rows[0])
    prev = 1
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, n):
            ric = rows[i][c]
            ri, rr = rows[i], rows[r]
            for k in range(c, ncols):
                ri[k] = (ri[k] * p - ric * rr[k]) // prev
        prev = p
        pivots.append(c)
    return pivots


def rank_with_mode(a: np.ndarray, mode: ScalarMode | None = None) -> int:
    """Rank of a symmetric matrix: the number of ``_pivot_columns`` (exact) or
    of eigenvalues that ``_eigensplit_float`` keeps (float), so a float rank
    and a basis built from it come from one decomposition."""
    a = np.asarray(a)
    mode = mode or mode_of(a)
    if not mode.exact:
        return int(np.count_nonzero(_eigensplit_float(a, mode)[2]))
    require_selfadjoint(a, mode)
    return len(_pivot_columns(a))


def require_int(value, low: int, name: str) -> int:
    """``value`` if it is an integer (a bool is not) of at least ``low``, else ``DegenerateInput``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise DegenerateInput(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def read_only(*arrays) -> tuple:
    """The arrays, each made read-only in place: the constants that per-m caches share."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng`` of a seed that is an integer >= 0: every seeded draw starts here."""
    return np.random.default_rng(require_int(seed, 0, "seed"))


def random_unit_vector(m: int, seed: int) -> np.ndarray:
    """Seeded uniform point on the unit sphere (Gaussian, normalized)."""
    if m < 1:
        raise InvalidDimension("dimension must be >= 1")
    rng = seeded_rng(seed)
    while True:
        v = rng.standard_normal(m)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def random_rational_unit_vector(m: int, seed: int, span: int = 4) -> np.ndarray:
    """Seeded exact-unit-norm rational vector.

    Rational points on the sphere come from the stereographic parametrization
    x = ((1 - |t|^2), 2t) / (1 + |t|^2) with rational t, followed by a seeded
    signed permutation of the coordinates.
    """
    if m < 1:
        raise InvalidDimension("dimension must be >= 1")
    rng = seeded_rng(seed)
    if m == 1:
        return np.array([Fraction(1 if rng.integers(0, 2) else -1)], dtype=object)
    t = [
        Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, span + 1)))
        for _ in range(m - 1)
    ]
    s = sum(ti * ti for ti in t)
    head = (1 - s) / (1 + s)
    rest = [2 * ti / (1 + s) for ti in t]
    raw = [head, *rest]
    perm = rng.permutation(m)
    signs = rng.integers(0, 2, size=m) * 2 - 1
    out = np.empty(m, dtype=object)
    for i in range(m):
        out[int(perm[i])] = Fraction(int(signs[i])) * raw[i]
    return out


def orthonormalize_exact(vs: list[np.ndarray]) -> list[np.ndarray]:
    """Exact Gram-Schmidt.

    Raises DegenerateInput when the input is dependent, or when a resulting
    norm is an irrational square root (no rational orthonormal basis exists;
    use float mode for such inputs).
    """
    out: list[np.ndarray] = []
    for v in vs:
        u = np.array([Fraction(x) for x in v], dtype=object)
        for b in out:
            u = u - np.dot(b, u) * b
        n2 = Fraction(np.dot(u, u))
        if n2 == 0:
            raise DegenerateInput("vectors are linearly dependent")
        root = fraction_sqrt(n2)
        if root is None:
            raise DegenerateInput(
                "no rational orthonormalization exists for these vectors; use float mode"
            )
        out.append(u / root)
    return out


def complete_orthonormal_exact(vs: list[np.ndarray], m: int) -> list[np.ndarray]:
    """Extend exactly-orthonormal rational vectors to a full orthonormal basis.

    Works by accumulating Householder reflections (each maps v_i to e_i and
    has rational entries because the inputs are unit vectors), so the
    completion is rational for *any* rational orthonormal input.
    Returns only the m - len(vs) new vectors.
    """
    k = len(vs)
    h = eye(m, RATIONAL)
    for i, v in enumerate(vs):
        u = np.dot(h, np.array([Fraction(x) for x in v], dtype=object))
        w = u.copy()
        w[i] = w[i] - 1
        n2 = Fraction(np.dot(w, w))
        if n2 != 0:
            h = h - np.outer(w, np.dot(w, h)) * (Fraction(2) / n2)
    # h maps v_j to e_j; rows k..m-1 of h are the orthocomplement
    return [h[j, :].copy() for j in range(k, m)]


def orthocomplement_basis(vs: list[np.ndarray], mode: ScalarMode | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the orthocomplement of span(vs).

    Together with an orthonormalization of ``vs`` the result is a full
    orthonormal basis.  Exact mode requires the orthonormalization of ``vs``
    to stay rational (always true for unit inputs completed one at a time).
    """
    if not vs:
        raise DegenerateInput("need at least one spanning vector")
    m = len(vs[0])
    if any(len(v) != m for v in vs):
        raise DegenerateInput("spanning vectors must share one dimension")
    if len(vs) > m:
        raise DegenerateInput("more vectors than the dimension allows")
    if mode is None:
        mode = mode_of(np.asarray(vs[0]))
    if mode.exact:
        ortho = orthonormalize_exact(vs)
        return complete_orthonormal_exact(ortho, m)
    a = np.column_stack([np.asarray(v, dtype=float) for v in vs])
    q, r = np.linalg.qr(a, mode="complete")
    diag = np.diag(r[: len(vs), : len(vs)])
    if diag.size < len(vs) or np.any(negligible(diag, mode, max_abs(a))):
        raise DegenerateInput("vectors are numerically dependent")
    return [q[:, j].copy() for j in range(len(vs), m)]
