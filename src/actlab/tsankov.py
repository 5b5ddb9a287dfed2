"""Commutators of Jacobi operators and the commutation decision procedures.

The field of commutators ``C(x,y) = J(x)J(y) - J(y)J(x)`` is a matrix of
bihomogeneous polynomials of bidegree (2,2) in (x,y).  Two decisions are
implemented on it:

* ``full_commutation_test`` -- does C vanish identically?  Only the zero
  tensor passes.
* ``tsankov_test`` -- does C vanish whenever x is orthogonal to y?

Each decision takes the cheapest certificate that settles it (``_decide``):

1. the zero tensor holds;
2. for rational ``tsankov_test``, an equality R = c R0, with c read off
   R(e_0, e_1, e_1, e_0) and checked with R's entries in place on the
   2m(m - 1) positions of ``_r0_pattern`` and a count of R's nonzeros
   (``_r0_fit``), proves that C vanishes on orthogonal pairs, as it does
   for c R0; in even m, when J(e_0) has rank one, as
   it has for every nonzero c R_Theta, (c, Theta) is read off J(e_0)
   (``jacobi._recover``), and an equality R = c R_Theta, checked with R's
   entries in place (``_rtheta_fit``), does the same: on the at most 3m^2
   positions of ``_r_theta_pattern`` when Theta has one nonzero a row, at
   every m, else on its numerators rebuilt in blocks.  Each equality is
   the whole certificate;
3. in rational mode, a nonzero commutator at a pair of round 0 of the
   seeded witness search (``_witness_rounds``), exactly orthogonal for
   ``tsankov_test``, proves failure and is the witness; in float mode, a
   commutator above ``tol |R|^2`` at one of a few seeded pairs, drawn once
   per dimension (``_screen_pairs``), proves failure;
4. for float ``tsankov_test``, a fit as c R0, then as c R_Theta
   (``_fit``), within ``tol |R|``, proves commutation.  Float mode fits
   only here, after the screen: a fit that close can coexist with a
   commutator above ``tol |R|^2``;
5. otherwise the commutator polynomial is expanded.  Full commutation
   holds iff every coefficient is zero; orthogonal commutation iff the
   pairing form q(x,y) = sum_i x_i y_i divides every entry, since the zero
   set of q is an irreducible quadric with dense real points.  With leading
   term x0*y0 a remainder of division by q has no x0*y0 term, so the only
   possible quotient is read off the coefficients, and multiplying it back
   by q decides (``divisible_by_pairing``).

Every failure reports the seeded search's witness; a rational step 5
failure resumes it at round 1, so no round runs twice.  Each rational
certificate is exact, so the order changes no verdict and no witness: no
commutator of an exact c R0 or c R_Theta is nonzero, and the search stops
at its first round with a violator.

No verdict rests on the classification theorem, which only predicts that
the accepts left to step 5 are the c R_Theta whose Theta is irrational
(rational mode) or whose fit misses the tolerance (float mode).  Float
steps 3 and 5 compare at ``tol |R|^2`` on 2^-e R with max|R| in [1/2, 1)
(``_binary_scaled``), so no commutator underflows or overflows; the float
search then reports its largest nonzero commutator, below that too.

Pairs are drawn in blocks (``_sample_pairs``) and contracted on the
symmetric half of J (``_Contraction``), the n x n table, n = m(m+1)/2, that
``commutator_poly`` expands too (``_jacobi_table``), in slices of bounded
size.  Exact commutators take the fastest tier their bounds allow, and
every tier gives the same integers, so no exact witness depends on it.
Float witness norms may move in their low bits with the BLAS summation
order; the certificates, not the search, decide float verdicts.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ClassificationInconsistency, DegenerateInput, InvalidPolynomial, NotRankOne
from .jacobi import _binary_scaled, _is_rank_one, _recover, jacobi, recover_complex_structure
from .scalars import SLICE_ENTRIES, ScalarMode, exact_cast, exact_dtype, max_abs, negligible, require_int
from .scalars import read_only, seeded_rng
from .tensors import CurvatureTensor, _coerce_vector, _r0_pattern, _r_theta_blocks, _r_theta_pattern, combine
from .tensors import r0, r_theta

__all__ = [
    "Witness",
    "TsankovVerdict",
    "BiQuadraticMatrixPoly",
    "BilinearMatrixPoly",
    "commutator",
    "commutator_poly",
    "divisible_by_pairing",
    "full_commutation_test",
    "tsankov_test",
]

@dataclass
class Witness:
    """A pair with a nonzero Jacobi commutator.

    ``commutator_norm`` is the sup norm of the commutator evaluated at the
    unit rescaling of (x, y): max|C(x,y)| / (<x,x> <y,y>).  Exact-mode
    witnesses keep integer (generally non-unit) coordinates, Python ints in
    object arrays, because the unit rescaling itself may be irrational; the
    reported norm already refers to unit vectors.  Float-mode coordinates
    are float64.
    """

    x: np.ndarray
    y: np.ndarray
    commutator_norm: object


@dataclass
class TsankovVerdict:
    holds: bool
    witness: Witness | None
    method: str


def commutator(R: CurvatureTensor, x, y) -> np.ndarray:
    """J(x)J(y) - J(y)J(x); antisymmetric since both factors are symmetric."""
    x = _coerce_vector(x, R)
    y = _coerce_vector(y, R)
    jx, jy = jacobi(R, x), jacobi(R, y)
    return np.dot(jx, jy) - np.dot(jy, jx)


# ---------------------------------------------------------------------------
# polynomial containers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _MatrixPoly:
    """Coefficients ``values / denominator`` of an antisymmetric matrix of polynomials.

    ``values[slot, r, c]`` is the coefficient at the matrix position (a, b)
    of the slot, in ``np.triu_indices(m, 1)`` order, of the monomial in x
    with index tuple ``_rows(m)[r]`` times the one in y with ``_rows(m)[c]``; the
    lower triangle is the negative and the diagonal is zero.  Values are
    float64 over 1, or exact integer numerators (int64, Python ints from
    2^62 on) over one denominator, which need not be reduced.  The array is
    the one input form; ``entries`` builds the one dict view on each access,
    as ``CurvatureTensor.components`` does.
    """

    m: int
    mode: ScalarMode
    values: np.ndarray
    denominator: int = 1

    def __post_init__(self):
        n = len(self._rows(self.m))
        if np.shape(self.values) != (self.m * (self.m - 1) // 2, n, n):
            raise InvalidPolynomial(f"values of shape {np.shape(self.values)} do not fit m={self.m}")

    @property
    def entries(self) -> dict:
        """``{(a, b): {key: coeff}}`` over a < b, nonzero coefficients only."""
        # one pass over the nonzeros; their slots come out sorted, so each slot is one run
        values = self.values
        flat = np.flatnonzero(values)
        slots, r, c = np.unravel_index(flat, values.shape)
        rows = self._rows(self.m)
        keys = list(zip(*np.concatenate([rows[r].T, rows[c].T]).tolist()))
        coeffs = values.reshape(-1)[flat].tolist()
        if self.mode.exact:
            coeffs = [Fraction(n, self.denominator) for n in coeffs]
        positions = zip(*(t.tolist() for t in np.triu_indices(self.m, 1)))
        cuts = np.searchsorted(slots, np.arange(len(values) + 1)).tolist()
        return {
            pos: dict(zip(keys[lo:hi], coeffs[lo:hi]))
            for pos, lo, hi in zip(positions, cuts, cuts[1:])
            if lo < hi
        }

    def max_coeff(self):
        top = max_abs(self.values)
        return Fraction(int(top), self.denominator) if self.mode.exact else float(top)

    def is_zero(self, zero_tol=None) -> bool:
        """Every coefficient is zero; a float caller may pass an absolute
        ``zero_tol`` to accept |c| <= zero_tol instead (rational mode ignores it)."""
        if self.mode.exact or zero_tol is None:
            return not self.values.any()
        return self.max_coeff() <= zero_tol


class BiQuadraticMatrixPoly(_MatrixPoly):
    """Matrix-valued bidegree-(2,2) polynomial, antisymmetric in the matrix slot.

    ``values[slot, I, K]`` is the coefficient of x_i x_j y_k y_l, for the
    canonical pairs I = (i, j) and K = (k, l) (i <= j, k <= l) in
    ``np.triu_indices(m)`` order.  ``entries[(a, b)]`` with a < b maps
    canonical monomials (i, j, k, l) to coefficients.
    """

    @staticmethod
    def _rows(m):
        return np.stack(np.triu_indices(m), axis=1)


class BilinearMatrixPoly(_MatrixPoly):
    """Matrix-valued bidegree-(1,1) polynomial (the quotient by the pairing form).

    ``values[slot, p, q]`` is the coefficient of x_p y_q, and
    ``entries[(a, b)]`` with a < b maps (p, q) to it.
    """

    @staticmethod
    def _rows(m):
        return np.arange(m)[:, None]

    def multiply_pairing(self) -> BiQuadraticMatrixPoly:
        """(sum_t x_t y_t) * L on canonical monomials."""
        m, L = self.m, self.values
        if self.mode.exact:
            L = exact_cast(L, 2 * int(max_abs(L)))  # at most two terms meet per monomial
        pair = _half_table_index(m)[0]  # pair[i, j]: the position of {i, j} among the n pairs
        n = m * (m + 1) // 2
        out = np.zeros((len(L), n * n), dtype=L.dtype)
        # x_t y_t x_p y_q is the monomial with pairs {p, t} and {q, t}
        p, q, t = np.indices((m, m, m)).reshape(3, -1)
        np.add.at(out, (slice(None), pair[p, t] * n + pair[q, t]), L[:, p, q])
        return BiQuadraticMatrixPoly(m, self.mode, out.reshape(len(L), n, n), self.denominator)


# ---------------------------------------------------------------------------
# commutator polynomial
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _half_table_index(m: int):
    """Where the half table of J sits in the flat numerators, built once per m.

    Rows are the pairs I = (i, j), i <= j: the m diagonal pairs (i, i), then
    the pairs i < j in ``np.triu_indices(m, 1)`` order; ``(ri, rj)`` lists
    them, and ``order`` lists the rows in ``np.triu_indices(m)`` order.
    Columns are the pairs A = (a, b), a <= b, in ``np.triu_indices(m)``
    order, and ``full[a, b]`` is the column of {a, b}, which mirrors a half
    J to the full one.  ``_jacobi_table`` gathers the one table that
    ``commutator_poly`` and the scan read from ``V.reshape(-1)`` as
    ``flat[first]``, with ``flat[second]`` added to the rows from m on.
    Returns ``(full, order, ri, rj, first, second)``, all read-only.
    """
    ci, cj = np.triu_indices(m)
    oi, oj = np.triu_indices(m, 1)
    ri, rj = np.concatenate([np.arange(m), oi]), np.concatenate([np.arange(m), oj])
    # V[b, i, j, a] lies at ((b m + i) m + j) m + a in the flat numerators
    first = ((cj * m + ri[:, None]) * m + rj[:, None]) * m + ci
    second = ((cj * m + oj[:, None]) * m + oi[:, None]) * m + ci
    full = np.empty((m, m), dtype=np.intp)
    full[ci, cj] = full[cj, ci] = np.arange(len(ci))
    return read_only(full, np.argsort(full[ri, rj]), ri, rj, first, second)


def _jacobi_table(R: CurvatureTensor) -> np.ndarray:
    """The x_i x_j coefficient of J(x)[a, b] as s[I, A], laid out by
    ``_half_table_index``, in the dtype of ``R.values``: V[b,i,i,a] on the
    diagonal rows, V[b,i,j,a] + V[b,j,i,a] on the others."""
    first, second = _half_table_index(R.m)[4:]
    flat = R.values.reshape(-1)
    s = flat[first]
    s[R.m :] += flat[second]  # below 2^63 even in int64: V is int64 only below 2^62
    return s


def commutator_poly(R: CurvatureTensor) -> BiQuadraticMatrixPoly:
    """Expand C(x,y) = J(x)J(y) - J(y)J(x) into canonical coefficients.

    With s[a, c, I] the x^I coefficient of J(x)[a, c], read off
    ``_jacobi_table`` in ``np.triu_indices(m)`` row order, slot (a, b) is
    T[I, K] - T[K, I] for T = sum_c s[a, c, I] s[c, b, K]: one matmul per
    row a.  Exact numerators N give coefficients of magnitude at most
    8 m max|N|^2 over d^2, and ``scalars.exact_dtype`` of that bound picks
    the tier: an exact float64 GEMM, int64, or Python ints.  Evaluating the
    result at any concrete (x, y) reproduces ``commutator(R, x, y)``,
    exactly so in rational mode.
    """
    m = R.m
    full, order = _half_table_index(m)[:2]
    s = _jacobi_table(R)[order, full[..., None]]  # s[a, c, I], I in np.triu_indices(m) order
    if R.mode.exact:
        maxv = R.max_value
        tier = exact_dtype(8 * m * maxv * maxv)
        s = s.astype(tier, copy=False)
        store = object if tier == object else np.int64
    else:
        store = np.float64
    n = len(order)
    rhs = s.reshape(m, m * n)  # rhs[c, (b, K)] = s[c, b, K]
    out = np.empty((m * (m - 1) // 2, n, n), dtype=store)
    start = 0
    for a in range(m - 1):
        t = (s[a].T @ rhs[:, (a + 1) * n :]).reshape(n, m - a - 1, n).transpose(1, 0, 2)
        out[start : start + m - a - 1] = t - t.transpose(0, 2, 1)
        start += m - a - 1
    return BiQuadraticMatrixPoly(m, R.mode, out, R.denominator**2)


# ---------------------------------------------------------------------------
# divisibility by the pairing form
# ---------------------------------------------------------------------------


def divisible_by_pairing(P: BiQuadraticMatrixPoly, zero_tol=None) -> BilinearMatrixPoly | None:
    """The bidegree-(1,1) quotient L with P = (sum_i x_i y_i) * L, or None.

    In the lexicographic order with leading term x0 y0, the remainder of
    division by q = sum_i x_i y_i has no x0 y0 term, so if q divides P the
    quotient is read off P: L[p, q] = P[(0,p),(0,q)], less P[(0,0),(0,0)]
    when p = q > 0.  P is divisible iff q L == P, which multiplying back
    proves.  The zero polynomial is divisible (zero quotient).  In float
    mode coefficients of at most ``zero_tol`` (default tol * max|coeff|,
    the ``negligible`` rule at the polynomial's own scale) count as zero in
    P, in L and in P - q L.
    """
    m, v = P.m, P.values
    if P.mode.exact:
        v = exact_cast(v, 2 * int(max_abs(v)))  # |L| <= 2 max|P|; q L is compared with P, not subtracted
    else:
        zt = zero_tol if zero_tol is not None else P.mode.tol * P.max_coeff()
        small = lambda a: np.abs(a) <= zt  # noqa: E731
        v = np.where(small(v), 0.0, v)
    L = v[:, :m, :m].copy()  # the pairs (0, p) come first in canonical order
    diag = np.arange(1, m)
    L[:, diag, diag] -= v[:, :1, 0]
    if not P.mode.exact:
        L[small(L)] = 0.0
    quotient = BilinearMatrixPoly(m, P.mode, L, P.denominator)
    product = quotient.multiply_pairing().values
    if not ((v == product).all() if P.mode.exact else small(v - product).all()):
        return None
    return quotient


# ---------------------------------------------------------------------------
# sampling machinery
# ---------------------------------------------------------------------------


def _sample_pairs(rng, m: int, n: int, exact: bool, orthogonal: bool, span: int = 4):
    """n deterministic (x, y) pairs as two (n, m) arrays, orthogonal exactly when requested.

    The pairs are drawn in blocks.  A block takes, in one generator call,
    2k rows for the k pairs still missing and pairs row 2i (x) with row
    2i + 1 (v); y is v, or v projected off x when ``orthogonal``.  It keeps,
    in order, the pairs whose x and y are nonzero, and the next block
    replaces the pairs it drops.  Exact pairs are int64 with
    y = <x,x> v - <v,x> x, so their entries are at most 2 m span^3; float
    pairs are unit vectors, and a float row counts as zero when its norm is
    at most 1e-8.
    """
    if exact:
        draw = lambda count: rng.integers(-span, span + 1, size=(count, m))  # noqa: E731
        dot = lambda a, b: np.einsum("...i,...i", a, b)[..., None]  # noqa: E731
        project = lambda v, x: dot(x, x) * v - dot(v, x) * x  # noqa: E731
        unit = lambda a: (a, a.any(axis=-1))  # noqa: E731
    else:
        draw = lambda count: rng.standard_normal((count, m))  # noqa: E731
        # float rows keep this summation order, on which their bits depend
        dot = lambda a, b: (a * b).sum(axis=-1, keepdims=True)  # noqa: E731
        project = lambda v, x: v - dot(v, x) * x  # noqa: E731

        def unit(a):  # rows scaled to unit length, and which of them are long enough
            norm = np.sqrt(dot(a, a))
            long = norm > 1e-8
            return a / np.where(long, norm, 1.0), long[..., 0]

    xs, ys = [], []
    while True:
        rows = draw(2 * n)
        x, kx = unit(rows[0::2])
        y, ky = unit(project(rows[1::2], x) if orthogonal else rows[1::2])
        keep = kx & ky
        if not xs and keep.all():  # all kept: the first block's arrays, with no mask copies
            return x, y
        xs.append(x[keep])
        ys.append(y[keep])
        n -= int(keep.sum())
        if not n:
            return np.concatenate(xs), np.concatenate(ys)


class _Contraction:
    """Commutators C of a batch of integer or float pairs, for one tensor.

    Everything that depends on the tensor and not on the rows is done once,
    here: the table s of ``_jacobi_table`` (``table`` when the caller has
    it), ``scale`` (true commutators are C / scale; None in float mode)
    and, for exact tensors, the tiers.  ``jacobis`` then contracts the
    products x_i x_j, i <= j, shape (p, n), against s, shape (n, n), and
    mirrors the half J to the full one, so that J is exactly symmetric in
    both modes; ``sup_norms`` takes max|C| of each P = J(x) J(y), with
    C = P - P^T, which is J(x) J(y) - J(y) J(x) since both factors are
    symmetric.  Both take any rows of the batch.  ``sup_norms`` reduces
    axes 1 and 2 of P, so a batch axis may also come last, as in
    ``_basis_raws``' grid P[a, r, c, K], where K innermost keeps both
    operands of P - P^T contiguous; ``integers`` then turns the exact raws
    of the float64 tier into int64 once per batch.

    Exact tiers rest on these bounds, over the whole batch.  With
    b(x) = |x|_1^2 max|V|, |x|_1 and max|V| raised to at least 1,

    * every product x_i x_j is at most |x|_1^2 <= b(x);
    * every table entry is at most 2 max|V|;
    * every partial sum of J(x)[a, b] = sum_{i<=j} s[I, A] x_i x_j is at most
      sum_{i<=j} |s[I, A]| |x_i x_j| <= sum_{i,j} max|V| |x_i| |x_j| = b(x),
      since the two terms of an off-diagonal entry take the two ordered
      products x_i x_j and x_j x_i;
    * every partial sum of an entry of P, a sum of m products of J entries,
      is at most m max_p b(x_p) max_p b(y_p), and an entry of C is the
      difference of two such sums.

    So J runs on ``exact_dtype(max(bJ, 2 max|V|))`` with
    bJ = max_p max(b(x_p), b(y_p)), and P and C on ``exact_dtype(bC)``
    with bC = 2 m max_p b(x_p) max_p b(y_p), taken in Python ints, since
    their squares can pass 2^63; each tier is exact in any summation order
    and with any number of BLAS threads (``exact_dtype``).  C comes back as
    int64, or as Python ints past 2^62.  Float tensors take the same
    contraction in float64, and their low bits depend on the BLAS order.
    """

    def __init__(self, R: CurvatureTensor, xs, ys, table=None):
        self.exact = R.mode.exact
        self.full, _, self.ri, self.rj = _half_table_index(R.m)[:4]
        if self.exact:
            xa, ya = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
            maxv = max(R.max_value, 1)
            bx, by = (max(int(np.abs(a).sum(axis=1).max(initial=0)), 1) ** 2 * maxv for a in (xa, ya))
            self.jdt, self.cdt = exact_dtype(max(bx, by, 2 * maxv)), exact_dtype(2 * R.m * bx * by)
            self.scale = R.denominator**2
        else:
            self.jdt = self.cdt = np.dtype(np.float64)
            self.scale = None
        self.s = (_jacobi_table(R) if table is None else table).astype(self.jdt, copy=False)

    def widen(self, half):
        """Half J rows on the P tier: exact float64 J passes through int64 on its way to Python ints."""
        return half.astype(np.int64).astype(self.cdt) if self.jdt != self.cdt else half

    def jacobis(self, a):
        """J(a_p) of each row: the numerators over ``R.denominator`` when exact."""
        a = np.asarray(a, dtype=self.jdt)
        return self.widen((a[:, self.ri] * a[:, self.rj]) @ self.s)[:, self.full]

    def sup_norms(self, p, out=None):
        """max|P - P^T| over axes 1 and 2 of P, the matrix axes of P[p, r, c, ...]: raw commutator
        norms on the P tier (into ``out`` when given).  C = P - P^T holds -c wherever it holds c,
        exactly in float64 too, so max C is max|C|."""
        return (p - p.swapaxes(1, 2)).max(axis=(1, 2), out=out)

    def integers(self, raws):
        """Raws as integers: exact raws of the float64 tier become int64, others stay as they are."""
        return raws.astype(np.int64) if self.exact and self.cdt == np.float64 else raws

    def slice_raws(self, xa, ya):
        """``(start, raws)`` for the pairs in slices of at most ``SLICE_ENTRIES / m^2``,
        exact raws as integers."""
        m = len(self.full)
        step = max(1, SLICE_ENTRIES // (m * m))
        xa, ya = np.asarray(xa, dtype=self.jdt), np.asarray(ya, dtype=self.jdt)
        for start in range(0, len(xa), step):
            x, y = xa[start : start + step], ya[start : start + step]
            yield start, self.integers(self.sup_norms(np.matmul(self.jacobis(x), self.jacobis(y))))


def _float_threshold(R: CurvatureTensor):
    """tol |R|^2 in float mode, None in rational mode: the one threshold of the
    certificate and the witness search, since commutators are quadratic in R."""
    if R.mode.exact:
        return None
    scale = float(R.max_abs())
    return R.mode.tol * (scale * scale)


def _scaled(v, e):
    """v 2^e in v's type, inf or 0.0 past the float range; a witness of 2^-e R as one of R."""
    if not e:
        return v
    if isinstance(v, Witness):
        return Witness(v.x, v.y, _scaled(v.commutator_norm, 2 * e))
    with np.errstate(over="ignore", under="ignore"):
        return type(v)(np.ldexp(v, e))


def _squared_norms(a):
    """<a_p, a_p> of each row: float64 row sums for float rows, exact ones for integer rows.

    The int64 row sums are exact while m max|a|^2 < 2^62.  That holds for
    every sampled pair through m = 61, since entries are at most
    2 m span^3 with span <= 130 (``_witness_rounds``' widest); past that
    bound the sums run on Python ints.
    """
    if a.dtype == np.int64:
        a = exact_cast(a, a.shape[1] * int(max_abs(a)) ** 2)
        if a.dtype == np.int64:
            return np.einsum("ij,ij->i", a, a)
    return (a * a).sum(axis=1)


def _largest(raws, nx, ny, scale):
    """``(p, norm)`` for the pair with the largest nonzero raw / (nx ny), or None.

    ``nx`` and ``ny`` hold each pair's |x|^2 and |y|^2, and ties go to the
    earlier pair.  Exact norms raw / (scale nx ny) are compared by integer
    cross-multiplication, and only the winner gets its ``Fraction``.  Float
    norms (``scale`` None) are compared as computed, and BLAS may round a
    pair differently at another place in its slice (gemv for one row), so
    earliest-wins is exact for them only on integer-valued data.
    """
    if not len(raws):
        return None
    if scale is None:
        # a zero raw has ratio 0, below every nonzero one, and NaN wins as it does among the nonzero
        k = int(np.argmax(raws / (nx * ny)))
        return None if not raws[k] else (k, _norm(raws[k], nx[k], ny[k], scale))
    # the float ratio r rounds raw, nx, ny, their product and the quotient once
    # each, so it is within a relative 5 eps of the exact ratio (first order), and
    # r >= max r (1 - 2^-30) keeps every pair whose exact ratio ties or beats the
    # largest, and no zero raw while one is nonzero; Python-int raws can pass the
    # float range, so they keep every nonzero pair
    if raws.dtype == object:
        keep = np.flatnonzero(raws)
    else:
        r = raws / (nx.astype(float) * ny.astype(float))
        best = r.max()
        if not best:
            return None
        keep = np.flatnonzero(r >= best * (1 - 2**-30))
    k = None
    for i, raw, a, b in zip(keep.tolist(), raws[keep].tolist(), nx[keep].tolist(), ny[keep].tolist()):
        if k is None or raw * den > top * a * b:
            k, top, den = i, raw, a * b
    return None if k is None else (k, _norm(raws[k], nx[k], ny[k], scale))


def _norm(raw, nx, ny, scale):
    """The commutator norm raw / (scale nx ny): a ``Fraction`` when exact, else a float."""
    return float(raw / (nx * ny)) if scale is None else Fraction(int(raw), scale * int(nx) * int(ny))


def _first_violation(R, xs, ys, table=None):
    """``(p, raw, scale)`` for the first violating pair, or None.

    A violator's commutator is nonzero, or above ``_float_threshold`` in
    float mode.  One ``_Contraction`` (on ``table`` when the caller has it)
    serves the scan, in slices of at most ``SLICE_ENTRIES / m^2`` pairs, so
    every (p, m, m) float64 temporary stays at or below 128 KiB, where glibc
    serves it from the heap instead of a fresh mmap.  The scan stops at the
    first slice with a hit.  ``_decide``'s screen reads only whether it is None.
    """
    xa, ya = np.asarray(xs), np.asarray(ys)
    contraction = _Contraction(R, xa, ya, table)
    thr = _float_threshold(R)
    for start, raws in contraction.slice_raws(xa, ya):
        hits = np.flatnonzero(raws if thr is None else raws > thr)
        if hits.size:
            return start + int(hits[0]), raws[hits[0]], contraction.scale
    return None


def _violation_scan(R, xs, ys):
    """The first violating pair, ``(p, Witness(xs[p], ys[p], norm))``, or None: the
    ``_first_violation``, and only that pair gets its |x|^2 |y|^2."""
    found = _first_violation(R, xs, ys)
    if found is None:
        return None
    p, raw, scale = found
    xa, ya = np.asarray(xs), np.asarray(ys)
    nx, ny = _squared_norms(xa[p : p + 1])[0], _squared_norms(ya[p : p + 1])[0]
    return p, Witness(xs[p], ys[p], _norm(raw, nx, ny, scale))


@lru_cache(maxsize=None)
def _basis_candidates(m: int):
    """The small deterministic pairs tried before random sampling, built once per m.

    The pairs, orthogonal by construction and each family in lexicographic
    order: (e_a, e_b), a != b; (e_a, e_b + e_c), b < c, a not in {b, c};
    (e_a + e_b, e_a - e_b), a < b.  ``_basis_raws`` evaluates J(e_a) against
    Y_K for every half-table row K, in (a, K) order, then the last family;
    the first two are its (a, K) with a not in K, diagonal K first.  Returns
    ``(index, xs, ys, nx, ny)``: each candidate's place in that order, its x
    and y rows, |x|^2 and |y|^2, all int64 and read-only (searches share them).
    """
    ri, rj = _half_table_index(m)[2:4]
    n = len(ri)
    a, k = np.nonzero((ri != np.arange(m)[:, None]) & (rj != np.arange(m)[:, None]))
    first = np.argsort(k >= m, kind="stable")  # the pairs (e_a, e_b) first
    a, k = a[first], k[first]
    off = np.arange(m, n)  # the rows b < c, for (e_b + e_c, e_b - e_c)
    index = np.concatenate([a * n + k, m * n + off - m])
    xs, ys = np.zeros((2, len(index), m), dtype=np.int64)
    p, q = np.arange(len(a)), np.arange(len(a), len(index))
    xs[p, a] = ys[p, ri[k]] = ys[p, rj[k]] = 1
    xs[q, ri[off]] = xs[q, rj[off]] = ys[q, ri[off]] = 1
    ys[q, rj[off]] = -1
    return read_only(index, xs, ys, (xs * xs).sum(axis=1), (ys * ys).sum(axis=1))


@lru_cache(maxsize=None)
def _screen_pairs(m: int, orthogonal: bool):
    """The float screen's ``SCREEN_PAIRS`` pairs from ``SCREEN_SEED``, drawn by ``_sample_pairs``
    once per (m, orthogonal), on which alone they depend; read-only (screens share them)."""
    return read_only(*_sample_pairs(seeded_rng(SCREEN_SEED), m, SCREEN_PAIRS, False, orthogonal))


def _basis_raws(R: CurvatureTensor, table) -> np.ndarray:
    """The raw commutator norm of every ``_basis_candidates`` pair, in their order.

    Write S_I for row I of the Jacobi table ``table``, mirrored to a full
    matrix.  The candidates' operators are sums of at most three such rows,
    J(e_a) = S_a, J(e_b + e_c) = (S_b + S_c) + S_bc and
    J(e_a +- e_b) = (S_a + S_b) +- S_ab, added in the order in which a
    contraction adds them, since their products x_i x_j are 0 and +-1.  So
    with Y_K = S_b on the diagonal rows K = (b, b) and J(e_b + e_c) on the
    others, the first two families are P = S_a Y_K, laid out with K
    innermost: per slice, one GEMM of a block of S_a stacked by rows against
    a block of Y_K with y[t, (c, K)] = Y_K[t, c], whose product is
    P[a, r, c, K].  P - P^T then subtracts two operands whose inner axis K
    is contiguous in both, and one reduction over (r, c) writes the raws of
    the block into the (a, K) grid.  The grid computes the pairs with a in K
    too, which no candidate reads.  The third family is one batched product
    per slice, of its off-diagonal Y_K against J(e_b - e_c).  The tiers are
    ``_Contraction``'s at |x|_1 = |y|_1 = 2, so every exact raw is the
    integer a contraction of the pair gives, and each slice temporary holds
    at most ``SLICE_ENTRIES`` entries.
    """
    m = R.m
    index, xs, ys = _basis_candidates(m)[:3]
    k = _Contraction(R, xs[-1:], ys[-1:], table)  # (e_a + e_b, e_a - e_b): |x|_1 = |y|_1 = 2, the most
    s, full, ri, rj = k.s, k.full, k.ri, k.rj
    n = len(s)
    per = max(1, SLICE_ENTRIES // (m * m))  # pairs per slice
    kb = min(n, per)
    ab = min(m, per // kb)
    grid, last = np.empty((m, n), dtype=k.cdt), []
    for k0 in range(0, n, kb):
        k1 = min(n, k0 + kb)
        mid = min(max(k0, m), k1)  # the rows from m on are the pairs b < c
        both = s[ri[mid:k1]] + s[rj[mid:k1]]
        half = k.widen(np.concatenate([s[k0:mid], both + s[mid:k1]]))
        y = half.T[full].reshape(m, -1)  # y[t, (c, K)] = Y_K[t, c]
        for a0 in range(0, m, ab):
            a1 = min(m, a0 + ab)
            x = k.widen(s[a0:a1])[:, full].reshape(-1, m)  # x[(a, r), t] = S_a[r, t]
            k.sup_norms((x @ y).reshape(a1 - a0, m, m, k1 - k0), out=grid[a0:a1, k0:k1])
        # (e_b + e_c, e_b - e_c): P = Y_K J(e_b - e_c), with J(e_b - e_c) = (S_b + S_c) - S_bc
        last.append(k.sup_norms(np.matmul(half[mid - k0 :, full], k.widen(both - s[mid:k1])[:, full])))
    return k.integers(np.concatenate([grid.reshape(-1), *last])[index])


def _typed_witness(w: Witness, mode: ScalarMode) -> Witness:
    """The witness with coordinate arrays of its own, whichever pair family won:
    Python ints in an object array when exact, float64 when float."""
    kind = object if mode.exact else float
    return Witness(w.x.astype(kind), w.y.astype(kind), w.commutator_norm)


def _witness_rounds(R: CurvatureTensor, seed: int, n_samples: int, orthogonal: bool, table=None):
    """The seeded witness search, one round at a time: yields each round's witness, or None.

    Each of at most 64 rounds scans seeded random pairs over a wider span
    than the last, and round 0 scans the deterministic basis-combination
    pairs before them, reading their commutators off the Jacobi table
    ``table`` (``_basis_raws``).  One ``_largest`` pick over the round's
    raws gives the largest violator, the earliest on ties, so a candidate
    beats a sample it ties.  Every nonzero commutator counts: in rational
    mode it proves failure, and in float mode a certificate, which bounds
    coefficients instead of sampled values, already did.  A degree-4
    polynomial that is nonzero on the quadric cannot dodge random points
    indefinitely.
    """
    _, cx, cy, bx, by = _basis_candidates(R.m)
    table = _jacobi_table(R) if table is None else table
    rng = seeded_rng(seed)
    for round_no in range(64):
        xs, ys = _sample_pairs(rng, R.m, max(n_samples, 16), R.mode.exact, orthogonal, span=4 + 2 * round_no)
        contraction = _Contraction(R, xs, ys, table)
        raws = np.concatenate([raws for _, raws in contraction.slice_raws(xs, ys)])
        nx, ny, first = _squared_norms(xs), _squared_norms(ys), 0
        if round_no == 0:
            raws = np.concatenate([_basis_raws(R, table), raws])
            nx, ny, first = np.concatenate([bx, nx]), np.concatenate([by, ny]), len(cx)
        found = _largest(raws, nx, ny, contraction.scale)
        if found is not None:
            p, norm = found
            w = Witness(cx[p], cy[p], norm) if p < first else Witness(xs[p - first], ys[p - first], norm)
            found = _typed_witness(w, R.mode)
        yield found


def _first_witness(rounds) -> Witness:
    """The first witness that the ``_witness_rounds`` generator ``rounds`` has left to yield."""
    for w in filter(None, rounds):
        return w
    raise ClassificationInconsistency(
        "a nonzero commutator polynomial produced no violating sample; arithmetic is broken"
    )


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def _relative_residual(R: CurvatureTensor, recon: CurvatureTensor):
    """|R - recon| / |R| in sup norms, for a nonzero R."""
    dev = combine([(1, R), (-1, recon)]).max_abs()
    return dev / R.max_abs() if R.mode.exact else float(dev) / float(R.max_abs())


def _equal_in_place(R: CurvatureTensor, terms, g: int = 1, nonzero=None) -> bool:
    """Whether g N equals ``want`` at each ``(index, want)`` of ``terms``, N = R's flat numerators
    read in place up to the first mismatch, and N holds ``nonzero`` nonzero entries, if given."""
    flat = R.values.reshape(-1)
    for index, want in terms:
        got = flat[index] if g == 1 else exact_cast(flat[index], g * R.max_value) * g
        if not (got == want).all():
            return False
    return nonzero is None or np.count_nonzero(flat) == nonzero


def _r0_fit(R: CurvatureTensor):
    """R as c R0 for s = R(e_0, e_1, e_1, e_0), c = s / R.denominator (s in float mode):
    ``(c, None, residual)``, else None; a negligible s is none.  Exact R is c R0 iff N is s times
    ``_r0_pattern``'s units on its positions and 0 elsewhere: one ``_equal_in_place`` call, as for
    c R_Theta, with residual 0 and no rebuild.  A float R within tol |R| of those values there is
    rebuilt, and fits when its residual is negligible; the residual is at least that deviation
    over |R|, so the gate only skips rebuilds.  R is not zero."""
    positions, units = _r0_pattern(R.m)
    s = R.values[0, 1, 1, 0]
    if negligible(s, R.mode, R.max_abs()):
        return None
    if R.mode.exact:
        fits = _equal_in_place(R, [(positions, exact_cast(units, abs(s)) * s)], nonzero=positions.size)
        return (Fraction(int(s), R.denominator), None, Fraction(0)) if fits else None
    if not negligible(R.values.reshape(-1)[positions] - units * s, R.mode, R.max_abs()).all():
        return None
    residual = _relative_residual(R, r0(R.m, s, R.mode))
    return (s, None, residual) if negligible(residual, R.mode) else None


def _rtheta_fit(R: CurvatureTensor, c, cs):
    """Certify R = c R_Theta for Theta = ``cs``: ``(c, Theta, residual)``, else
    ``ClassificationInconsistency``.  As R is reduced, exact R = V / den iff den = g R.denominator
    and V = g N, compared in place (``_equal_in_place``) on ``_r_theta_pattern`` with a count of
    R's nonzeros, else (a dense Theta) block by block (``_r_theta_blocks``); only a mismatch, or
    a float R, rebuilds."""
    if (pattern := _r_theta_pattern(cs, c)) is not None:
        positions, nums, den = pattern
        terms, nonzero = [(positions, nums)], np.count_nonzero(nums)
    else:  # flat spans of the blocks' rows
        blocks, den, _ = _r_theta_blocks(cs, c)
        terms, nonzero = ((slice(r.start * R.m**3, r.stop * R.m**3), b.reshape(-1)) for r, b in blocks), None
    g, rest = divmod(den, R.denominator)
    same = R.mode.exact and not rest and _equal_in_place(R, terms, g, nonzero)
    residual = Fraction(0) if same else _relative_residual(R, r_theta(cs, c))
    if not negligible(residual, R.mode):
        raise ClassificationInconsistency(
            f"commutation holds but complex-form reconstruction fails (residual {residual})"
        )
    return c, cs, residual


def _fit(R: CurvatureTensor):
    """Fit R as c R0, else as c R_Theta with (c, Theta) from ``recover_complex_structure``:
    ``(c, Theta or None, residual)``, else ``ClassificationInconsistency``, which in odd m, where
    no Theta exists, reports why c R0 failed.  A fit counts when its relative residual is
    negligible; in rational mode that is equality, which proves that R commutes on orthogonal
    pairs, as c R0 and c R_Theta do."""
    fit = _r0_fit(R)
    if fit is not None:
        return fit
    if R.m % 2:  # the c R0 residual at the first sectional value, i < j, not negligible at |R|
        ii, jj = np.triu_indices(R.m, 1)
        sect = R.values[ii, jj, jj, ii]
        sect = sect[~negligible(sect, R.mode, R.max_abs())]
        reason = "no nonzero sectional value"
        if sect.size:
            c = Fraction(int(sect[0]), R.denominator) if R.mode.exact else sect[0]
            reason = f"residual {_relative_residual(R, r0(R.m, c, R.mode))}"
        raise ClassificationInconsistency(f"commutation holds but constant-curvature reconstruction fails ({reason})")
    try:
        return _rtheta_fit(R, *recover_complex_structure(R))
    except NotRankOne as exc:
        raise ClassificationInconsistency(
            f"commutation holds but neither c R0 nor c R_Theta fits: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# the two decision procedures
# ---------------------------------------------------------------------------

SCREEN_PAIRS = 8
SCREEN_SEED = 0x5C12EE7  # the screen's own stream, apart from the witness search's


def _decide(R: CurvatureTensor, seed: int, n_samples: int, orthogonal: bool):
    """The verdict on orthogonal (or all) pairs, and the fit behind an accept.

    The certificates run cheapest first: the zero tensor holds; for
    rational ``orthogonal``, an exact c R0 (``_r0_fit``: one in-place
    comparison on ``_r0_pattern``, c from R(e_0, e_1, e_1, e_0)), then, in
    even m with a rank-one J(e_0) (``_is_rank_one`` on its numerators), an
    exact c R_Theta holds before the Jacobi table is built: ``_recover``
    reads (c, Theta) off that J(e_0) with no second test, and
    ``_rtheta_fit`` certifies R = c R_Theta on its pattern or blocks,
    whatever produced (c, Theta).  A rational
    tensor then runs round 0 of ``_witness_rounds``, whose violator proves
    failure and is the witness.  A float tensor runs the screen on ``_screen_pairs`` instead,
    then, for ``orthogonal``, ``_fit``: a fit within tol |R| can coexist
    with a commutator above tol |R|^2 (R0 plus 3e-10 of a random tensor at
    m=5).  Only when all of these are silent is the commutator polynomial
    expanded and divided; a failure there resumes the same search, so no
    round runs twice.  Float mode decides ``_binary_scaled(R)``.

    Returns ``(verdict, fit)``: ``fit`` is the ``_fit`` tuple when a fit
    decided, else None, whether none ran or each raised
    ``ClassificationInconsistency``.
    """
    method = "ExactDivisibility" if orthogonal else "CoefficientExpansion"
    if R.is_zero():
        return TsankovVerdict(True, None, method), None
    if orthogonal and R.mode.exact:
        fit = _r0_fit(R)
        if fit is None and R.m % 2 == 0 and _is_rank_one(R.values[:, 0, 0, :]):
            with suppress(ClassificationInconsistency):
                fit = _rtheta_fit(R, *_recover(R, 0))
        if fit is not None:
            return TsankovVerdict(True, None, method), fit
    R, e = _binary_scaled(R)
    table = _jacobi_table(R)  # the search's, and the float screen's before it
    rounds = _witness_rounds(R, seed, n_samples, orthogonal, table)
    search = lambda: _scaled(_first_witness(rounds), e)  # noqa: E731
    if R.mode.exact:
        witness = next(rounds)
        if witness is not None:
            return TsankovVerdict(False, witness, method), None
    elif _first_violation(R, *_screen_pairs(R.m, orthogonal), table) is not None:
        return TsankovVerdict(False, search(), method), None
    elif orthogonal:
        with suppress(ClassificationInconsistency):
            c, cs, residual = _fit(R)
            return TsankovVerdict(True, None, method), (_scaled(c, e), cs, residual)
    poly = commutator_poly(R)
    if orthogonal:
        holds = divisible_by_pairing(poly, _float_threshold(R)) is not None
    else:
        holds = poly.is_zero(_float_threshold(R))
    return TsankovVerdict(holds, None if holds else search(), method), None


def full_commutation_test(R: CurvatureTensor, n_samples: int = 200, seed: int = 0) -> TsankovVerdict:
    """Does J(x) commute with J(y) for ALL pairs?  Only the zero tensor passes.

    Decided by the zero test and round 0 of the witness search (a seeded
    screen of pairs in float mode), else by coefficient expansion of the
    commutator polynomial; failures carry a witness pair of maximal sampled
    commutator norm (the pair need not be orthogonal).  ``seed`` and ``n_samples`` are checked
    first, as in ``tsankov_test``.
    """
    require_int(seed, 0, "seed")
    require_int(n_samples, 1, "n_samples")
    return _decide(R, seed, n_samples, orthogonal=False)[0]


def tsankov_test(
    R: CurvatureTensor, method: str = "exact", n_samples: int = 200, seed: int = 0
) -> TsankovVerdict:
    """Does J(x) commute with J(y) whenever x is orthogonal to y?

    ``method="exact"`` runs ``_decide``'s ladder in both modes: a
    reconstruction as c R0 or c R_Theta, or round 0 of the witness search
    (a seeded screen in float mode), decides when it can, else divisibility
    of the commutator polynomial by the pairing form.  It is a true decision procedure in
    rational mode; float mode compares at ``tol |R|^2`` and ``tol |R|``.
    ``method="sampled"`` draws seeded orthogonal pairs and reports the first
    violator.  Witnesses are exactly orthogonal in rational mode.  For both
    methods, a ``seed`` that is not an integer >= 0, or an ``n_samples``
    that is not an integer >= 1, is ``DegenerateInput`` before any
    certificate runs, even where no draw would use it.
    """
    require_int(seed, 0, "seed")
    require_int(n_samples, 1, "n_samples")
    method = method.lower() if isinstance(method, str) else method
    if method in ("exact", "exactdivisibility"):
        return _decide(R, seed, n_samples, orthogonal=True)[0]
    if method != "sampled":
        raise DegenerateInput(f"unknown method {method!r}; use 'exact' or 'sampled'")
    xs, ys = _sample_pairs(seeded_rng(seed), R.m, n_samples, R.mode.exact, orthogonal=True)
    R, e = _binary_scaled(R)
    found = _violation_scan(R, xs, ys)
    witness = None if found is None else _typed_witness(_scaled(found[1], e), R.mode)
    return TsankovVerdict(witness is None, witness, "Sampled")
