"""Commutators of Jacobi operators and the commutation decision procedures.

The field of commutators ``C(x,y) = J(x)J(y) - J(y)J(x)`` is a matrix of
bihomogeneous polynomials of bidegree (2,2) in (x,y).  Two decisions are
implemented on it:

* ``full_commutation_test`` -- does C vanish identically?  Only the zero
  tensor passes.
* ``tsankov_test`` -- does C vanish whenever x is orthogonal to y?

In rational mode each decision takes the cheapest certificate that settles
it, and every certificate is rigorous on its own (``_decide``):

1. the zero tensor holds;
2. a nonzero exact commutator at one of a few seeded pairs (exactly
   orthogonal for ``tsankov_test``) proves failure, and the reported
   witness then comes from the seeded witness search;
3. for ``tsankov_test``, an exact equality R = c R0 or R = c R_Theta
   (``_fit``) proves that C vanishes on orthogonal pairs, since both
   families do;
4. otherwise the commutator polynomial is expanded.  Full commutation
   holds iff every coefficient is zero.  Orthogonal commutation holds iff
   the pairing form q(x,y) = sum_i x_i y_i divides every entry: the zero
   set of q is an irreducible quadric with dense real points, so a
   bidegree-(2,2) polynomial vanishes on it iff q divides it.  In a
   lexicographic order with leading term x0*y0 the remainder of division
   by q has no x0*y0 term, so the only possible bidegree-(1,1) quotient is
   read off the coefficients, and multiplying it back by q decides
   (``divisible_by_pairing``).

Both polynomial classes store one coefficient array over one denominator,
as ``CurvatureTensor`` does, and build their ``entries`` dicts on access.

No verdict rests on the classification theorem.  The theorem only
predicts that the accepts left to step 4 are the tensors c R_Theta whose
Theta is irrational.  Float mode always decides by step 4, at the
threshold ``tol |R|^2``.

A seeded sampling mode cross-checks the decision and supplies witness
pairs for failures.  Pairs are drawn a batch at a time, with one generator
call for all rows, and evaluated in slices of bounded size.  Exact
commutators run on the fastest tier their batch bound allows: a float64
BLAS matmul while every intermediate stays below 2^53, then int64, then
Python ints (``_batch_commutators``); every tier gives the same integers,
so no witness depends on the tier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ClassificationInconsistency, DegenerateInput, InvalidPolynomial, NotRankOne
from .jacobi import jacobi, recover_complex_structure
from .scalars import ScalarMode, exact_dtype, fraction_array, integer_array, max_abs, negligible, vector, zeros
from .tensors import CurvatureTensor, _coerce_vector, combine, r0, r_theta

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
    witnesses keep rational (generally non-unit) coordinates because the
    unit rescaling itself may be irrational; the reported norm already
    refers to unit vectors.
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


def _positions(m: int) -> list:
    """The matrix positions (a, b), a < b, in slot order."""
    return list(zip(*(t.tolist() for t in np.triu_indices(m, 1))))


@dataclass(eq=False)
class _MatrixPoly:
    """Coefficients ``values / denominator`` of an antisymmetric matrix of polynomials.

    ``values[slot, r, c]`` is the coefficient at the matrix position (a, b)
    of the slot, in ``np.triu_indices(m, 1)`` order, of the monomial in x
    with index tuple ``_rows(m)[r]`` times the one in y with ``_rows(m)[c]``; the
    lower triangle is the negative and the diagonal is zero.  Values are
    float64 over 1, or exact integer numerators (int64, Python ints from
    2^62 on) over one denominator, which need not be reduced.  ``entries``
    builds the dict view on each access, as ``CurvatureTensor.components``
    does.
    """

    m: int
    mode: ScalarMode
    values: np.ndarray
    denominator: int = 1

    def __post_init__(self):
        n = len(self._rows(self.m))
        if np.shape(self.values) != (self.m * (self.m - 1) // 2, n, n):
            raise InvalidPolynomial(f"values of shape {np.shape(self.values)} do not fit m={self.m}")

    @classmethod
    def from_entries(cls, m: int, mode: ScalarMode, entries: dict):
        """Build from ``{(a, b): {key: coeff}}`` with a < b (see ``entries``)."""
        rows = {tuple(row): r for r, row in enumerate(cls._rows(m).tolist())}
        slots = {pos: k for k, pos in enumerate(_positions(m))}
        values = zeros((len(slots), len(rows), len(rows)), mode)
        d = cls.degree
        for (a, b), coeffs in entries.items():
            if not 0 <= a < b < m:
                raise InvalidPolynomial(f"matrix position {(a, b)} must satisfy a < b")
            for key, c in coeffs.items():
                if len(key) != 2 * d:
                    raise InvalidPolynomial(f"monomial key {key} is malformed")
                r, s = rows.get(tuple(key[:d])), rows.get(tuple(key[d:]))
                if r is None or s is None:
                    raise InvalidPolynomial(f"monomial key {key} is not canonical for m={m}")
                values[slots[(a, b)], r, s] = mode.scalar(c)
        return cls(m, mode, *integer_array(values)) if mode.exact else cls(m, mode, values)

    @property
    def entries(self) -> dict:
        """``{(a, b): {key: coeff}}`` over a < b, nonzero coefficients only."""
        return self._view(self.values, _positions(self.m))

    def _view(self, values, positions) -> dict:
        # one pass over the nonzeros; their slots come out sorted, so each slot is one run
        flat = np.flatnonzero(values)
        slots, r, c = np.unravel_index(flat, values.shape)
        rows = self._rows(self.m)
        keys = list(zip(*np.concatenate([rows[r].T, rows[c].T]).tolist()))
        coeffs = values.reshape(-1)[flat].tolist()
        if self.mode.exact:
            coeffs = [Fraction(n, self.denominator) for n in coeffs]
        cuts = np.searchsorted(slots, np.arange(len(positions) + 1)).tolist()
        return {
            pos: dict(zip(keys[lo:hi], coeffs[lo:hi]))
            for pos, lo, hi in zip(positions, cuts, cuts[1:])
            if lo < hi
        }

    def entry(self, a: int, b: int) -> dict:
        if a == b:
            return {}
        pos = (min(a, b), max(a, b))
        k = _positions(self.m).index(pos)
        coeffs = self._view(self.values[k : k + 1], [pos]).get(pos, {})
        return coeffs if a < b else {key: -c for key, c in coeffs.items()}

    def max_coeff(self):
        top = max_abs(self.values)
        return Fraction(int(top), self.denominator) if self.mode.exact else float(top)

    def is_zero(self, zero_tol=None) -> bool:
        """Every coefficient is zero; a float caller may pass an absolute
        ``zero_tol`` to accept |c| <= zero_tol instead (rational mode ignores it)."""
        if self.mode.exact or zero_tol is None:
            return not self.values.any()
        return self.max_coeff() <= zero_tol

    def evaluate(self, x, y) -> np.ndarray:
        rows = self._rows(self.m)
        x = vector(x, self.mode)[rows].prod(axis=1)  # the monomials in x, and in y
        y = vector(y, self.mode)[rows].prod(axis=1)
        if self.mode.exact:  # on integers, in Python ints: x = nx / dx, y = ny / dy
            (nx, dx), (ny, dy) = integer_array(x), integer_array(y)
            vals = (self.values @ ny.astype(object)) @ nx.astype(object)
            vals = fraction_array(vals, self.denominator * dx * dy)
        else:
            vals = (self.values @ y) @ x
        out = zeros((self.m, self.m), self.mode)
        a, b = np.triu_indices(self.m, 1)
        out[a, b], out[b, a] = vals, -vals
        return out


class BiQuadraticMatrixPoly(_MatrixPoly):
    """Matrix-valued bidegree-(2,2) polynomial, antisymmetric in the matrix slot.

    ``values[slot, I, K]`` is the coefficient of x_i x_j y_k y_l, for the
    canonical pairs I = (i, j) and K = (k, l) (i <= j, k <= l) in
    ``np.triu_indices(m)`` order.  ``entries[(a, b)]`` with a < b maps
    canonical monomials (i, j, k, l) to coefficients.
    """

    degree = 2

    @staticmethod
    def _rows(m):
        return np.stack(np.triu_indices(m), axis=1)


class BilinearMatrixPoly(_MatrixPoly):
    """Matrix-valued bidegree-(1,1) polynomial (the quotient by the pairing form).

    ``values[slot, p, q]`` is the coefficient of x_p y_q, and
    ``entries[(a, b)]`` with a < b maps (p, q) to it.
    """

    degree = 1

    @staticmethod
    def _rows(m):
        return np.arange(m)[:, None]

    def multiply_pairing(self) -> BiQuadraticMatrixPoly:
        """(sum_t x_t y_t) * L on canonical monomials."""
        m, L = self.m, self.values
        if self.mode.exact and exact_dtype(2 * int(max_abs(L))) == object:
            L = L.astype(object)  # at most two terms meet per monomial
        ii, jj = np.triu_indices(m)
        n = len(ii)
        pair = np.empty((m, m), dtype=np.intp)  # pair[i, j]: the position of {i, j} among the n pairs
        pair[ii, jj] = pair[jj, ii] = np.arange(n)
        out = np.zeros((len(L), n * n), dtype=L.dtype)
        # x_t y_t x_p y_q is the monomial with pairs {p, t} and {q, t}
        p, q, t = np.indices((m, m, m)).reshape(3, -1)
        np.add.at(out, (slice(None), pair[p, t] * n + pair[q, t]), L[:, p, q])
        return BiQuadraticMatrixPoly(m, self.mode, out.reshape(len(L), n, n), self.denominator)


# ---------------------------------------------------------------------------
# commutator polynomial
# ---------------------------------------------------------------------------


def commutator_poly(R: CurvatureTensor) -> BiQuadraticMatrixPoly:
    """Expand C(x,y) = J(x)J(y) - J(y)J(x) into canonical coefficients.

    With s[a, c, I] the x^I coefficient of J(x)[a, c] (R[c,i,j,a] +
    R[c,j,i,a] for i < j, R[c,i,i,a] on the diagonal), slot (a, b) is
    T[I, K] - T[K, I] for T = sum_c s[a, c, I] s[c, b, K]: one matmul per
    row a.  Exact numerators N give coefficients of magnitude at most
    8 m max|N|^2 over d^2, and ``scalars.exact_dtype`` of that bound picks
    the tier: an exact float64 GEMM, int64, or Python ints.  Evaluating the
    result at any concrete (x, y) reproduces ``commutator(R, x, y)``,
    exactly so in rational mode.
    """
    cached = R._cache.get("commutator_poly")
    if cached is not None:
        return cached
    m = R.m
    ii, jj = np.triu_indices(m)
    q = R.values.transpose((3, 0, 1, 2))  # q[a,c,i,j] = R[c,i,j,a], the x_i x_j coefficient of J(x)[a,c]
    s = q[:, :, ii, jj]
    off = ii < jj
    s[:, :, off] += q[:, :, jj[off], ii[off]]
    if R.mode.exact:
        maxv = int(max_abs(R.values))
        tier = exact_dtype(8 * m * maxv * maxv)
        s = s.astype(tier, copy=False)
        store = object if tier == object else np.int64
    else:
        store = np.float64
    n = len(ii)
    rhs = s.reshape(m, m * n)  # rhs[c, (b, K)] = s[c, b, K]
    out = np.empty((m * (m - 1) // 2, n, n), dtype=store)
    start = 0
    for a in range(m - 1):
        t = (s[a].T @ rhs[:, (a + 1) * n :]).reshape(n, m - a - 1, n).transpose(1, 0, 2)
        out[start : start + m - a - 1] = t - t.transpose(0, 2, 1)
        start += m - a - 1
    poly = BiQuadraticMatrixPoly(m, R.mode, out, R.denominator**2)
    R._cache["commutator_poly"] = poly
    return poly


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
        if exact_dtype(5 * int(max_abs(v))) == object:
            v = v.astype(object)  # |L| <= 2 max|P| and |q L| <= 2 max|L|
        small = lambda a: a == 0  # noqa: E731
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
    if not small(v - quotient.multiply_pairing().values).all():
        return None
    return quotient


# ---------------------------------------------------------------------------
# sampling machinery
# ---------------------------------------------------------------------------


def _sample_pairs(rng, m: int, n: int, exact: bool, orthogonal: bool, span: int = 4):
    """n deterministic (x, y) pairs as two (n, m) arrays, orthogonal exactly when requested.

    One pair takes rows from ``rng`` by one rule: draw x until it is
    nonzero, then draw v until y is nonzero, where y is v, or v projected
    off x when ``orthogonal``.  Exact pairs are int64 with
    y = <x,x> v - <v,x> x, so their entries are at most 2 m span^3; float
    pairs are unit vectors.  All 2n rows come from one generator call,
    which yields the same stream as 2n one-row calls.  Exact pairs are then
    formed at once; if a row is rejected, or in float mode, the rule walks
    the drawn rows and draws any further row singly.  So the pairs, and the
    generator state after the call, are those of n pairs drawn one by one.
    """
    if exact:
        draw = lambda *count: rng.integers(-span, span + 1, size=(*count, m))  # noqa: E731
    else:
        draw = lambda *count: rng.standard_normal((*count, m))  # noqa: E731
    rows = draw(2 * n)
    if exact:
        xs, ys = rows[0::2], rows[1::2]
        if orthogonal:
            dot = lambda a, b: (a * b).sum(axis=1, keepdims=True)  # noqa: E731
            ys = dot(xs, xs) * ys - dot(ys, xs) * xs
        if xs.any(axis=1).all() and ys.any(axis=1).all():
            return xs, ys

        def keep_x(x):
            return x if x.any() else None

        def keep_y(x, v):
            y = int(x @ x) * v - int(v @ x) * x if orthogonal else v
            return y if y.any() else None
    else:

        def keep_x(v):  # v scaled to unit length, unless it is too short
            nv = math.sqrt(v @ v)  # np.linalg.norm's own formula for a real vector
            return v / nv if nv > 1e-8 else None

        def keep_y(x, v):
            return keep_x(v - (v @ x) * x if orthogonal else v)

    pending = iter(rows)

    def accepted(keep):
        while True:
            row = next(pending, None)
            kept = keep(draw() if row is None else row)
            if kept is not None:
                return kept

    xs, ys = [], []
    for _ in range(n):
        x = accepted(keep_x)
        xs.append(x)
        ys.append(accepted(lambda v: keep_y(x, v)))
    return np.array(xs), np.array(ys)


def _batch_commutators(R: CurvatureTensor, xs, ys):
    """Commutator matrices for a batch of integer or float pairs.

    Returns (C, scale): true commutators are C / scale.  Integer batches
    contract the numerators V as one matmul of the outer products x x^T,
    shape (p, m^2), against V reshaped to (m^2, m^2), then take the batched
    commutator.  |J(x)| <= |x|_1^2 max|V| =: b(x), and each commutator entry
    is two sums of m products of J entries, so with

        bJ = max_p max(b(x_p), b(y_p))   and   bC = 2 m max_p b(x_p) max_p b(y_p)

    every partial sum of the contraction is at most bJ and every one of
    the commutator at most bC.  ``scalars.exact_dtype`` takes each stage
    to the fastest exact tier for its bound: a float64 BLAS matmul below
    2^53, where every intermediate is an integer that float64 holds, so
    the result is exact in any summation order and with any number of BLAS
    threads; int64 below 2^62; Python ints past that.  The bounds are taken
    in Python ints, since their squares can pass 2^63.  C comes back as
    int64, or as Python ints past 2^62.  Float batches contract R with
    ``einsum``.
    """
    m = R.m
    if R.mode.exact:
        xa, ya = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
        # b(x) with |x|_1 and max|V| raised to at least 1, so that it also
        # bounds max|V| and every outer product x_i x_j
        maxv = max(int(max_abs(R.values)), 1)
        bx, by = (max(int(np.abs(a).sum(axis=1).max()), 1) ** 2 * maxv for a in (xa, ya))
        jdt, cdt = exact_dtype(max(bx, by)), exact_dtype(2 * m * bx * by)
        v, _ = integer_array(R.values, bound=max(bx, by))
        w = v.transpose((1, 2, 3, 0)).reshape(m * m, m * m)  # w[ij, ab] = V[b,i,j,a]
        w = w.astype(jdt, copy=False)

        def jacobis(a):
            a = a.astype(jdt, copy=False)
            j = ((a[:, :, None] * a[:, None, :]).reshape(len(a), m * m) @ w).reshape(-1, m, m)
            # float64 J passes through int64 on its way to Python ints
            return j if jdt == cdt else j.astype(np.int64, copy=False).astype(cdt, copy=False)

        jx, jy = jacobis(xa), jacobis(ya)
        c = np.matmul(jx, jy) - np.matmul(jy, jx)
        return c.astype(object if cdt == object else np.int64, copy=False), R.denominator**2
    xa = np.array(xs, dtype=float)
    ya = np.array(ys, dtype=float)
    jx = np.einsum("pi,pj,bija->pab", xa, xa, R.values)
    jy = np.einsum("pi,pj,bija->pab", ya, ya, R.values)
    return jx @ jy - jy @ jx, None


def _float_threshold(R: CurvatureTensor):
    """tol |R|^2 in float mode, None in rational mode: the one threshold of the
    certificate and the witness search, since commutators are quadratic in R."""
    if R.mode.exact:
        return None
    scale = float(R.max_abs())
    return R.mode.tol * (scale * scale)


SLICE_ENTRIES = 2**21  # the scan evaluates at most this many / m^2 pairs at once


def _squared_norms(a):
    """<a_p, a_p> of each integer row, as Python ints.

    The int64 row sums are exact while m max|a|^2 < 2^62.  That holds for
    every sampled pair through m = 61, since entries are at most
    2 m span^3 with span <= 130 (``_search_witness``'s widest); past that
    bound the sums run on Python ints.
    """
    bound = a.shape[1] * int(np.abs(a).max()) ** 2
    a = a.astype(object) if exact_dtype(bound) == object else a
    return (a * a).sum(axis=1).tolist()


def _violation_scan(R, xs, ys, pick: str):
    """Evaluate pairs and pick a violating one ('first' or 'largest').

    Returns ``(p, Witness(xs[p], ys[p], norm))`` for the chosen index p, or
    None.  Pairs are evaluated in slices of at most ``SLICE_ENTRIES / m^2``,
    so memory does not grow with the number of pairs.  Ties in norm go to
    the earlier pair, across slices too.  Each pair's raw sup norm comes
    from one reduction per slice.  Exact norms raw / (scale |x|^2 |y|^2)
    are compared by integer cross-multiplication; only the returned witness
    gets its ``Fraction``.  Float pairs count when raw exceeds
    ``_float_threshold``.
    """
    xa, ya = np.asarray(xs), np.asarray(ys)
    exact = R.mode.exact
    if exact:
        sqx, sqy = _squared_norms(xa), _squared_norms(ya)
    thr = _float_threshold(R)
    step = max(1, SLICE_ENTRIES // (R.m * R.m))
    best = None  # (p, raw, |x|^2 |y|^2) when exact, (p, norm) in float mode
    for start in range(0, len(xa), step):
        c, scale = _batch_commutators(R, xa[start : start + step], ya[start : start + step])
        raws = np.abs(c).max(axis=(1, 2))
        hits = np.flatnonzero(raws if exact else raws > thr)
        for p, raw in zip((hits + start).tolist(), raws[hits].tolist()):
            if exact:
                den = sqx[p] * sqy[p]
                if best is None or raw * best[2] > best[1] * den:
                    best = (p, raw, den)
            else:
                norm = raw / (float(np.dot(xs[p], xs[p])) * float(np.dot(ys[p], ys[p])))
                if best is None or norm > best[1]:
                    best = (p, norm)
            if pick == "first":
                break
        if best is not None and pick == "first":
            break
    if best is None:
        return None
    p = best[0]
    norm = Fraction(best[1], scale * best[2]) if exact else best[1]
    return p, Witness(xs[p], ys[p], norm)


@lru_cache(maxsize=None)
def _basis_pair_candidates(m: int, exact: bool):
    """Small deterministic pairs tried before random sampling, built once per m.

    Every pair is orthogonal by construction: (e_a, e_b), (e_a, e_b + e_c)
    with a not in {b, c}, and (e_a + e_b, e_a - e_b).  Returns one array of
    shape (pairs, 2, m), x then y: int64 when ``exact``, else float64, and
    read-only, since every search shares it.
    """
    e = np.eye(m, dtype=np.int64 if exact else float)
    pairs = []
    for a in range(m):
        for b in range(m):
            if a != b:
                pairs.append((e[a], e[b]))
    for a in range(m):
        for b in range(m):
            for cidx in range(b + 1, m):
                if a != b and a != cidx:
                    pairs.append((e[a], e[b] + e[cidx]))
    for a in range(m):
        for b in range(a + 1, m):
            pairs.append((e[a] + e[b], e[a] - e[b]))
    out = np.array(pairs)
    out.flags.writeable = False
    return out


def _typed_witness(w: Witness, mode: ScalarMode, basis: bool) -> Witness:
    """The witness with the coordinate types callers get: mode scalars for a
    basis candidate, Python ints for an exact random sample, and float64
    arrays of their own for a float sample."""
    if basis:
        return Witness(vector(w.x.tolist(), mode), vector(w.y.tolist(), mode), w.commutator_norm)
    kind = object if mode.exact else float
    return Witness(w.x.astype(kind), w.y.astype(kind), w.commutator_norm)


def _search_witness(R: CurvatureTensor, seed: int, n_samples: int, orthogonal: bool) -> Witness:
    """Find a violating pair; the polynomial certificate guarantees one exists.

    Scans deterministic basis-combination pairs plus seeded random pairs and
    returns the largest violator found (sample order breaks ties).  Widens
    the sampling span if a round finds nothing; a degree-4 polynomial that
    is nonzero on the quadric cannot dodge random points indefinitely.
    """
    cands = _basis_pair_candidates(R.m, R.mode.exact)
    rng = np.random.default_rng(seed)
    for round_no in range(64):
        xs, ys = _sample_pairs(
            rng, R.m, max(n_samples, 16), R.mode.exact, orthogonal, span=4 + 2 * round_no
        )
        if round_no == 0:
            xs, ys = np.concatenate([cands[:, 0], xs]), np.concatenate([cands[:, 1], ys])
        found = _violation_scan(R, xs, ys, pick="largest")
        if found is not None:
            p, w = found
            return _typed_witness(w, R.mode, basis=round_no == 0 and p < len(cands))
    raise ClassificationInconsistency(
        "a nonzero commutator polynomial produced no violating sample; arithmetic is broken"
    )


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def _relative_residual(R: CurvatureTensor, recon: CurvatureTensor):
    """|R - recon| / |R| in sup norms (|recon| when R is zero)."""
    if R.mode.exact and R.denominator == recon.denominator and np.array_equal(R.values, recon.values):
        return Fraction(0)  # both are reduced, so equal tensors store equal numerators
    scale = R.max_abs()
    dev = combine([(1, R), (-1, recon)]).max_abs()
    if R.mode.exact:
        return dev / scale if scale != 0 else dev
    return float(dev) / float(scale) if scale else float(dev)


def _fit(R: CurvatureTensor):
    """Rebuild R as c R0, else as c R_Theta: ``(c, Theta or None, residual)``.

    c R0 takes c from the first sectional value R(e_i, e_j, e_j, e_i), i < j,
    that is not negligible at |R|, and is not tried on an exact tensor of
    even m whose sectional values differ; c R_Theta takes (c, Theta) from
    ``recover_complex_structure``.  A fit counts when its relative residual
    is negligible.  In rational mode that is exact equality, which proves
    that R commutes on orthogonal pairs, as c R0 and c R_Theta do.  Raises
    ``ClassificationInconsistency`` when neither fit rebuilds R.
    """
    mode, m = R.mode, R.m
    ii, jj = np.triu_indices(m, 1)
    sect = R.values[ii, jj, jj, ii]
    nonzero = np.flatnonzero(~negligible(sect, mode, R.max_abs()))
    residual = None
    # an exact c R0 has equal sectional numerators; odd m keeps the attempt,
    # since its error message reports the c R0 residual
    if nonzero.size and not (mode.exact and m % 2 == 0 and (sect != sect[nonzero[0]]).any()):
        s = sect[nonzero[0]]
        c = Fraction(int(s), R.denominator) if mode.exact else s
        residual = _relative_residual(R, r0(m, c, mode))
        if negligible(residual, mode):
            return c, None, residual
    if m % 2:
        raise ClassificationInconsistency(
            "commutation holds but constant-curvature reconstruction fails "
            + ("(no nonzero sectional value)" if residual is None else f"(residual {residual})")
        )
    try:
        c, cs = recover_complex_structure(R)
    except NotRankOne as exc:
        raise ClassificationInconsistency(
            f"commutation holds but neither c R0 nor c R_Theta fits: {exc}"
        ) from exc
    residual = _relative_residual(R, r_theta(cs, c))
    if not negligible(residual, mode):
        raise ClassificationInconsistency(
            f"commutation holds but complex-form reconstruction fails (residual {residual})"
        )
    return c, cs, residual


# ---------------------------------------------------------------------------
# the two decision procedures
# ---------------------------------------------------------------------------

SCREEN_PAIRS = 8
SCREEN_SEED = 0x5C12EE7  # the screen's own stream, apart from the witness search's


def _decide(R: CurvatureTensor, seed: int, n_samples: int, orthogonal: bool):
    """The verdict on orthogonal (or all) pairs, and the fit behind an exact accept.

    Rational mode tries its certificates cheapest first, and each one is
    rigorous on its own: the zero tensor holds; a nonzero commutator at one
    of ``SCREEN_PAIRS`` seeded pairs (exactly orthogonal when
    ``orthogonal``) proves failure; an exact fit by ``_fit`` proves that
    commutation on orthogonal pairs holds.  Only when all three are silent
    is the commutator polynomial expanded and divided, as float mode always
    does.  Every failure reports ``_search_witness``, so the witness does
    not depend on which certificate decided.

    Returns ``(verdict, fit)``: ``fit`` is ``_fit``'s result when it decided,
    the ``ClassificationInconsistency`` it raised when it could not, and
    None when it did not run.
    """
    method = "ExactDivisibility" if orthogonal else "CoefficientExpansion"
    fit = None
    if R.mode.exact:
        if R.is_zero():
            return TsankovVerdict(True, None, method), None
        rng = np.random.default_rng(SCREEN_SEED)
        comm, _ = _batch_commutators(R, *_sample_pairs(rng, R.m, SCREEN_PAIRS, True, orthogonal))
        if comm.any():
            return TsankovVerdict(False, _search_witness(R, seed, n_samples, orthogonal), method), None
        if orthogonal:
            try:
                return TsankovVerdict(True, None, method), _fit(R)
            except ClassificationInconsistency as exc:
                fit = exc
    poly = commutator_poly(R)
    if orthogonal:
        holds = divisible_by_pairing(poly, _float_threshold(R)) is not None
    else:
        holds = poly.is_zero(_float_threshold(R))
    witness = None if holds else _search_witness(R, seed, n_samples, orthogonal)
    return TsankovVerdict(holds, witness, method), fit


def full_commutation_test(R: CurvatureTensor, n_samples: int = 200, seed: int = 0) -> TsankovVerdict:
    """Does J(x) commute with J(y) for ALL pairs?  Only the zero tensor passes.

    Decided by the zero test and a seeded screen of pairs in rational mode,
    else by coefficient expansion of the commutator polynomial; failures
    carry a witness pair of maximal sampled commutator norm (the pair need
    not be orthogonal).
    """
    return _decide(R, seed, n_samples, orthogonal=False)[0]


def tsankov_test(
    R: CurvatureTensor, method: str = "exact", n_samples: int = 200, seed: int = 0
) -> TsankovVerdict:
    """Does J(x) commute with J(y) whenever x is orthogonal to y?

    ``method="exact"`` is a true decision procedure in rational mode: a
    seeded screen of orthogonal pairs or an exact reconstruction as c R0 or
    c R_Theta decides when it can, else divisibility of the commutator
    polynomial by the pairing form (the float mode certificate).
    ``method="sampled"`` draws seeded orthogonal pairs and reports the first
    violator.  Witnesses are exactly orthogonal in rational mode.
    """
    method = method.lower()
    if method in ("exact", "exactdivisibility"):
        return _decide(R, seed, n_samples, orthogonal=True)[0]
    if method != "sampled":
        raise DegenerateInput(f"unknown method {method!r}; use 'exact' or 'sampled'")
    if n_samples < 1:
        raise DegenerateInput("sampled mode needs n_samples >= 1")
    rng = np.random.default_rng(seed)
    xs, ys = _sample_pairs(rng, R.m, n_samples, R.mode.exact, orthogonal=True)
    found = _violation_scan(R, xs, ys, pick="first")
    witness = None if found is None else _typed_witness(found[1], R.mode, basis=False)
    return TsankovVerdict(witness is None, witness, "Sampled")
