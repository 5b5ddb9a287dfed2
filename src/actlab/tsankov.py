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
   bidegree-(2,2) polynomial vanishes on it iff q divides it.  Divisibility
   is decided by reducing each entry to its normal form modulo q
   (single-divisor division in a lexicographic order with leading term
   x0*y0); the remainder is zero iff the entry lies in the ideal, and the
   division produces the bidegree-(1,1) quotient.

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

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ClassificationInconsistency, DegenerateInput, InvalidPolynomial, NotRankOne
from .jacobi import jacobi, recover_complex_structure
from .scalars import ScalarMode, exact_dtype, integer_array, max_abs, negligible, vector, zeros
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
# canonical monomial bookkeeping
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _canonical_monomials(m: int):
    monos = [
        (i, j, k, l)
        for i in range(m)
        for j in range(i, m)
        for k in range(m)
        for l in range(k, m)
    ]
    idx = np.array(monos, dtype=np.intp)
    counts = np.array(
        [(2 if i < j else 1) * (2 if k < l else 1) for (i, j, k, l) in monos], dtype=np.int64
    )
    return monos, idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3], counts


# ---------------------------------------------------------------------------
# polynomial containers
# ---------------------------------------------------------------------------


def _check_canonical_keys(m, coeffs):
    for key in coeffs:
        if len(key) != 4:
            raise InvalidPolynomial(f"monomial key {key} is malformed")
        i, j, k, l = key
        if not (0 <= i <= j < m and 0 <= k <= l < m):
            raise InvalidPolynomial(f"monomial key {key} is not canonical for m={m}")


@dataclass
class BiQuadraticMatrixPoly:
    """Matrix-valued bidegree-(2,2) polynomial, antisymmetric in the matrix slot.

    ``entries[(a, b)]`` with a < b maps canonical monomials (i, j, k, l)
    (i <= j, k <= l, standing for x_i x_j y_k y_l) to coefficients; the
    lower triangle is the negative and the diagonal is zero.
    """

    m: int
    mode: ScalarMode
    entries: dict

    @classmethod
    def from_entries(cls, m: int, mode: ScalarMode, entries: dict) -> "BiQuadraticMatrixPoly":
        for (a, b), coeffs in entries.items():
            if not 0 <= a < b < m:
                raise InvalidPolynomial(f"matrix position {(a, b)} must satisfy a < b")
            _check_canonical_keys(m, coeffs)
        return cls(m, mode, {pos: dict(coeffs) for pos, coeffs in entries.items()})

    def entry(self, a: int, b: int) -> dict:
        if a == b:
            return {}
        if a < b:
            return self.entries.get((a, b), {})
        return {mono: -c for mono, c in self.entries.get((b, a), {}).items()}

    def max_coeff(self):
        vals = [abs(c) for coeffs in self.entries.values() for c in coeffs.values()]
        if not vals:
            return Fraction(0) if self.mode.exact else 0.0
        return max(vals)

    def is_zero(self, zero_tol=None) -> bool:
        """Every coefficient is zero; a float caller may pass an absolute
        ``zero_tol`` to accept |c| <= zero_tol instead (rational mode ignores it)."""
        if self.mode.exact or zero_tol is None:
            return all(c == 0 for coeffs in self.entries.values() for c in coeffs.values())
        return self.max_coeff() <= zero_tol

    def evaluate(self, x, y) -> np.ndarray:
        x = vector(x, self.mode)
        y = vector(y, self.mode)
        out = zeros((self.m, self.m), self.mode)
        for (a, b), coeffs in self.entries.items():
            val = self.mode.zero()
            for (i, j, k, l), c in coeffs.items():
                val += c * x[i] * x[j] * y[k] * y[l]
            out[a, b] = val
            out[b, a] = -val
        return out


@dataclass
class BilinearMatrixPoly:
    """Matrix-valued bidegree-(1,1) polynomial (the quotient by the pairing form)."""

    m: int
    mode: ScalarMode
    entries: dict  # (a, b) with a < b -> {(p, q): coeff} for x_p y_q

    def evaluate(self, x, y) -> np.ndarray:
        x = vector(x, self.mode)
        y = vector(y, self.mode)
        out = zeros((self.m, self.m), self.mode)
        for (a, b), coeffs in self.entries.items():
            val = self.mode.zero()
            for (p, q), c in coeffs.items():
                val += c * x[p] * y[q]
            out[a, b] = val
            out[b, a] = -val
        return out

    def multiply_pairing(self) -> BiQuadraticMatrixPoly:
        """(sum_t x_t y_t) * L, folded to canonical monomials."""
        out = {}
        for pos, coeffs in self.entries.items():
            acc = {}
            for (p, q), c in coeffs.items():
                for t in range(self.m):
                    mono = (min(p, t), max(p, t), min(q, t), max(q, t))
                    acc[mono] = acc.get(mono, self.mode.zero()) + c
            acc = {mono: c for mono, c in acc.items() if c != 0}
            if acc:
                out[pos] = acc
        return BiQuadraticMatrixPoly(self.m, self.mode, out)


# ---------------------------------------------------------------------------
# commutator polynomial
# ---------------------------------------------------------------------------


def commutator_poly(R: CurvatureTensor) -> BiQuadraticMatrixPoly:
    """Expand C(x,y) = J(x)J(y) - J(y)J(x) into canonical coefficients.

    Evaluating the result at any concrete (x, y) reproduces
    ``commutator(R, x, y)``, exactly so in rational mode.
    """
    cached = R._cache.get("commutator_poly")
    if cached is not None:
        return cached
    m = R.m
    if R.mode.exact:
        maxv = int(max_abs(R.values))
        # |t| <= 2 m maxv^2, and g * counts folds four t terms times counts <= 4
        v, _ = integer_array(R.values, bound=32 * m * maxv * maxv)
        q = v.transpose((3, 0, 1, 2))  # q[a,c,i,j] = R[c,i,j,a], the x_i x_j coefficient of J(x)[a,c]
        denom = R.denominator**2
    else:
        q = R.values.transpose((3, 0, 1, 2))
        denom = None
    t = np.einsum("acij,cbkl->abijkl", q, q) - np.einsum("ackl,cbij->abijkl", q, q)

    monos, ii, jj, kk, ll, counts = _canonical_monomials(m)
    flat = t.reshape(m * m, m, m, m, m)
    g = (
        flat[:, ii, jj, kk, ll]
        + flat[:, jj, ii, kk, ll]
        + flat[:, ii, jj, ll, kk]
        + flat[:, jj, ii, ll, kk]
    )
    if denom is not None:
        vals_all = (g * counts) // 4
    else:
        vals_all = g * counts / 4.0
    entries = {}
    for a in range(m):
        for b in range(a + 1, m):
            vals = vals_all[a * m + b]
            if denom is not None:
                coeffs = {
                    mono: Fraction(int(val), denom)
                    for mono, val in zip(monos, vals.tolist())
                    if val
                }
            else:
                coeffs = {mono: float(val) for mono, val in zip(monos, vals) if val != 0.0}
            if coeffs:
                entries[(a, b)] = coeffs
    poly = BiQuadraticMatrixPoly(m, R.mode, entries)
    R._cache["commutator_poly"] = poly
    return poly


# ---------------------------------------------------------------------------
# divisibility by the pairing form
# ---------------------------------------------------------------------------


def _divide_entry(coeffs: dict, m: int, is_zero) -> dict | None:
    """Quotient of one bidegree-(2,2) entry by the pairing form, or None.

    Normal-form division: monomials are processed in ascending canonical
    tuple order, which is descending lexicographic monomial order with the
    x-block ordered before the y-block.  The pairing form's leading term is
    then x0*y0, every reduction step only introduces strictly later
    monomials, and a leading term without both x0 and y0 certifies that the
    entry is not in the ideal.
    """
    work = {key: c for key, c in coeffs.items() if not is_zero(c)}
    heap = sorted(work)
    quotient: dict = {}
    seen = set()
    while heap:
        key = heapq.heappop(heap)
        if key in seen:
            continue
        seen.add(key)
        c = work.get(key)
        if c is None or is_zero(c):
            continue
        i, j, k, l = key
        if i != 0 or k != 0:
            return None
        p, q = j, l
        quotient[(p, q)] = quotient.get((p, q), 0) + c
        for tt in range(m):
            mono = (min(p, tt), max(p, tt), min(q, tt), max(q, tt))
            prev = work.get(mono)
            if prev is None:
                work[mono] = -c
                heapq.heappush(heap, mono)
            else:
                work[mono] = prev - c
    return {key: c for key, c in quotient.items() if not is_zero(c)}


def divisible_by_pairing(P: BiQuadraticMatrixPoly, zero_tol=None) -> BilinearMatrixPoly | None:
    """The bidegree-(1,1) quotient L with P = (sum_i x_i y_i) * L, or None.

    The zero polynomial is divisible (zero quotient).  In float mode
    coefficients of at most ``zero_tol`` (default tol * max|coeff|, the
    ``negligible`` rule at the polynomial's own scale) count as zero.
    """
    for (a, b), coeffs in P.entries.items():
        if not 0 <= a < b < P.m:
            raise InvalidPolynomial(f"matrix position {(a, b)} must satisfy a < b")
        _check_canonical_keys(P.m, coeffs)
    if P.mode.exact:
        is_zero = lambda c: c == 0  # noqa: E731
    else:
        zt = zero_tol if zero_tol is not None else P.mode.tol * float(P.max_coeff())
        is_zero = lambda c: abs(c) <= zt  # noqa: E731
    quotients = {}
    for pos, coeffs in P.entries.items():
        q = _divide_entry(coeffs, P.m, is_zero)
        if q is None:
            return None
        if q:
            quotients[pos] = q
    return BilinearMatrixPoly(P.m, P.mode, quotients)


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
    that is not negligible at |R|; c R_Theta takes (c, Theta) from
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
    if nonzero.size:
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
