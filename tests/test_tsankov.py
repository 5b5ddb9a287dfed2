"""Commutator polynomials, divisibility decision, and the two commutation tests."""

from fractions import Fraction
from importlib import import_module
from itertools import product
from math import isqrt
import tracemalloc

import numpy as np
import pytest

from actlab import (
    FLOAT,
    RATIONAL,
    ClassificationInconsistency,
    CurvatureTensor,
    BiQuadraticMatrixPoly,
    DegenerateInput,
    InvalidOperator,
    classify,
    combine,
    commutator,
    commutator_poly,
    conjugate_structure,
    divisible_by_pairing,
    from_form,
    full_commutation_test,
    jacobi,
    r0,
    r_theta,
    random_act,
    random_signed_permutation,
    rotate,
    standard_complex_structure,
    tsankov_test,
    validate,
)

from actlab import scalars as scalars_module, tensors as tensors_module, tsankov
from actlab.tsankov import (
    _Contraction,
    _basis_candidates,
    _decide,
    _basis_raws,
    _float_threshold,
    _jacobi_table,
    _fit,
    _largest,
    _r0_fit,
    _relative_residual,
    _sample_pairs,
    _screen_pairs,
    _unit_pair_raws,
    _violation_scan,
)

from actlab.scalars import negligible
from actlab.tensors import _r_theta_blocks
from conftest import (
    build_corpus,
    cayley_rotation,
    evaluate_entries,
    poly_from_entries,
    quaternion_tensor,
    r0_near_misses,
)

jacobi_module = import_module("actlab.jacobi")  # the package's ``jacobi`` is the function


def search_witness(R, seed, n_samples, orthogonal):
    """The witness of the first round of the seeded witness search that finds one."""
    return tsankov._first_witness(tsankov._witness_rounds(R, seed, n_samples, orthogonal))

_INT64_LIMIT = 2**62  # integer kernels stay in int64 below this bound
_FLOAT64_LIMIT = 2**53  # and in exact float64 below this one


def max_numerator(R):
    return int(np.abs(R.values).max())


def frac_vec(entries):
    return np.array([Fraction(v) for v in entries], dtype=object)


def solve_exact(rows, rhs):
    """Gaussian elimination over the rationals; any solution or None."""
    n, cols = len(rows), len(rows[0])
    m = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    piv_cols, r = [], 0
    for c in range(cols):
        piv = next((i for i in range(r, n) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if m[i][cols] != 0:
            return None
    sol = [Fraction(0)] * cols
    for rr, c in enumerate(piv_cols):
        sol[c] = m[rr][cols]
    return sol


def divisibility_by_linear_system(coeffs, m):
    """Independent oracle: solve for the m^2 quotient coefficients directly."""
    monos = [
        (i, j, k, l)
        for i in range(m)
        for j in range(i, m)
        for k in range(m)
        for l in range(k, m)
    ]
    index = {mono: n for n, mono in enumerate(monos)}
    rows = [[Fraction(0)] * (m * m) for _ in monos]
    for col, (p, q) in enumerate(product(range(m), range(m))):
        for t in range(m):
            mono = (min(p, t), max(p, t), min(q, t), max(q, t))
            rows[index[mono]][col] += 1
    rhs = [coeffs.get(mono, Fraction(0)) for mono in monos]
    sol = solve_exact(rows, rhs)
    if sol is None:
        return None
    return {
        (p, q): sol[p * m + q]
        for p in range(m)
        for q in range(m)
        if sol[p * m + q] != 0
    }


def commutators(k, xs, ys):
    """C for the pairs (x_p, y_p) through the contraction k: P - P^T with P = J(x) J(y), on
    the P tier, as ``_Contraction.sup_norms`` reduces them (exact float64 ones are integers)."""
    p = np.matmul(k.jacobis(xs), k.jacobis(ys))
    return p - p.transpose(0, 2, 1)


def largest_scan(R, xs, ys):
    """The float witness search's pick over one batch, ``(p, Witness(xs[p], ys[p], norm))``
    or None: ``_largest`` over the raws of ``_Contraction.slice_raws``."""
    xa, ya = np.asarray(xs), np.asarray(ys)
    return _largest(R, xa, ya, _Contraction(R, xa, ya).slice_raws(xa, ya))


SCANS = {"first": _violation_scan, "largest": largest_scan}


def basis_candidates_reference(m):
    """Reference for _basis_candidates: the pairs (x, y) in their order, loop by loop."""
    e = np.eye(m, dtype=np.int64)
    pairs = []
    for a in range(m):
        for b in range(m):
            if a != b:
                pairs.append((e[a], e[b]))
    for a in range(m):
        for b in range(m):
            for c in range(b + 1, m):
                if a != b and a != c:
                    pairs.append((e[a], e[b] + e[c]))
    for a in range(m):
        for b in range(a + 1, m):
            pairs.append((e[a] + e[b], e[a] - e[b]))
    return np.array(pairs)


def commutator_norm_reference(R, x, y):
    """max|C(x, y)| / (<x,x> <y,y>) through ``commutator``, a ``Fraction`` (0 when C is)."""
    return max(abs(t) for t in commutator(R, x, y).ravel()) / (int(x @ x) * int(y @ y))


def first_candidate_reference(R):
    """``(p, x, y, norm)`` for the first basis candidate, in ``basis_candidates_reference``
    order, whose commutator is nonzero, or None: a plain loop through ``commutator``."""
    for p, (x, y) in enumerate(basis_candidates_reference(R.m)):
        if norm := commutator_norm_reference(R, x, y):
            return p, x, y, norm
    return None


def first_violator_reference(R, seed, n_samples, orthogonal, candidate):
    """Reference for the exact witness: ``candidate``, the ``first_candidate_reference`` of R,
    else ``(None, x, y, norm)`` for the first seeded pair with a nonzero commutator, walking
    the rounds' draws (``block_pairs_reference`` at span 4, 6, ...) in draw order."""
    if candidate is not None:
        return candidate
    rng = np.random.default_rng(seed)
    for round_no in range(64):
        for x, y in block_pairs_reference(rng, R.m, max(n_samples, 16), True, orthogonal, span=4 + 2 * round_no):
            if norm := commutator_norm_reference(R, x, y):
                return None, x, y, norm
    return None


def assert_first_violator(R, w, want, orthogonal=True):
    """An exact witness of R is the reference's first violator ``want``, with Python-int
    coordinates, exactly orthogonal when asked, and a nonzero ``commutator``."""
    _, x, y, norm = want
    assert (w.x.tolist(), w.y.tolist(), w.commutator_norm) == (x.tolist(), y.tolist(), norm)
    assert w.x.dtype == w.y.dtype == object and all(type(t) is int for t in [*w.x, *w.y])
    assert type(w.commutator_norm) is Fraction
    assert not orthogonal or np.dot(w.x, w.y) == 0
    assert (commutator(R, w.x, w.y) != 0).any()


def bigint_commutators(R, xs, ys):
    """Reference for the contraction's commutators: s^2 C(x, y) in Python ints, loop by loop."""
    V, s = R.values.tolist(), R.denominator
    m = R.m
    rng = range(m)

    def jac(x):
        x = [int(e) for e in x]
        return [
            [sum(x[i] * x[j] * V[b][i][j][a] for i in rng for j in rng) for b in rng] for a in rng
        ]

    out = []
    for x, y in zip(xs, ys):
        jx, jy = jac(x), jac(y)
        out.append(
            [
                [sum(jx[a][c] * jy[c][b] - jy[a][c] * jx[c][b] for c in rng) for b in rng]
                for a in rng
            ]
        )
    return out, s * s


def int64_bound(R, xs, ys):
    maxv = max_numerator(R)
    jx = max(sum(abs(int(e)) for e in x) for x in xs) ** 2 * maxv
    jy = max(sum(abs(int(e)) for e in y) for y in ys) ** 2 * maxv
    return 2 * R.m * jx * jy


def jacobi_bound(R, xs, ys):
    """max |x|_1^2 max|V| over the batch: bounds every partial sum of J(x)."""
    return max(sum(abs(int(e)) for e in v) for v in [*xs, *ys]) ** 2 * max_numerator(R)


def largest_reference(R, xs, ys):
    """Reference for the exact 'largest' pick: ``(p, norm)`` over every pair at once,
    by integer cross-multiplication of raw / (|x|^2 |y|^2), the earliest on ties."""
    cs, s2 = bigint_commutators(R, xs, ys)
    best = None
    for p, (c, x, y) in enumerate(zip(cs, xs, ys)):
        raw = max(abs(e) for row in c for e in row)
        den = sum(int(e) ** 2 for e in x) * sum(int(e) ** 2 for e in y)
        if raw and (best is None or raw * best[2] > best[1] * den):
            best = (p, raw, den)
    return best[0], Fraction(best[1], s2 * best[2])


def first_reference(R, xs, ys):
    """Reference for the exact first violator: ``(p, norm)`` for the first pair, in order, whose
    commutator is nonzero, with its norm raw / (s^2 |x|^2 |y|^2), or None."""
    cs, s2 = bigint_commutators(R, xs, ys)
    for p, (c, x, y) in enumerate(zip(cs, xs, ys)):
        raw = max(abs(e) for row in c for e in row)
        if raw:
            return p, Fraction(raw, s2 * sum(int(e) ** 2 for e in x) * sum(int(e) ** 2 for e in y))
    return None


def sample_pair_reference(rng, m, exact, orthogonal, span=4):
    """The one-row rule that _sample_pairs followed before its block rule: one (x, y) pair,
    drawing x until it is nonzero, then v until y is nonzero.  The block rule gives the
    same pairs whenever this rule rejects no row."""
    if exact:
        while True:
            x = rng.integers(-span, span + 1, size=m)
            if x.any():
                break
        while True:
            v = rng.integers(-span, span + 1, size=m)
            y = int(x @ x) * v - int(v @ x) * x if orthogonal else v
            if y.any():
                return x, y
    while True:
        x = rng.standard_normal(m)
        nx = np.linalg.norm(x)
        if nx > 1e-8:
            x = x / nx
            break
    while True:
        v = rng.standard_normal(m)
        y = v - (v @ x) * x if orthogonal else v
        ny = np.linalg.norm(y)
        if ny > 1e-8:
            return x, y / ny


def block_pairs_reference(rng, m, n, exact, orthogonal, span=4, blocks=None):
    """Reference for _sample_pairs' block rule, one row at a time: a block reads the rows
    x, v of each of the k pairs still missing, and keeps, in order, those whose x and y
    are nonzero.  Appends each block's k to ``blocks`` when given."""
    pairs = []
    while len(pairs) < n:
        block = []
        if blocks is not None:
            blocks.append(n - len(pairs))
        for _ in range(n - len(pairs)):
            if exact:
                x, v = (rng.integers(-span, span + 1, size=m) for _ in range(2))
                y = int(x @ x) * v - int(v @ x) * x if orthogonal else v
                if x.any() and y.any():
                    block.append((x, y))
                continue
            x, v = (rng.standard_normal(m) for _ in range(2))
            nx = np.sqrt((x * x).sum())  # the rule's own sums, so float pairs keep their bits
            if nx > 1e-8:
                x = x / nx
                y = v - (v * x).sum() * x if orthogonal else v
                ny = np.sqrt((y * y).sum())
                if ny > 1e-8:
                    block.append((x, y / ny))
        pairs += block
    return pairs


def assert_pairs(xs, ys, pairs, exact, orthogonal):
    """_sample_pairs' arrays against a reference's pairs: the same bytes for exact pairs,
    exactly orthogonal when asked, and unit vectors within a few ulps of the reference's
    for float pairs."""
    rx, ry = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
    assert xs.dtype == ys.dtype == (np.int64 if exact else float)
    if exact:
        assert xs.tobytes() == rx.tobytes() and ys.tobytes() == ry.tobytes()
        assert not orthogonal or not (xs * ys).sum(axis=1).any()
        return
    eps = np.finfo(float).eps
    assert np.abs(xs - rx).max() <= 8 * eps and np.abs(ys - ry).max() <= 8 * eps
    norms = np.sqrt(np.concatenate([(xs * xs).sum(axis=1), (ys * ys).sum(axis=1)]))
    assert np.abs(norms - 1).max() <= 4 * eps


class RowCounter:
    """A seeded Generator that counts the rows drawn through ``integers`` and
    ``standard_normal``: in all (``rows``) and in each call (``calls``)."""

    def __init__(self, seed):
        self.rng, self.rows, self.calls = np.random.default_rng(seed), 0, []

    def _count(self, size):
        rows = int(np.prod(size)) // np.atleast_1d(size)[-1]  # size is m, (m,) or (k, m)
        self.rows += rows
        self.calls.append(rows)

    def integers(self, low, high, size):
        self._count(size)
        return self.rng.integers(low, high, size=size)

    def standard_normal(self, size):
        self._count(size)
        return self.rng.standard_normal(size)


class PlannedRows:
    """``standard_normal`` rows taken from a plan, then from a seeded generator
    one row at a time, so one k-row call reads the same rows as k one-row calls."""

    def __init__(self, plan, seed):
        self.plan, self.fill, self.read = plan, np.random.default_rng(seed), 0

    def standard_normal(self, size):
        shape = tuple(np.atleast_1d(size))
        m = shape[-1]
        rows = []
        for _ in range(shape[0] if len(shape) == 2 else 1):
            planned = self.read < len(self.plan)
            rows.append(self.plan[self.read] if planned else self.fill.standard_normal(m))
            self.read += 1
        return np.array(rows).reshape(shape)


def orthogonal_batch(m, n, span, seed):
    xs, ys = _sample_pairs(np.random.default_rng(seed), m, n, True, True, span=span)
    return list(xs), list(ys)


def float_scan_reference(R, xs, ys, pick):
    """Reference for the float scans, _violation_scan ('first') and largest_scan
    ('largest'): ``(p, norm)`` or None, one hit at a time, on the same slices, with the
    norm from two ``np.dot`` calls per hit.  A hit is raw > tol |R|^2 for 'first' and
    raw > 0 for 'largest'."""
    thr = tsankov._float_threshold(R) if pick == "first" else 0.0
    step = max(1, tsankov.SLICE_ENTRIES // (R.m * R.m))
    best = None
    for start in range(0, len(xs), step):
        x, y = xs[start : start + step], ys[start : start + step]
        c = commutators(_Contraction(R, x, y), x, y)
        raws = np.abs(c).max(axis=(1, 2))
        hits = np.flatnonzero(raws > thr)
        for p, raw in zip((hits + start).tolist(), raws[hits].tolist()):
            norm = raw / (float(np.dot(xs[p], xs[p])) * float(np.dot(ys[p], ys[p])))
            if best is None or norm > best[1]:
                best = (p, norm)
            if pick == "first":
                break
        if best is not None and pick == "first":
            break
    return best


class TestCommutator:
    def test_r0_orthogonal_pair_commutes(self):
        C = commutator(r0(4, 1), [1, 0, 0, 0], [0, 1, 0, 0])
        assert (C == 0).all()

    def test_self_pair_commutes(self, mix4):
        C = commutator(mix4, [1, 2, 0, 1], [1, 2, 0, 1])
        assert (C == 0).all()

    def test_mix_canonical_pair(self, mix4):
        # hand oracle: J(e1) = diag(0,4,1,1) against J(y) = I - y y^T + 3 w w^T
        # with y = (e2+e3)/sqrt(2), w = Theta y; evaluated at the scaled
        # representative e2+e3 the commutator picks up a factor <y,y> = 2
        C = commutator(mix4, [1, 0, 0, 0], [0, 1, 1, 0])
        expected = np.zeros((4, 4), dtype=object)
        expected[1, 2], expected[2, 1] = Fraction(-3), Fraction(3)
        expected[0, 3], expected[3, 0] = Fraction(3), Fraction(-3)
        assert (C == expected).all()

    def test_antisymmetric_matrix(self):
        rng = np.random.default_rng(5)
        for R in build_corpus(10, seed=321):
            x = frac_vec([int(v) for v in rng.integers(-3, 4, size=R.m)])
            y = frac_vec([int(v) for v in rng.integers(-3, 4, size=R.m)])
            C = commutator(R, x, y)
            assert (C == -C.T).all()


class TestCommutatorPoly:
    def test_zero_tensor(self):
        P = commutator_poly(combine([(0, r0(3, 1))]))
        assert P.is_zero()

    def test_matches_dense_commutator_exactly(self):
        rng = np.random.default_rng(17)
        for R in build_corpus(10, seed=99):
            P = commutator_poly(R)
            for _ in range(20):
                x = [Fraction(int(v)) for v in rng.integers(-3, 4, size=R.m)]
                y = [Fraction(int(v)) for v in rng.integers(-3, 4, size=R.m)]
                assert (evaluate_entries(P, x, y) == commutator(R, x, y)).all()

    def test_swap_antisymmetry_of_coefficients(self):
        # C(x,y) = -C(y,x): the coefficient at (i,j,k,l) is minus the one at (k,l,i,j)
        R = random_act(4, 3, seed=12)
        P = commutator_poly(R)
        for coeffs in P.entries.values():
            for (i, j, k, l), c in coeffs.items():
                assert coeffs.get((k, l, i, j), Fraction(0)) == -c

    def test_int64_bound_covers_folded_coefficients(self):
        # an int64 guard on 2 m maxv^2 alone once let this expansion overflow;
        # its coefficients reach 8 m maxv^2, past 2^62, so it must run on Python ints
        R = combine([(39960531, random_act(4, 3, seed=1))])
        assert 2 * 4 * max_numerator(R) ** 2 < _INT64_LIMIT <= 32 * 4 * max_numerator(R) ** 2
        P = commutator_poly(R)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = [Fraction(int(v)) for v in rng.integers(-3, 4, size=4)]
            y = [Fraction(int(v)) for v in rng.integers(-3, 4, size=4)]
            assert (evaluate_entries(P, x, y) == commutator(R, x, y)).all()

    def test_rtheta_vanishes_on_orthogonal_sample(self):
        P = commutator_poly(r_theta(standard_complex_structure(4), 1))
        rng = np.random.default_rng(23)
        hits = 0
        while hits < 100:
            x = rng.integers(-4, 5, size=4)
            v = rng.integers(-4, 5, size=4)
            y = int(x @ x) * v - int(v @ x) * x
            if not np.any(x) or not np.any(y):
                continue
            hits += 1
            val = evaluate_entries(P, x.tolist(), y.tolist())
            assert (val == 0).all()


class TestDivisibility:
    def test_trivial_multiple(self):
        # P = (sum_i x_i y_i) * x1 y1 -> quotient x1 y1 (indices 0-based)
        m = 3
        entries = {(0, 1): {}}
        for t in range(m):
            mono = (min(0, t), max(0, t), min(0, t), max(0, t))
            entries[(0, 1)][mono] = entries[(0, 1)].get(mono, Fraction(0)) + 1
        P = poly_from_entries(BiQuadraticMatrixPoly, m, RATIONAL, entries)
        L = divisible_by_pairing(P)
        assert L is not None
        assert L.entries == {(0, 1): {(0, 0): Fraction(1)}}
        assert L.multiply_pairing().entries == P.entries
        # float copies divide at any scale: the default threshold is tol * max|coeff|
        for lam in (1.0, 1e-12):
            scaled = {(0, 1): {mono: lam * float(c) for mono, c in entries[(0, 1)].items()}}
            Lf = divisible_by_pairing(poly_from_entries(BiQuadraticMatrixPoly, m, FLOAT, scaled))
            assert Lf.entries == {(0, 1): {(0, 0): lam}}

    def test_pure_monomial_not_in_ideal(self):
        # P = x1^2 y2^2
        P = poly_from_entries(BiQuadraticMatrixPoly, 3, RATIONAL, {(0, 1): {(0, 0, 1, 1): Fraction(1)}})
        assert divisible_by_pairing(P) is None
        # a tiny float coefficient is neither divisible nor zero by default
        for c in (1.0, 1e-12):
            Pf = poly_from_entries(BiQuadraticMatrixPoly, 3, FLOAT, {(0, 1): {(0, 0, 1, 1): c}})
            assert divisible_by_pairing(Pf) is None
            assert not Pf.is_zero()

    def test_mix_entry_not_divisible(self, mix4):
        P = commutator_poly(mix4)
        assert divisible_by_pairing(P) is None
        # pin the specific entry: the (2,3) matrix slot is not in the ideal
        entry = P.entries[(1, 2)]
        assert divisibility_by_linear_system(entry, 4) is None

    def test_agrees_with_linear_system_oracle(self):
        for R in build_corpus(30, ms=(3, 4), seed=1001):
            P = commutator_poly(R)
            L = divisible_by_pairing(P)
            for (a, b), coeffs in P.entries.items():
                oracle = divisibility_by_linear_system(coeffs, R.m)
                if L is None:
                    if oracle is None:
                        break  # confirmed: at least this entry is outside the ideal
                else:
                    assert oracle is not None
                    assert oracle == L.entries.get((a, b), {})

    def test_quotient_remultiplies_exactly(self):
        for R in [r0(4, Fraction(5, 3)), r_theta(standard_complex_structure(6), -2)]:
            P = commutator_poly(R)
            L = divisible_by_pairing(P)
            assert L is not None
            assert L.multiply_pairing().entries == P.entries

    def test_exact_check_holds_one_product_beside_p(self):
        # q L is compared with P entry by entry, so besides P only the product and a
        # boolean array are held: no difference array and no |P|
        P = commutator_poly(r0(12, Fraction(-5, 3)))
        divisible_by_pairing(P)  # fill the per-m caches first
        tracemalloc.start()
        try:
            assert divisible_by_pairing(P) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * P.values.nbytes


class TestFullCommutation:
    def test_zero_tensor_holds(self):
        v = full_commutation_test(combine([(0, r0(3, 1))]))
        assert v.holds and v.witness is None and v.method == "CoefficientExpansion"

    def test_r0_fails_with_half_entry_witness(self):
        # oracle: J(e1) = diag(0,1,1) against J((e1+e2)/sqrt 2) = I - y y^T
        # gives commutator entries +-1/2; at the scaled pair (e1, e1+e2) the
        # unit-equivalent norm is still 1/2
        R = r0(3, 1)
        C = commutator(R, [1, 0, 0], [1, 1, 0])
        assert C[0, 1] == Fraction(1) and np.dot(frac_vec([1, 1, 0]), frac_vec([1, 1, 0])) == 2
        unit_equivalent = C[0, 1] / 2
        assert abs(unit_equivalent) == Fraction(1, 2)
        v = full_commutation_test(R)
        assert not v.holds
        assert v.witness.commutator_norm > 0

    def test_rtheta_fails(self):
        v = full_commutation_test(r_theta(standard_complex_structure(4), 1))
        assert not v.holds

    def test_random_act_nonzero_fails_with_witness(self):
        R = random_act(4, 3, seed=7)
        assert R.max_abs() != 0
        v = full_commutation_test(R, seed=7)
        assert not v.holds
        C = commutator(R, v.witness.x, v.witness.y)
        assert (C != 0).any()

    def test_only_zero_passes_on_corpus(self):
        for R in build_corpus(40, seed=2024):
            v = full_commutation_test(R)
            assert v.holds == (R.max_abs() == 0)


class TestWitnessSearchKernels:
    def test_basis_candidates_are_orthogonal(self):
        for m in range(2, 8):
            _, xs, ys = _basis_candidates(m)
            assert len(xs) == m * (m - 1) + m * (m - 1) * (m - 2) // 2 + m * (m - 1) // 2
            assert all(np.dot(x, y) == 0 for x, y in zip(xs, ys))

    @pytest.mark.parametrize("m", range(2, 17))
    def test_basis_candidates_match_the_loop(self, m):
        ref = basis_candidates_reference(m)
        out = _basis_candidates(m)
        index, xs, ys = out
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in out)
        assert xs.tolist() == ref[:, 0].tolist() and ys.tolist() == ref[:, 1].tolist()
        # past the pairs (e_a, e_b), which _unit_pair_raws reads off the numerators, _basis_raws
        # lays out J(e_a) against Y_K at a (n - m) + K - m, K an off-diagonal half-table row,
        # then the pairs (e_b + e_c, e_b - e_c) from m (n - m) on
        n = m * (m + 1) // 2
        row = {pair: i for i, pair in enumerate(zip(*np.triu_indices(m, 1)))}
        want = []
        for x, y in ref[m * (m - 1) :]:
            sx, sy = tuple(np.flatnonzero(x).tolist()), tuple(np.flatnonzero(y).tolist())
            want.append(sx[0] * (n - m) + row[sy] if len(sx) == 1 else m * (n - m) + row[sx])
        assert index.tolist() == want

    def test_int64_kernel_near_the_bound_matches_bigint(self):
        base = random_act(4, 3, seed=3)
        xs, ys = orthogonal_batch(4, 12, span=4, seed=8)
        # the largest integer scale c with c^2 * bound < 2^62, then one past it
        c = isqrt((_INT64_LIMIT - 1) // int64_bound(base, xs, ys))
        for scale, dtype in ((c, np.int64), (c + 1, object)):
            R = combine([(scale, base)])
            assert (int64_bound(R, xs, ys) < _INT64_LIMIT) == (dtype is np.int64)
            k = _Contraction(R, xs, ys)
            c_batch = commutators(k, xs, ys)
            ref, _ = bigint_commutators(R, xs, ys)
            assert c_batch.dtype == dtype
            assert c_batch.tolist() == ref
            assert max(abs(e) for mat in ref for row in mat for e in row) > 2**50

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_sample_pairs_match_the_one_pair_rule(self, exact, orthogonal):
        # the block rule reads the rows of the one-row rule, two per pair, and so gives
        # its pairs and generator state whenever that rule rejects no row
        same = rejecting = 0
        for m in range(2, 17):
            for span in (4, 130):
                for n in (8, 200) if exact else (8,):
                    for seed in range(6 if exact else 12):
                        batch, ref = RowCounter(seed), RowCounter(seed)
                        xs, ys = _sample_pairs(batch, m, n, exact, orthogonal, span=span)
                        pairs = [sample_pair_reference(ref, m, exact, orthogonal, span) for _ in range(n)]
                        if ref.rows > 2 * n:  # the one-row rule rejected a row
                            assert exact and m <= 5
                            rejecting += 1
                            continue
                        assert_pairs(xs, ys, pairs, exact, orthogonal)
                        if orthogonal and not exact:
                            # the rule reaches about 100 ulps where v is nearly parallel to x
                            assert np.abs((xs * ys).sum(axis=1)).max() <= 512 * np.finfo(float).eps
                        assert batch.rows == 2 * n
                        assert batch.rng.bit_generator.state == ref.rng.bit_generator.state
                        same += 1
        assert same >= 300 and rejecting >= (10 if exact else 0)  # of 360 calls

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_sample_pairs_follow_the_block_rule(self, exact, orthogonal):
        for m in range(2, 17):
            for span in (4, 130):
                for n in (1, 8, 200):
                    for seed in range(3):
                        batch, ref, blocks = RowCounter(seed), RowCounter(seed), []
                        xs, ys = _sample_pairs(batch, m, n, exact, orthogonal, span=span)
                        assert_pairs(xs, ys, block_pairs_reference(ref, m, n, exact, orthogonal, span, blocks),
                                     exact, orthogonal)
                        assert batch.calls == [2 * k for k in blocks] and ref.rows == batch.rows
                        assert batch.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_sample_pairs_walk_past_rejected_rows(self):
        # at m=2 a row v parallel to x gives y = 0; each seed draws such a row,
        # and the last two also draw x = 0
        for seed, x_rejected in ((3, False), (8, False), (10, False), (1, True), (5, True)):
            rows = np.random.default_rng(seed).integers(-4, 5, size=(16, 2))
            x, v = rows[0::2], rows[1::2]
            y = (x * x).sum(axis=1, keepdims=True) * v - (v * x).sum(axis=1, keepdims=True) * x
            assert x.any(axis=1).all() != x_rejected and not y.any(axis=1).all()
            batch, ref = RowCounter(seed), RowCounter(seed)
            xs, ys = _sample_pairs(batch, 2, 8, True, True)
            assert_pairs(xs, ys, block_pairs_reference(ref, 2, 8, True, True), True, True)
            assert (ys != 0).any(axis=1).all()
            assert batch.rows == ref.rows > 16 and len(batch.calls) > 1
            assert batch.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("m", [2, 3, 5, 7])
    def test_one_block_draw_is_the_stream_of_one_row_draws(self, m):
        # _sample_pairs draws its rows in blocks, and the references draw them one
        # row at a time; odd m leaves half a 64-bit word buffered between integer draws
        for seed in range(3):
            for span in (1, 4, 130):
                block, single = np.random.default_rng(seed), np.random.default_rng(seed)
                rows = block.integers(-span, span + 1, size=(7, m))
                assert rows.dtype == np.int64
                one_by_one = [single.integers(-span, span + 1, size=m) for _ in range(7)]
                assert rows.tobytes() == np.array(one_by_one).tobytes()
                assert block.bit_generator.state == single.bit_generator.state
            block, single = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = block.standard_normal((7, m))
            one_by_one = [single.standard_normal(m) for _ in range(7)]
            assert rows.tobytes() == np.array(one_by_one).tobytes()
            assert block.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_sample_pairs_redraw_dropped_pairs(self, orthogonal):
        # at m 2-3 and span 1-2 zero rows, and for orthogonal pairs rows v
        # parallel to x, are common, so most calls drop pairs from their first
        # block of 2n rows and draw more blocks, each of 2k rows for k missing pairs
        rejecting = several = 0
        for m in (2, 3):
            for span in (1, 2):
                for n in (1, 2, 5, 31, 200):
                    for seed in range(4):
                        batch, ref, blocks = RowCounter(seed), RowCounter(seed), []
                        xs, ys = _sample_pairs(batch, m, n, True, orthogonal, span=span)
                        pairs = block_pairs_reference(ref, m, n, True, orthogonal, span, blocks)
                        assert_pairs(xs, ys, pairs, True, orthogonal)
                        assert batch.calls == [2 * k for k in blocks] and blocks[0] == n
                        assert batch.rows == ref.rows
                        assert batch.rng.bit_generator.state == ref.rng.bit_generator.state
                        rejecting += len(blocks) > 1
                        several += len(blocks) > 2
        assert rejecting >= 40 and several >= 15  # of 80 calls

    @pytest.mark.parametrize("orthogonal", [True, False])
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_sample_pairs_reject_planned_float_rows(self, m, orthogonal):
        # real float draws essentially never reject, so plan the rows (x, v) of each
        # pair: before each kept pair some pairs whose x is zero, or whose v is zero
        # or, when the pairs are orthogonal, parallel to x.  The blocks then keep the
        # planned pairs in order and read the plan to its end, and no further.
        rng = np.random.default_rng(m)
        for trial in range(6):
            n = (1, 2, 3, 8, 8, 20)[trial]
            plan, kept = [], []
            for _ in range(n):
                for _ in range(int(rng.integers(0, 4)) if trial else 0):
                    x = rng.standard_normal(m)
                    if rng.random() < 0.4:
                        plan += [np.zeros(m), rng.standard_normal(m)]
                    elif orthogonal and rng.random() < 0.6:
                        plan += [x, x * rng.uniform(0.5, 3) * rng.choice([-1, 1])]
                    else:
                        plan += [x, np.zeros(m)]
                plan += [rng.standard_normal(m), rng.standard_normal(m)]
                kept.append(plan[-2] / np.linalg.norm(plan[-2]))
            batch, ref = PlannedRows(plan, trial), PlannedRows(plan, trial)
            xs, ys = _sample_pairs(batch, m, n, False, orthogonal)
            assert_pairs(xs, ys, block_pairs_reference(ref, m, n, False, orthogonal), False, orthogonal)
            assert batch.read == ref.read == len(plan)
            assert np.abs(xs - np.array(kept)).max() <= 8 * np.finfo(float).eps
            assert len(plan) > 2 * n or trial == 0

    def test_float64_tier_near_the_bound_matches_bigint(self, monkeypatch):
        base = random_act(4, 3, seed=3)
        xs, ys = (list(a) for a in _basis_candidates(4)[1:3])  # |J(x)| reaches the J-bound on these
        tiers = []

        def spy(bound):
            tiers.append(tsankov_exact_dtype(bound))
            return tiers[-1]

        tsankov_exact_dtype = tsankov.exact_dtype
        monkeypatch.setattr(tsankov, "exact_dtype", spy)
        # the largest integer scale c with J-bound < 2^53, then one past it
        c = (_FLOAT64_LIMIT - 1) // jacobi_bound(base, xs, ys)
        for scale, jacobi_tier in ((c, np.float64), (c + 1, np.int64)):
            R = combine([(scale, base)])
            assert (jacobi_bound(R, xs, ys) < _FLOAT64_LIMIT) == (jacobi_tier is np.float64)
            tiers.clear()
            k = _Contraction(R, xs, ys)
            c_batch = commutators(k, xs, ys)
            ref, _ = bigint_commutators(R, xs, ys)
            assert tiers == [np.dtype(jacobi_tier), np.dtype(object)]
            assert c_batch.dtype == object
            assert c_batch.tolist() == ref
            assert max(abs(e) for mat in ref for row in mat for e in row) > 2**100

    def test_widened_span_takes_bigint_path_with_orthogonal_witness(self):
        R = random_act(6, 3, seed=11)
        xs, ys = orthogonal_batch(6, 16, span=4 + 2 * 63, seed=4)
        assert int64_bound(R, xs, ys) >= _INT64_LIMIT
        k = _Contraction(R, xs, ys)
        c_batch, s2 = commutators(k, xs, ys), R.denominator**2  # true commutators are C / s2
        assert c_batch.dtype == object
        assert c_batch.tolist() == bigint_commutators(R, xs, ys)[0]
        # a copy of every pair follows the originals; the first violator is an original
        first, w = _violation_scan(R, xs + [x.copy() for x in xs], ys + [y.copy() for y in ys])
        assert np.dot(w.x, w.y) == 0
        assert (commutator(R, w.x, w.y) != 0).any()
        norms = [
            Fraction(int(np.abs(c_batch[p]).max()), s2 * int(np.dot(x, x)) * int(np.dot(y, y)))
            for p, (x, y) in enumerate(zip(xs, ys))
        ]
        assert first == next(p for p, norm in enumerate(norms) if norm) and w.x.tolist() == xs[first].tolist()
        assert w.commutator_norm == norms[first]

    def test_sliced_scan_matches_one_slice(self, monkeypatch):
        # three pairs per slice, and a tied copy of every pair in a later slice
        base = random_act(6, 3, seed=11)
        for R in (base, base.to_float()):
            xs, ys = _sample_pairs(np.random.default_rng(4), 6, 16, R.mode.exact, True)
            xs, ys = np.concatenate([xs, xs]), np.concatenate([ys, ys])
            for pick in ("first", "largest") if not R.mode.exact else ("first",):  # only float picks the largest
                whole = SCANS[pick](R, xs, ys)
                with monkeypatch.context() as patch:
                    patch.setattr(tsankov, "SLICE_ENTRIES", 3 * 6 * 6)
                    sliced = SCANS[pick](R, xs, ys)
                assert sliced[0] == whole[0] < 16
                assert sliced[1].commutator_norm == whole[1].commutator_norm

    @pytest.mark.parametrize("m", range(3, 13))
    def test_float_batch_matches_the_dense_commutator(self, m):
        # a priori bound: each J entry sums m^2 products and each commutator
        # entry 2m products of J entries, with |x_i x_j| <= |x|^2 throughout
        eps = np.finfo(float).eps
        base = random_act(m, 3, seed=m).to_float()
        xs, ys = _sample_pairs(np.random.default_rng(m), m, 6, False, True)
        cx, cy = (a[:: m + 1] for a in _basis_candidates(m)[1:3])
        xs, ys = np.concatenate([xs, cx]), np.concatenate([ys, cy])
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            R = combine([(scale, base)])
            k = _Contraction(R, xs, ys)
            c = commutators(k, xs, ys)
            assert c.dtype == float and c.shape == (len(xs), m, m)
            size = float(R.max_abs()) ** 2
            for p, (x, y) in enumerate(zip(xs, ys)):
                bound = 8 * m**5 * eps * size * float(x @ x) * float(y @ y)
                assert np.abs(c[p] - commutator(R, x, y)).max() <= bound
                assert np.abs(c[p]).max() > 1e-6 * size * float(x @ x) * float(y @ y)

    def test_float_scan_matches_the_one_pair_loop(self, monkeypatch):
        # five pairs a slice; commuting pairs (x, x) push the first hit past a
        # slice boundary, and the loop's pick recurs as the last pair of one
        # slice and the first of the next
        for m, seed in ((3, 1), (5, 2), (6, 11), (8, 4)):
            monkeypatch.setattr(tsankov, "SLICE_ENTRIES", 5 * m * m)
            base = random_act(m, 3, seed=seed).to_float()
            xs, ys = _sample_pairs(np.random.default_rng(seed), m, 12, False, True)
            for scale in (1e-8, 1.0, 1e8):
                R = combine([(scale, base)])
                for pick in ("first", "largest"):
                    q, _ = float_scan_reference(R, xs, ys, pick)
                    best = (xs[q : q + 1], ys[q : q + 1])
                    parts = [(xs[:6], xs[:6]), (xs[:3], ys[:3]), best, best, (xs, ys)]
                    px, py = (np.concatenate(side) for side in zip(*parts))
                    ref = float_scan_reference(R, px, py, pick)
                    got, w = SCANS[pick](R, px, py)
                    assert got == ref[0] and (got == 6 if pick == "first" else got >= 6)
                    assert np.array_equal(w.x, px[got]) and np.array_equal(w.y, py[got])
                    assert abs(w.commutator_norm - ref[1]) <= 4 * np.finfo(float).eps * ref[1]

    def test_float_scan_ties_go_to_the_earlier_pair_across_slices(self, monkeypatch):
        # integer floats scaled by powers of two keep every sum exact, so copies
        # of a pair tie exactly; the exact scan picks the index it must match
        for m in (4, 5, 7):
            monkeypatch.setattr(tsankov, "SLICE_ENTRIES", 7 * m * m)
            base = random_act(m, 2, seed=m)
            cx, cy = _basis_candidates(m)[1:3]
            xs, ys = np.concatenate([cx] * 2), np.concatenate([cy] * 2)
            fx, fy = xs.astype(float), ys.astype(float)
            for pick in ("first", "largest"):
                # the exact index and norm: the first violator's, or the exhaustive largest
                p, norm = largest_reference(base, xs, ys) if pick == "largest" else _violation_scan(base, xs, ys)
                norm = norm if pick == "largest" else norm.commutator_norm
                assert p < len(cx)
                for k in (-27, 0, 27):
                    R = combine([(2.0**k, base.to_float())])
                    q, v = SCANS[pick](R, fx, fy)
                    assert q == p == float_scan_reference(R, fx, fy, pick)[0]
                    assert v.commutator_norm == float(norm) * 4.0**k


class TestHalfTableContraction:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_exact_half_table_jacobi_is_jacobi_on_every_tier(self, m):
        # scaling R moves the J bound max(bJ, 2 max|V|) across 2^53 and 2^62
        base = random_act(m, 2, seed=m) if m > 2 else r0(2, Fraction(3, 5))
        xs = np.random.default_rng(m).integers(-4, 5, size=(5, m))
        xs[0] = 0
        xs[1] = np.eye(m, dtype=np.int64)[m - 1]
        bound = jacobi_bound(base, xs, [])
        tiers = []
        for scale in (1, _FLOAT64_LIMIT // bound + 1, _INT64_LIMIT // bound + 1):
            R = combine([(scale, base)])
            contraction = _Contraction(R, xs, xs)
            tiers.append(contraction.jdt)
            js = contraction.jacobis(xs)
            assert js.shape == (len(xs), m, m)
            for x, j in zip(xs, js):
                got = [[Fraction(int(e), R.denominator) for e in row] for row in j.tolist()]
                assert got == jacobi(R, x).tolist()
        assert tiers == [np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)]

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 12])
    def test_float_half_table_jacobi_is_exactly_symmetric(self, m):
        eps = np.finfo(float).eps
        base = (random_act(m, 2, seed=m) if m > 2 else r0(2, 3)).to_float()
        xs = np.random.default_rng(m).standard_normal((6, m))
        for scale in (1e-8, 1.0, 1e8):
            R = combine([(scale, base)])
            js = _Contraction(R, xs, xs).jacobis(xs)
            assert js.dtype == float and (js == js.transpose(0, 2, 1)).all()
            for x, j in zip(xs, js):
                bound = 4 * m * m * eps * float(R.max_abs()) * float(np.abs(x).sum()) ** 2
                assert np.abs(j - jacobi(R, x)).max() <= bound

    def test_witness_search_keeps_slices_small(self):
        # one contraction per scan and slices of at most SLICE_ENTRIES / m^2
        # pairs; a whole-batch contraction at m=11 peaks at several MB
        R = combine([(Fraction(5, 7), random_act(11, 3, seed=5))])
        search_witness(R, 0, 200, True)  # fill the per-m caches first
        tracemalloc.start()
        try:
            search_witness(R, 0, 200, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


    def test_basis_raws_keep_slices_small(self):
        # m=24: the whole (a, K) grid product would hold m^3 n = 4.1M entries; each slice
        # temporary holds at most SLICE_ENTRIES, a handful of them are alive at once, and the
        # one whole-table array is the int64 table's cast to the float64 J tier
        R = combine([(Fraction(5, 7), random_act(24, 3, seed=5))])
        table = _jacobi_table(R)
        assert table.dtype == np.int64
        _basis_raws(R, table)  # fill the per-m caches first
        tracemalloc.start()
        try:
            _basis_raws(R, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes + 8 * tsankov.SLICE_ENTRIES * 8


def basis_contraction_raws(R):
    """Reference for _unit_pair_raws and _basis_raws: the raw norm of every basis candidate
    through one contraction of the candidates, and that contraction's P tier."""
    xs, ys = _basis_candidates(R.m)[1:3]
    k = _Contraction(R, xs, ys)
    return np.abs(commutators(k, xs, ys)).max(axis=(1, 2)), k.cdt


def unit_pair_raws(R):
    """The raws of the pairs (e_a, e_b) that _unit_pair_raws yields, in one array, checking
    that its chunks follow each other."""
    chunks = list(_unit_pair_raws(R))
    assert [start for start, _ in chunks] == np.cumsum([0] + [len(r) for _, r in chunks[:-1]]).tolist()
    return np.concatenate([raws for _, raws in chunks])


def search_round0_reference(R, seed, n_samples, orthogonal):
    """The first round of the witness search as one scan of the basis candidates followed
    by the seeded samples, or None: the first violator in rational mode, the largest in float."""
    cx, cy = _basis_candidates(R.m)[1:3]
    rng = np.random.default_rng(seed)
    xs, ys = tsankov._sample_pairs(rng, R.m, max(n_samples, 16), R.mode.exact, orthogonal)
    scan = _violation_scan if R.mode.exact else largest_scan
    found = scan(R, np.concatenate([cx, xs]), np.concatenate([cy, ys]))
    return None if found is None else found[1]


def witness_key(w):
    """Coordinates with their element types, the norm and its type."""
    coords = [(type(t), t) for t in [*w.x, *w.y]]
    return coords, w.x.dtype, w.y.dtype, type(w.commutator_norm), w.commutator_norm


class TestBasisCandidatesFromTheTable:
    @pytest.mark.parametrize("m", [*range(2, 13), 16])
    def test_raws_match_the_contraction_on_every_tier(self, m, monkeypatch):
        base = random_act(m, 3, seed=m)
        # 2^20 puts P on int64 and 2^40 / 3 on Python ints; 10^25 puts J there too
        tiers = set()
        first = m * (m - 1)  # the pairs (e_a, e_b), read off the numerators
        for scale in (1, 2**20, Fraction(2**40, 3), *((10**25,) if m <= 8 else ())):
            R = combine([(scale, base)])
            ref, tier = basis_contraction_raws(R)
            got = _basis_raws(R, _jacobi_table(R))
            assert got.dtype == ref.dtype and got.tolist() == ref[first:].tolist()
            assert [int(raw) for raw in unit_pair_raws(R)] == ref[:first].tolist()
            tiers.add(tier)
        assert tiers == {np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)}
        # float: rounded values, so the sums are compared bit for bit
        q, _ = np.linalg.qr(np.random.default_rng(m).standard_normal((m, m)))
        for R in (
            base.to_float(),
            combine([(1e30 / 7, base.to_float())]),
            combine([(1e-8 / 3, base.to_float())]),
            rotate(base.to_float(), q),
        ):
            ref, _ = basis_contraction_raws(R)
            got = np.concatenate([unit_pair_raws(R), _basis_raws(R, _jacobi_table(R))])
            assert got.dtype == np.float64 and got.tobytes() == ref.tobytes()
        # slices of a few K and one a, and of every K and several a
        n = m * (m + 1) // 2
        R = combine([(Fraction(5, 7), base)])
        ref, _ = basis_contraction_raws(R)
        for entries in (5 * m * m, 3 * n * m * m):
            monkeypatch.setattr(tsankov, "SLICE_ENTRIES", entries)
            assert _basis_raws(R, _jacobi_table(R)).tolist() == ref[first:].tolist()

    def test_search_matches_one_scan_of_the_first_round(self):
        for m in range(3, 13):
            base = random_act(m, 3, seed=m + 1)
            tensors = [base, combine([(10**25, base)])] if m <= 6 else [base]
            tensors += [base.to_float(), combine([(1e30 / 7, base.to_float())])]
            if m % 2 == 0:
                mix = combine([(1, r0(m, 1)), (Fraction(2, 3), r_theta(standard_complex_structure(m), 1))])
                tensors += [mix, mix.to_float()]
            for R in tensors:
                for seed, orthogonal in ((0, True), (1, False)):
                    want = search_round0_reference(R, seed, 40, orthogonal)
                    got = search_witness(R, seed, 40, orthogonal)
                    assert want is not None
                    if R.mode.exact:
                        assert witness_key(got) == witness_key(want)
                    else:
                        assert witness_key(got)[:4] == witness_key(want)[:4]
                        assert abs(got.commutator_norm - want.commutator_norm) <= 4e-16 * want.commutator_norm

    def test_a_candidate_beats_the_sample_it_ties(self, monkeypatch):
        # the samples are scaled copies of the first violating candidate, so their norms
        # tie it exactly; the candidate comes first, with Python-int coordinates as a sample has,
        # and no sample is drawn
        for m in (3, 5, 8):
            R = random_act(m, 3, seed=m)
            cx, cy = _basis_candidates(m)[1:3]
            p, w = _violation_scan(R, cx, cy)
            xs = np.array([2 * cx[p], cx[p], cx[(p + 1) % len(cx)]])
            ys = np.array([cy[p], 3 * cy[p], cy[(p + 1) % len(cy)]])
            draws = []
            monkeypatch.setattr(tsankov, "_sample_pairs", lambda *args, **kwargs: draws.append(1) or (xs, ys))
            got = search_witness(R, 0, 3, True)
            assert not draws
            assert witness_key(got) == witness_key(search_round0_reference(R, 0, 3, True))
            assert got.x.tolist() == cx[p].tolist() and got.commutator_norm == w.commutator_norm
            assert got.x.dtype == object and all(type(t) is int for t in [*got.x, *got.y])
            monkeypatch.undo()

    def test_candidates_skip_the_contraction(self, monkeypatch):
        # the candidates are J(e_a) off the numerators and sums of table rows; a reject whose
        # first violator is a candidate contracts no pair
        rows, jacobis = [], _Contraction.jacobis
        monkeypatch.setattr(_Contraction, "jacobis", lambda self, a: rows.append(len(a)) or jacobis(self, a))
        cs = conjugate_structure(standard_complex_structure(8), random_signed_permutation(8, 1))
        mix = combine([(Fraction(5, 3), r0(8, 1)), (Fraction(-7, 4), r_theta(cs, 1))])
        for R in (random_act(7, 3, seed=2), mix):
            assert search_witness(R, 0, 50, True) is not None
        assert rows == []

    def test_witness_search_at_m32_keeps_slices_small(self):
        R = random_act(32, 3, seed=5)
        search_witness(R, 0, 200, True)  # fill the per-m caches first
        tracemalloc.start()
        try:
            search_witness(R, 0, 200, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18e6


class TestFirstPick:
    def test_first_violator_across_slices_and_tiers_matches_the_loop(self, monkeypatch):
        # commuting pairs (x, x) fill the first two slices, and the first violator's scaled
        # copies (2x, y) and (x, 3y), which tie its norm, follow it in later slices
        monkeypatch.setattr(tsankov, "SLICE_ENTRIES", 5 * 4 * 4)
        base = random_act(4, 3, seed=2)
        xs, ys = orthogonal_batch(4, 12, span=4, seed=6)
        xs, ys = [*xs[:9], *xs], [*xs[:9], *ys]
        p, _ = first_reference(base, xs, ys)
        assert p == 9
        xs, ys = [*xs, 2 * xs[p], xs[p]], [*ys, ys[p], 3 * ys[p]]
        bound, tiers = int64_bound(base, xs, ys), []
        for scale in (1, isqrt(_FLOAT64_LIMIT // bound) + 1, isqrt(_INT64_LIMIT // bound) + 1, 10**400):
            R = combine([(scale, base)])
            tiers.append(_Contraction(R, xs, ys).cdt)
            got, w = _violation_scan(R, xs, ys)
            assert (got, w.commutator_norm) == first_reference(R, xs, ys)
            assert got == p and w.x.tolist() == xs[p].tolist()
        assert tiers == [np.dtype(np.float64), np.dtype(np.int64), np.dtype(object), np.dtype(object)]


class TestTsankovTest:
    def test_r0_holds_both_methods(self):
        for m in range(3, 7):
            for c in (-2, 1, 5):
                R = r0(m, c)
                assert tsankov_test(R, "exact").holds
                assert tsankov_test(R, "sampled", n_samples=60, seed=m).holds

    def test_rtheta_holds_both_methods(self):
        from actlab import conjugate_structure, random_signed_permutation

        for m in (4, 6):
            cs = conjugate_structure(
                standard_complex_structure(m), random_signed_permutation(m, seed=m)
            )
            R = r_theta(cs, Fraction(4, 7))
            assert tsankov_test(R, "exact").holds
            assert tsankov_test(R, "sampled", n_samples=60, seed=m).holds

    @pytest.mark.parametrize("method", [None, 1, "bogus"])
    def test_unknown_methods_are_degenerate_input(self, method):
        # a non-string method used to raise AttributeError, outside ActError
        with pytest.raises(DegenerateInput, match="unknown method"):
            tsankov_test(r0(3, 1), method)

    def test_mix_fails_with_orthogonal_witness(self, mix4):
        v = tsankov_test(mix4, "exact")
        assert not v.holds and v.method == "ExactDivisibility"
        w = v.witness
        assert np.dot(w.x, w.y) == 0
        assert w.commutator_norm >= Fraction(3, 2)
        assert (commutator(mix4, w.x, w.y) != 0).any()

    def test_sampled_witness_first_violator_is_deterministic(self, mix4):
        a = tsankov_test(mix4, "sampled", n_samples=50, seed=5)
        b = tsankov_test(mix4, "sampled", n_samples=50, seed=5)
        assert not a.holds and not b.holds
        assert np.array_equal(a.witness.x, b.witness.x)
        assert np.array_equal(a.witness.y, b.witness.y)
        assert np.dot(a.witness.x, a.witness.y) == 0

    def test_methods_agree_on_corpus(self, corpus200):
        for R in corpus200:
            exact = tsankov_test(R, "exact", seed=3)
            sampled = tsankov_test(R, "sampled", n_samples=120, seed=3)
            assert exact.holds == sampled.holds

    def test_float_mode_decisions(self, mix4):
        assert tsankov_test(r0(4, 1.5).to_float(), "exact").holds
        assert tsankov_test(r_theta(standard_complex_structure(4), 2).to_float(), "exact").holds
        # the verdict must not depend on scale (1e-5 once raised
        # ClassificationInconsistency, 1e-6 and 1e-8 once held)
        for lam in (1.0, 1e-5, 1e-6, 1e-8):
            R = combine([(lam, mix4.to_float())])
            for method in ("exact", "sampled"):
                fv = tsankov_test(R, method)
                assert not fv.holds
                assert abs(np.dot(fv.witness.x, fv.witness.y)) <= 1e-12

    def test_huge_entries_take_bigint_path(self):
        # entries beyond int64 force the object-array fallbacks end to end
        from actlab import classify

        huge = Fraction(2**70 + 1, 3)
        R = combine(
            [
                (huge, r0(4, 1)),
                (Fraction(1, 2**68), r_theta(standard_complex_structure(4), 1)),
            ]
        )
        assert R.values.dtype == object and all(type(v) is int for v in R.values.reshape(-1))
        ve = tsankov_test(R, "exact")
        vs = tsankov_test(R, "sampled", n_samples=30, seed=2)
        assert not ve.holds and not vs.holds
        assert np.dot(ve.witness.x, ve.witness.y) == 0
        res = classify(combine([(huge, r_theta(standard_complex_structure(4), 1))]))
        assert res.tag == "ComplexForm" and res.c == huge and res.residual == 0


def binary_scale_outcomes(R):
    """What the decisions report on R: verdicts, tags and witnesses, with the
    witness norms and c kept apart, since they scale with R."""
    found, sizes = [], []
    for v in (tsankov_test(R, "exact"), tsankov_test(R, "sampled"), full_commutation_test(R)):
        w = v.witness
        found.append((v.holds, v.method) + (() if w is None else (w.x.tolist(), w.y.tolist())))
        sizes.append(None if w is None else (w.commutator_norm, 2))
    res = classify(R)
    theta = None if res.theta is None else res.theta.theta.tolist()
    w = res.witness
    found.append((res.tag, theta, res.residual) + (() if w is None else (w.x.tolist(), w.y.tolist())))
    sizes += [None if res.c is None else (res.c, 1), None if w is None else (w.commutator_norm, 2)]
    return found, sizes


class TestBinaryScale:
    def test_float_decisions_at_any_power_of_two(self):
        # commutators are quadratic in R, so at 2^-520 they underflow to 0 and
        # at 2^520 they overflow to inf - inf unless the decision rescales R;
        # scaling by a power of two is exact, so only the norms and c may move,
        # by 4^k and 2^k, to inf or 0.0 where that leaves the float range
        q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))
        tensors = [
            random_act(5, 3, seed=1).to_float(),
            combine([(1, r0(4, 1)), (1, r_theta(standard_complex_structure(4), 1))]).to_float(),
            r0(5, Fraction(3, 2)).to_float(),
            rotate(r_theta(standard_complex_structure(6), 1).to_float(), q),
        ]
        for base in tensors:
            found, sizes = binary_scale_outcomes(base)
            for k in (-700, -520, 0, 520, 700):
                R = combine([(2.0**k, base)])
                assert np.array_equal(R.values, np.ldexp(base.values, k))
                got, got_sizes = binary_scale_outcomes(R)
                assert got == found
                for size, want in zip(got_sizes, sizes):
                    assert (size is None) == (want is None)
                    if want is not None:
                        with np.errstate(over="ignore", under="ignore"):
                            assert size[0] == np.ldexp(want[0], want[1] * k)
                        assert type(size[0]) is type(want[0])
        # the combo fails with the basis witness (e_0, e_1 + e_2), at norm 3/2 unscaled
        found, sizes = binary_scale_outcomes(tensors[1])
        assert found[0] == (False, "ExactDivisibility", [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0])
        assert sizes[0] == (1.5, 2)


def count_expansions(monkeypatch):
    """Route actlab.tsankov.commutator_poly through a wrapper; returns its call list."""
    calls, real = [], tsankov.commutator_poly
    monkeypatch.setattr(tsankov, "commutator_poly", lambda R: calls.append(R) or real(R))
    return calls


def refuse_expansion(monkeypatch):
    def refuse(R):
        raise AssertionError("the commutator polynomial was expanded")

    monkeypatch.setattr(tsankov, "commutator_poly", refuse)


def copies(corpus, scale):
    """The corpus itself when scale is None, else its float copies times scale."""
    return corpus if scale is None else [combine([(scale, R.to_float())]) for R in corpus]


SCALES = pytest.mark.parametrize("scale", [None, 1e-8, 1.0, 1e8], ids=["exact", "1e-08", "1", "1e+08"])


class TestTriage:
    @SCALES
    def test_verdicts_match_divisibility_on_corpus(self, corpus200, monkeypatch, scale):
        corpus = copies(corpus200, scale)
        calls = count_expansions(monkeypatch)
        decided = [_decide(R, 0, 200, orthogonal=True) for R in corpus]
        assert not calls  # the zero test, the screen or a fit settled every tensor
        monkeypatch.undo()
        fits = 0
        for R, (verdict, fit) in zip(corpus, decided):
            assert verdict.holds == (divisible_by_pairing(commutator_poly(R), _float_threshold(R)) is not None)
            if fit is not None:
                c, cs, residual = fit
                rebuilt = r0(R.m, c, R.mode) if cs is None else r_theta(cs, c)
                if R.mode.exact:
                    assert (rebuilt.components == R.components).all() and residual == 0
                else:
                    assert np.abs(rebuilt.values - R.values).max() <= 1e-12 * np.abs(R.values).max()
                    assert residual <= 1e-12
                fits += 1
        assert fits == sum(v.holds for v, _ in decided) - sum(R.is_zero() for R in corpus)

    @SCALES
    def test_full_commutation_screen_matches_expansion_on_corpus(self, corpus200, monkeypatch, scale):
        corpus = copies(corpus200, scale)
        calls = count_expansions(monkeypatch)
        verdicts = [full_commutation_test(R).holds for R in corpus]
        assert not calls
        monkeypatch.undo()
        assert verdicts == [commutator_poly(R).is_zero(_float_threshold(R)) for R in corpus]

    def test_irrational_structure_falls_back_to_expansion(self, monkeypatch):
        R = quaternion_tensor()
        assert validate(R, RATIONAL).accepted
        calls = count_expansions(monkeypatch)
        v = tsankov_test(R, "exact")
        assert v.holds and v.method == "ExactDivisibility" and len(calls) == 1
        with pytest.raises(
            ClassificationInconsistency,
            match=r"^rank-one factor of J\(e_0\) has no exact representation: ",
        ):
            classify(R)
        # Theta = S / sqrt 2 exists in float mode
        res = classify(R.to_float())
        assert res.tag == "ComplexForm" and abs(res.c - 1) <= 1e-12

    @pytest.mark.parametrize("m", (4, 6, 8))
    def test_float_witness_below_the_threshold_after_a_certificate(self, m):
        # c0 R0 + c1 R_Theta, c0 = 1e-9: the expansion proves failure with a
        # largest coefficient of 2 tol |R|^2, yet no sampled unit pair reaches
        # tol |R|^2, so a search at that threshold found nothing and raised
        R = combine([
            (1e-9, r0(m, 1).to_float()),
            ((1 - 1e-9) / 3, r_theta(standard_complex_structure(m), 1).to_float()),
        ])
        thr = _float_threshold(R)
        e = lambda *ones: [float(i in ones) for i in range(m)]  # noqa: E731
        for seed in range(3):
            v = tsankov_test(R, "exact", seed=seed)
            assert not v.holds
            w = v.witness
            assert (w.x.tolist(), w.y.tolist()) == (e(0), e(1, 2))
            assert 0.49 * thr < w.commutator_norm < 0.51 * thr
            assert np.abs(commutator(R, w.x, w.y)).max() > 0
            res = classify(R, seed=seed)
            assert res.tag == "NotTsankov" and res.witness.commutator_norm == w.commutator_norm
            # the sampled test keeps the threshold, so this family lies in its band
            assert tsankov_test(R, "sampled", seed=seed).holds

    def test_large_accepts_without_expansion(self, monkeypatch):
        refuse_expansion(monkeypatch)
        c = Fraction(-7, 3)
        R = r0(32, c)
        res = classify(R)
        assert (res.tag, res.c, res.residual) == ("ConstantCurvature", c, 0)
        res = classify(R.to_float())
        assert res.tag == "ConstantCurvature" and abs(res.c - c) <= 1e-12 and res.residual <= 1e-12
        cs = conjugate_structure(standard_complex_structure(32), random_signed_permutation(32, 5))
        R = r_theta(cs, c)
        res = classify(R)
        assert (res.tag, res.c, res.residual) == ("ComplexForm", c, 0)
        th = res.theta.theta
        assert (th == cs.theta).all() or (th == -cs.theta).all()
        res = classify(R.to_float())
        assert res.tag == "ComplexForm" and abs(res.c - c) <= 1e-12 and res.residual <= 1e-12
        th, want = res.theta.theta, cs.theta.astype(float)
        assert min(np.abs(th - want).max(), np.abs(th + want).max()) <= 1e-12

    def test_rejects_keep_the_search_witness(self, monkeypatch):
        # the first violator, which the expansion path reports too; exact coordinates are Python
        # ints whether a basis candidate wins, as (e_0, e_1) does for the random tensors, or a
        # sample, as for c R0 on all pairs, where every (orthogonal) candidate commutes
        refuse_expansion(monkeypatch)
        e = lambda *ones: [int(i in ones) for i in range(12)]  # noqa: E731
        pinned = (
            (tsankov_test, random_act(12, 3, 0), "ExactDivisibility", e(0), e(1), Fraction(1977)),
            (tsankov_test, random_act(12, 3, 1), "ExactDivisibility", e(0), e(1), Fraction(2351)),
            (
                full_commutation_test,
                r0(12, Fraction(7, 3)),
                "CoefficientExpansion",
                [3, 1, 0, -2, -2, -4, -4, -4, -3, 3, 1, 4],
                [0, 1, 4, 2, 1, 0, 1, 4, -2, 3, 2, -4],
                Fraction(392, 909),
            ),
        )
        for decide, R, method, x, y, norm in pinned:
            v = decide(R)
            assert not v.holds and v.method == method
            w = v.witness
            assert w.x.dtype == object and w.y.dtype == object
            assert all(type(t) is int for t in [*w.x, *w.y])
            assert (w.x.tolist(), w.y.tolist(), w.commutator_norm) == (x, y, norm)
            assert type(w.commutator_norm) is Fraction

    def test_large_reject_keeps_the_search_witness(self, monkeypatch):
        # m=20: the first pair, (e_0, e_1), violates, read off the numerators
        refuse_expansion(monkeypatch)
        v = tsankov_test(random_act(20, 3, 0), "exact")
        assert not v.holds and v.method == "ExactDivisibility"
        w = v.witness
        assert all(type(t) is int for t in [*w.x, *w.y])
        assert w.x.tolist() == [1] + [0] * 19
        assert w.y.tolist() == [0, 1] + [0] * 18
        assert w.commutator_norm == Fraction(1878)


class TestAcceptPathConstants:
    @pytest.mark.parametrize("orthogonal", (True, False))
    def test_screen_pairs_are_one_fresh_draw(self, orthogonal):
        # only float tensors are screened, so the pairs are float draws
        for m in range(2, 17):
            pairs = _screen_pairs(m, orthogonal)
            fresh = _sample_pairs(
                np.random.default_rng(tsankov.SCREEN_SEED), m, tsankov.SCREEN_PAIRS, False, orthogonal
            )
            assert _screen_pairs(m, orthogonal) is pairs
            for got, want in zip(pairs, fresh):
                assert got.dtype == want.dtype and got.shape == want.shape == (tsankov.SCREEN_PAIRS, m)
                assert got.tobytes() == want.tobytes()  # float bits, signed zeros included
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0, 0] = 1

    @staticmethod
    def rebuilt_residual(R, s):
        """The residual of the rebuilt c R0, which the exact ``_r0_fit`` certifies in place."""
        c = Fraction(int(s), R.denominator) if R.mode.exact else s
        return _relative_residual(R, r0(R.m, c, R.mode))

    @staticmethod
    def sectional(R):
        ii, jj = np.triu_indices(R.m, 1)
        return R.values[ii, jj, jj, ii]

    def test_r0_residual_matches_the_rebuild(self):
        exact = []
        for m in range(2, 13):
            plane = from_form(np.diag([1, 1] + [0] * (m - 2)), RATIONAL)  # one sectional value, on the pattern
            for c in (1, Fraction(-5, 3), Fraction(2**70 + 1, 3), Fraction(7, 4)):
                R = r0(m, c)
                off = combine([(1, R), (Fraction(1, 1000), random_act(m, 1, m))])
                exact += [R, off, combine([(1, R), (Fraction(1, 7), plane)])]
        scaled = [
            CurvatureTensor(R.m, np.ldexp(R.to_float().values, k), FLOAT) for R in exact for k in (-60, -3, 0, 5, 60)
        ]
        seen = set()
        for R in exact + scaled:
            s = R.values[0, 1, 1, 0]  # the fit's pick
            got, want = _r0_fit(R), self.rebuilt_residual(R, s)
            seen.add((R.mode.exact, got is not None))
            if not negligible(want, R.mode):
                assert got is None
                continue
            c = Fraction(int(s), R.denominator) if R.mode.exact else s
            assert got[:2] == (c, None) and type(got[2]) is type(want) and repr(got[2]) == repr(want)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_odd_m_error_reports_the_rebuild_residual(self):
        c = Fraction(2, 3)
        for R, text in (
            (combine([(1, r0(5, c)), (Fraction(1, 1000), random_act(5, 1, 5))]), "36/2027"),
            (combine([(1, r0(5, c)), (Fraction(1, 1000), random_act(5, 1, 5))]).to_float(), "0.017760236803157376"),
        ):
            sect = self.sectional(R)
            want = self.rebuilt_residual(R, sect[np.flatnonzero(sect)[0]])
            message = f"commutation holds but constant-curvature reconstruction fails (residual {want})"
            assert str(want) == text
            with pytest.raises(ClassificationInconsistency) as exc:
                _fit(R)
            assert str(exc.value) == message

    @pytest.mark.parametrize("m", (3, 5))
    def test_odd_m_error_without_a_sectional_value(self, m):
        # not a curvature tensor: its one nonzero numerator, v[1, 0, 0, 2], leaves every sectional value 0
        v = np.zeros((m,) * 4, dtype=np.int64)
        v[1, 0, 0, 2] = 1
        exact = CurvatureTensor(m, v, RATIONAL)
        for R in (exact, exact.to_float()):
            assert tsankov_test(R).holds
            with pytest.raises(ClassificationInconsistency) as exc:
                classify(R)
            assert str(exc.value) == (
                "commutation holds but constant-curvature reconstruction fails (no nonzero sectional value)"
            )

    @pytest.mark.parametrize("m", range(3, 9))
    def test_zero_first_sectional_value_is_no_fit(self, m):
        # R(e_0, e_1, e_1, e_0) = 0, the fit's pick, while every sectional value off e_0 is 1
        exact = from_form(np.diag([0] + [1] * (m - 1)), RATIONAL)
        for R in (exact, exact.to_float()):
            assert R.values[0, 1, 1, 0] == 0 and R.values[1, 2, 2, 1] == 1
            assert _r0_fit(R) is None
            assert tsankov_test(R).holds == (divisible_by_pairing(commutator_poly(R)) is not None)


def rtheta_near_misses(m):
    """``(thetas, mixes)`` in even m: c R_Theta for c = -7/4 and for c = -(2^70 + 1)/3, whose
    numerators pass 2^62, with Theta rotated by a seeded signed permutation and by a Cayley
    rotation; and the mixes 3/5 R0 - 2/7 R_Theta of each rotation."""
    thetas, mixes = [], []
    for q in (random_signed_permutation(m, 3), cayley_rotation(m, m)):
        cs = conjugate_structure(standard_complex_structure(m), q)
        thetas += [r_theta(cs, Fraction(-7, 4)), r_theta(cs, Fraction(-(2**70 + 1), 3))]
        mixes.append(combine([(Fraction(3, 5), r0(m, 1)), (Fraction(-2, 7), r_theta(cs, 1))]))
    assert any(R.values.dtype == object for R in thetas)
    return thetas, mixes


def count_calls(monkeypatch, *names):
    """Route each named ``actlab.tsankov`` function through a counting wrapper; returns the counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(tsankov, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(tsankov, name, spy)
    return counts


class TestRationalLadder:
    """Exact orthogonal decisions try c R0 right after the zero test, then c R_Theta behind the
    rank-one test of J(e_0), both before the Jacobi table."""

    @staticmethod
    def assert_same_fit(got, want):
        (c, cs, residual), (c2, cs2, residual2) = got, want
        assert (c, residual) == (c2, residual2) and type(c) is type(c2)
        assert (cs is None) == (cs2 is None)
        if cs is not None:
            assert (cs.theta == cs2.theta).all()

    def check_against_the_expansion(self, tensors):
        for R in tensors:
            verdict, fit = _decide(R, 0, 200, True)
            assert verdict.holds == (divisible_by_pairing(commutator_poly(R)) is not None)
            assert verdict.method == "ExactDivisibility"
            if R.is_zero():
                assert fit is None
            elif fit is None:
                with pytest.raises(ClassificationInconsistency):
                    _fit(R)
            else:
                self.assert_same_fit(fit, _fit(R))

    def test_decisions_match_the_expansion_on_corpus(self, corpus200):
        self.check_against_the_expansion(corpus200)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_decisions_match_the_expansion_beside_r0(self, m):
        tensors = r0_near_misses(m)
        self.check_against_the_expansion(tensors)
        # every c R0 holds, and from m = 3 on no near miss does (at m = 2 every tensor is c R0)
        verdicts = [_decide(R, 0, 200, True)[0].holds for R in tensors]
        n = 3 if m <= 8 else 2
        assert verdicts == [True] * n + [m == 2] * (len(tensors) - n)

    def test_big_numerators_stay_python_ints(self):
        c = Fraction(2**70 + 1, 3)
        R = r0(9, c)
        assert R.values.dtype == object
        res = classify(R)
        assert (res.tag, res.c, res.residual) == ("ConstantCurvature", c, 0)

    @pytest.mark.parametrize("m", (3, 4, 9, 16))
    def test_r0_accepts_skip_the_table_and_the_screen(self, monkeypatch, m):
        counts = count_calls(monkeypatch, "_jacobi_table", "_first_violation")
        for c in (Fraction(-5, 3), Fraction(2**70 + 1, 3)):
            R = r0(m, c)
            assert tsankov_test(R, "exact").holds
            res = classify(R)
            assert (res.tag, res.c, res.residual) == ("ConstantCurvature", c, 0)
        assert counts == {"_jacobi_table": 0, "_first_violation": 0}

    def test_rejects_and_rtheta_accepts_build_the_table_once(self, monkeypatch):
        # an exact reject is decided by round 0 of the witness search, with no screen: one that
        # violates at a pair (e_a, e_b) never builds the table, and one whose pairs (e_a, e_b)
        # commute builds it once, for the candidates and the samples; an exact c R_Theta accept,
        # decided before the table, never does
        counts = count_calls(monkeypatch, "_jacobi_table", "_first_violation", "_basis_raws")
        cs = conjugate_structure(standard_complex_structure(8), random_signed_permutation(8, 2))
        cases = (
            (random_act(6, 2, 1), False, 0),
            (r0_near_misses(10)[2], False, 0),  # an off-pattern numerator
            (rtheta_near_misses(8)[1][0], False, 1),  # a signed-permuted mix
            (from_form(np.diag([0, 1, 1, 1, 1]), RATIONAL), False, 1),  # every candidate commutes: a sample
            (r_theta(cs, Fraction(7, 4)), True, 0),
        )
        for R, holds, calls in cases:
            v = tsankov_test(R, "exact")
            assert v.holds is holds
            assert counts == {"_jacobi_table": calls, "_first_violation": 0, "_basis_raws": calls}
            counts.update(dict.fromkeys(counts, 0))

    def test_float_rejects_keep_the_screen(self, monkeypatch):
        # float mode screens first, and its witness search then starts at round 0
        counts = count_calls(monkeypatch, "_jacobi_table", "_first_violation", "_basis_raws", "commutator_poly")
        assert not tsankov_test(random_act(6, 2, 1).to_float(), "exact").holds
        assert counts == {"_jacobi_table": 1, "_first_violation": 1, "_basis_raws": 1, "commutator_poly": 0}

    @pytest.mark.parametrize("m", range(2, 13, 2))
    def test_rtheta_decisions_match_the_expansion(self, m):
        thetas, mixes = rtheta_near_misses(m)
        self.check_against_the_expansion(thetas + mixes)
        assert [_decide(R, 0, 200, True)[0].holds for R in thetas + mixes] == [True] * len(thetas) + [
            m == 2  # at m = 2 every tensor is c R0
        ] * len(mixes)

    def test_irrational_theta_matches_the_expansion(self):
        # J(e_0) has rank one, but its factor is irrational: the fit fails, and the expansion accepts
        self.check_against_the_expansion([quaternion_tensor()])

    def test_asymmetric_rank_one_j_is_left_to_the_screen(self):
        # arrays outside the symmetries whose J(e_0) numerators are rank one but not symmetric:
        # the c R_Theta fit's InvalidOperator is suppressed, and the screen or the expansion decides
        single = np.zeros((4,) * 4, dtype=np.int64)
        single[1, 0, 0, 2] = 1  # J(x) = x_0^2 E, so every pair commutes
        screened = random_act(4, 3, 1).values.copy()
        screened[:, 0, 0, :] = single[:, 0, 0, :]
        R, R2 = CurvatureTensor(4, single, RATIONAL), CurvatureTensor(4, screened, RATIONAL)
        assert tsankov_test(R).holds
        with pytest.raises(InvalidOperator):
            classify(R)
        w = tsankov_test(R2).witness
        assert (w.x.tolist(), w.y.tolist(), w.commutator_norm) == ([0, 1, 0, 0], [0, 0, 1, 0], Fraction(174))

    def test_asymmetric_rank_one_j_e0_is_no_complex_structure(self):
        # J(e_0) numerators u v^T, u = e1 + e2 and v = e1: rank one with trace 1, not symmetric.
        # The recovery at p = 0 trusts the decision's rank-one test and tests nothing again; the
        # columns it reads are no complex structure, so no fit holds, and the expansion decides
        values = np.zeros((4,) * 4, dtype=np.int64)
        values[1, 0, 0, 1] = values[1, 0, 0, 2] = 1  # J(e_0)[a, b] = V[b, 0, 0, a]
        R = CurvatureTensor(4, values, RATIONAL)
        assert R.values[:, 0, 0, :].T.tolist() == np.outer([0, 1, 1, 0], [0, 1, 0, 0]).tolist()
        v = tsankov_test(R)
        assert v.holds and v.witness is None
        with pytest.raises(InvalidOperator, match="^operator is not symmetric$"):
            classify(R)
        with pytest.raises(ClassificationInconsistency):
            jacobi_module._recover(R, 0)

    @pytest.mark.parametrize("m", (4, 8, 12))
    def test_rtheta_accepts_skip_the_table_and_the_screen(self, monkeypatch, m):
        counts = count_calls(monkeypatch, "_jacobi_table", "_first_violation")
        for R in rtheta_near_misses(m)[0]:
            assert tsankov_test(R, "exact").holds
            res = classify(R)
            assert (res.tag, res.residual) == ("ComplexForm", 0)
        assert counts == {"_jacobi_table": 0, "_first_violation": 0}

    def test_pattern_accepts_take_no_m4_pass(self, monkeypatch):
        # exact r0 and a permuted r_theta are reduced, sized and counted from their pattern, so
        # neither building nor deciding them sweeps the m^4 numerators; a tensor built from a raw
        # array counts its nonzeros once, at the first fit that needs the count
        m, seen = 16, []
        cs = conjugate_structure(standard_complex_structure(m), random_signed_permutation(m, 3))

        def spy(name, real):
            return lambda a, *args, **kw: seen.append((name, np.size(a))) or real(a, *args, **kw)

        monkeypatch.setattr(np, "count_nonzero", spy("count_nonzero", np.count_nonzero))
        for module in (scalars_module, tensors_module):
            monkeypatch.setattr(module, "integer_array_max", spy("integer_array_max", module.integer_array_max))
        builds = ((lambda: r0(m, Fraction(-7, 4)), "ConstantCurvature"), (lambda: r_theta(cs, 5), "ComplexForm"))
        for build, tag in builds:
            R = build()
            assert tsankov_test(R, "exact").holds and classify(R).tag == tag
            assert all(size < m**4 for _, size in seen)
            del seen[:]
            R = CurvatureTensor(m, R.values.copy(), RATIONAL, R.denominator)
            for _ in range(2):
                assert tsankov_test(R, "exact").holds and classify(R).tag == tag
            assert [s for s in seen if s[1] == m**4] == [("integer_array_max", m**4), ("count_nonzero", m**4)]
            del seen[:]

    @pytest.mark.parametrize("m", (4, 8, 12))
    def test_only_dense_or_float_rtheta_take_the_blocks(self, monkeypatch, m):
        # at every m, a Theta with one nonzero a row is built and fitted on the relabelled standard
        # pattern, whose one fill per m reads the blocks; a Theta rotated in one plane or by a
        # Cayley rotation has none, and float c R_Theta keeps the blocked formula's signed zeros
        c, standard = Fraction(-7, 4), standard_complex_structure(m)
        plane = np.eye(m, dtype=object) * Fraction(1)
        plane[0, 0] = plane[2, 2] = Fraction(3, 5)
        plane[0, 2], plane[2, 0] = Fraction(-4, 5), Fraction(4, 5)
        exact = [(random_signed_permutation(m, 3), False), (plane, True), (cayley_rotation(m, 5), True)]
        cases = [(conjugate_structure(standard, q), c, dense) for q, dense in exact]
        floats = conjugate_structure(standard_complex_structure(m, FLOAT), random_signed_permutation(m, 3, FLOAT))
        cases.append((floats, -1.75, False))
        tensors_module._standard_pattern(m)
        calls = []
        for module in (tsankov, tensors_module):
            real = module._r_theta_blocks
            monkeypatch.setattr(module, "_r_theta_blocks", lambda *a, _real=real: calls.append(1) or _real(*a))
        for cs, cv, dense in cases:
            assert (np.count_nonzero(cs.values) > m) == dense
            blocked = dense or not cs.mode.exact
            R = r_theta(cs, cv)
            assert bool(calls) == blocked
            del calls[:]
            assert tsankov_test(R, "exact").holds
            res = classify(R)
            assert (res.tag, res.c) == ("ComplexForm", cv) and not res.residual
            assert bool(calls) == blocked
            del calls[:]

    def test_even_rejects_skip_the_recovery(self, monkeypatch):
        # neither a random tensor nor a mix has a rank-one J(e_0), so no c R_Theta fit is tried;
        # only the signed-permuted mixes, with no violating pair (e_a, e_b), reach the table
        counts = count_calls(monkeypatch, "recover_complex_structure", "_first_violation", "_basis_raws")
        for m in (4, 6, 8, 10):
            for R in (random_act(m, 3, m), *rtheta_near_misses(m)[1]):
                assert not tsankov_test(R, "exact").holds
        assert counts == {"recover_complex_structure": 0, "_first_violation": 0, "_basis_raws": 4}

    def test_even_rejects_skip_the_tested_recovery_too(self, monkeypatch):
        counts = count_calls(monkeypatch, "recover_complex_structure", "_recover")
        for m in (4, 6, 8, 10):
            for R in (random_act(m, 3, m), *rtheta_near_misses(m)[1]):
                assert not tsankov_test(R, "exact").holds
        assert counts == {"recover_complex_structure": 0, "_recover": 0}

    @pytest.mark.parametrize("m", (4, 8, 12))
    def test_rtheta_accepts_test_j_e0_once(self, monkeypatch, m):
        # _decide's rank-one and symmetry test of J(e_0) is the recovery's test at p = 0
        calls = {"rank": 0, "symmetric": 0}
        real_rank, real_symmetric = jacobi_module._is_rank_one, jacobi_module.require_selfadjoint

        def rank(*args):
            calls["rank"] += 1
            return real_rank(*args)

        def symmetric(*args, **kwargs):
            calls["symmetric"] += 1
            return real_symmetric(*args, **kwargs)

        monkeypatch.setattr(tsankov, "_is_rank_one", rank)
        monkeypatch.setattr(jacobi_module, "_is_rank_one", rank)
        monkeypatch.setattr(jacobi_module, "require_selfadjoint", symmetric)
        for R in rtheta_near_misses(m)[0]:
            assert tsankov_test(R, "exact").holds
            assert calls == {"rank": 1, "symmetric": 0}
            res = classify(R)
            assert (res.tag, res.residual) == ("ComplexForm", 0)
            assert calls == {"rank": 2, "symmetric": 0}
            calls.update(dict.fromkeys(calls, 0))

    @pytest.mark.parametrize("m", (18, 20))
    def test_rtheta_accepts_allocate_no_m4_array(self, m):
        # the fit compares blocks of at most SLICE_ENTRIES entries: it never holds half of R's size
        cs = conjugate_structure(standard_complex_structure(m), random_signed_permutation(m, 3))
        R = r_theta(cs, Fraction(-7, 4))
        assert tsankov_test(R, "exact").holds  # fills the caches kept per dimension
        tracemalloc.start()
        try:
            assert tsankov_test(R, "exact").holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < R.values.nbytes / 2

    def test_cayley_rotated_fits_compare_in_place(self, monkeypatch):
        # the rebuilt denominator c.den t^2 of a Cayley Theta need not be reduced; R == V / den
        # is still decided block by block, as V == g N for den = g R.denominator
        counts = count_calls(monkeypatch, "_relative_residual")
        scaled = 0
        for m in (4, 6, 8, 10):
            for seed in range(15):
                cs = conjugate_structure(standard_complex_structure(m), cayley_rotation(m, seed))
                R = r_theta(cs, Fraction(-7, 4))
                c, cs2, residual = _fit(R)
                assert (c, residual) == (Fraction(-7, 4), 0)
                scaled += _r_theta_blocks(cs2, c)[1] != R.denominator
                res = classify(R)
                assert (res.tag, res.c, res.residual) == ("ComplexForm", Fraction(-7, 4), 0)
        assert counts == {"_relative_residual": 0} and scaled > 10

    def test_float_keeps_the_screen_before_the_fit(self):
        # within tol |R| of R0, yet with a screened commutator above tol |R|^2: a ladder that
        # tried the float fit first would call it ConstantCurvature
        R = combine([(1.0, r0(5, 1, FLOAT)), (3e-10, random_act(5, 3, 2, FLOAT))])
        c, cs, residual = _fit(tsankov._binary_scaled(R)[0])
        assert cs is None and 0 < residual <= FLOAT.tol
        assert classify(R).tag == "NotTsankov"
        assert not tsankov_test(R, "exact").holds


    def test_exact_accepts_build_no_table_index(self):
        # the fits read the pairs i < j off a cached np.triu_indices(m, 1), not the table index
        tsankov._half_table_index.cache_clear()
        c = Fraction(-7, 4)
        cs = conjugate_structure(standard_complex_structure(18), random_signed_permutation(18, 3))
        for R, tag in ((r0(18, c), "ConstantCurvature"), (r_theta(cs, c), "ComplexForm")):
            res = classify(R)
            assert (res.tag, res.c, res.residual) == (tag, c, 0)
        assert tsankov._half_table_index.cache_info().currsize == 0


def round0_tensors(m):
    """Exact tensors at m: random ones, a generic and an identity Gauss form, and in even m the
    mixes 3/5 R0 - 2/7 R_Theta of a permuted Theta and, for m <= 8, of a Cayley-rotated one."""
    phi = np.random.default_rng(m).integers(-3, 4, size=(m, m))
    out = [random_act(m, 1, seed=m), random_act(m, 3, seed=m + 1), from_form(phi + phi.T, RATIONAL)]
    out.append(from_form(np.eye(m, dtype=np.int64), RATIONAL))
    if m % 2 == 0:
        cs = conjugate_structure(standard_complex_structure(m), random_signed_permutation(m, m))
        out.append(combine([(Fraction(3, 5), r0(m, 1)), (Fraction(-2, 7), r_theta(cs, 1))]))
        if m <= 8:
            out += rtheta_near_misses(m)[1]
    return out


class TestExactRound0Decides:
    """An exact reject is decided by round 0 of the witness search, with no screen: its first
    violator is the verdict and the witness, and an expansion reject resumes the search at round 1."""

    @pytest.mark.parametrize("m", range(3, 11))
    def test_witnesses_are_the_search_witnesses(self, m):
        rejects = 0
        for R in round0_tensors(m):
            poly = commutator_poly(R)
            holds = divisible_by_pairing(poly) is not None
            candidate = first_candidate_reference(R)
            for seed in (0, 3):
                v, res = tsankov_test(R, seed=seed), classify(R, seed=seed)
                assert v.holds == holds and (res.tag == "NotTsankov") == (not holds)
                if holds:
                    assert v.witness is None and res.witness is None
                else:
                    want = first_violator_reference(R, seed, 200, True, candidate)
                    assert_first_violator(R, v.witness, want)
                    assert witness_key(res.witness) == witness_key(v.witness)
                    rejects += 1
                full = full_commutation_test(R, seed=seed)
                assert full.holds == poly.is_zero() and not full.holds
                assert_first_violator(R, full.witness, first_violator_reference(R, seed, 200, False, candidate), False)
        assert rejects >= 6

    @pytest.mark.parametrize("m", (4, 7))
    def test_a_silent_round0_resumes_at_round1(self, monkeypatch, m):
        names = ("_basis_raws", "_first_violation", "commutator_poly", "seeded_rng", "_sample_pairs")
        counts = count_calls(monkeypatch, *names)
        real = tsankov._witness_rounds

        def silent_round0(*args):
            rounds = real(*args)
            next(rounds)  # round 0 runs, and its witness is dropped
            yield None
            yield from rounds

        monkeypatch.setattr(tsankov, "_witness_rounds", silent_round0)
        for R in (random_act(m, 3, seed=m), *round0_tensors(m)[3:]):
            candidate = first_candidate_reference(R)
            for decide, orthogonal in ((tsankov_test, True), (full_commutation_test, False)):
                if orthogonal and divisible_by_pairing(commutator_poly(R)) is not None:
                    continue
                counts.update(dict.fromkeys(counts, 0))
                v = decide(R, seed=1)
                assert not v.holds
                # round 0 reads the table only past the pairs (e_a, e_b), and draws only when every
                # candidate commutes; round 1 builds the generator, if round 0 has not, and draws
                past = candidate is None or candidate[0] >= m * (m - 1)
                assert counts == dict(zip(names, (int(past), 0, 1, 1, 1 + (candidate is None))))
                assert witness_key(v.witness) == witness_key(search_witness(R, 1, 200, orthogonal))


def oracle_tensors():
    """Exact tensors for the first-violator oracle: random ones at m 3-12, Gauss tensors of a
    generic form and, for m <= 8, of diag(0, 1, ..., 1), whose candidates all commute, in even m
    the mixes 5/3 R0 - 7/4 R_Theta of a signed-permuted Theta and, for m <= 8, of a
    Cayley-rotated one, and a big-scale reject."""
    out = []
    for m in range(3, 13):
        phi = np.random.default_rng(m).integers(-3, 4, size=(m, m))
        out += [random_act(m, 3, 100 + m), from_form(phi + phi.T, RATIONAL)]
        out += [from_form(np.diag([0] + [1] * (m - 1)), RATIONAL)] if m <= 8 else []
        rotations = (random_signed_permutation(m, 1), *((cayley_rotation(m, 3),) if m <= 8 else ()))
        for q in rotations if m % 2 == 0 else ():
            cs = conjugate_structure(standard_complex_structure(m), q)
            out.append(combine([(Fraction(5, 3), r0(m, 1)), (Fraction(-7, 4), r_theta(cs, 1))]))
    out.append(combine([(Fraction(10**400 + 1, 3), random_act(8, 3, 5))]))
    return out


class TestFirstViolator:
    """An exact witness is the first violating pair: the basis candidates in their order, then the
    seeded rounds in draw order, and the search stops there."""

    def test_witnesses_are_the_plain_loop_first_violators(self):
        rejects = 0
        for R in oracle_tensors():
            v, res, full = tsankov_test(R), classify(R), full_commutation_test(R)
            holds = divisible_by_pairing(commutator_poly(R)) is not None
            assert v.holds == holds and (res.tag == "NotTsankov") == (not holds) and not full.holds
            candidate = first_candidate_reference(R)
            if not holds:
                assert_first_violator(R, v.witness, first_violator_reference(R, 0, 200, True, candidate))
                assert witness_key(res.witness) == witness_key(v.witness)
                rejects += 1
            assert_first_violator(R, full.witness, first_violator_reference(R, 0, 200, False, candidate), False)
        assert rejects >= 30

    def test_a_first_pair_reject_builds_no_table_and_no_generator(self, monkeypatch):
        counts = count_calls(monkeypatch, "_jacobi_table", "seeded_rng", "_basis_raws")
        e = lambda i: [int(t == i) for t in range(11)]  # noqa: E731
        for seed in range(5):
            R = random_act(11, 3, seed)
            for w in (tsankov_test(R).witness, full_commutation_test(R).witness, classify(R).witness):
                assert (w.x.tolist(), w.y.tolist()) == (e(0), e(1))
        assert counts == {"_jacobi_table": 0, "seeded_rng": 0, "_basis_raws": 0}

    @pytest.mark.parametrize("m", (10, 12))
    def test_a_permuted_mix_reads_the_table_once_and_draws_nothing(self, monkeypatch, m):
        # no pair (e_a, e_b) violates, and for the permutation of seed 1 the first violator is
        # candidate 95 at m=10 and 135 at m=12, of the family (e_a, e_b + e_c)
        counts = count_calls(monkeypatch, "_jacobi_table", "seeded_rng", "_basis_raws")
        cx, cy = _basis_candidates(m)[1:3]
        for seed in range(3):
            cs = conjugate_structure(standard_complex_structure(m), random_signed_permutation(m, seed))
            R = combine([(Fraction(5, 3), r0(m, 1)), (Fraction(-7, 4), r_theta(cs, 1))])
            counts.update(dict.fromkeys(counts, 0))
            w = tsankov_test(R).witness
            assert counts == {"_jacobi_table": 1, "seeded_rng": 0, "_basis_raws": 1}
            p = next(p for p, (x, y) in enumerate(zip(cx, cy)) if (x.tolist(), y.tolist()) == (w.x.tolist(), w.y.tolist()))
            assert p >= m * (m - 1) and (seed != 1 or p == {10: 95, 12: 135}[m])


class TestDrawArguments:
    """Seeds and sample counts are refused at the API edge, whichever certificate decides."""

    BAD_SEEDS = (-1, 1.5, "3", None, True, np.float64(2.0))

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seeds_are_degenerate_input(self, seed):
        calls = (
            lambda: classify(random_act(3, 2, 1), seed=seed),
            lambda: classify(r0(3, 1), seed=seed),  # decided before any draw
            lambda: classify(CurvatureTensor(3, np.zeros((3,) * 4), RATIONAL), seed=seed),
            lambda: tsankov_test(random_act(4, 2, 1), seed=seed),
            lambda: tsankov_test(r0(3, 1), seed=seed),
            lambda: tsankov_test(r0(3, 1), "sampled", seed=seed),
            lambda: full_commutation_test(random_act(3, 2, 1), seed=seed),
            lambda: random_act(3, 2, seed),
            lambda: random_signed_permutation(3, seed),
        )
        for call in calls:
            with pytest.raises(DegenerateInput, match="^seed must be an integer >= 0, got "):
                call()

    @pytest.mark.parametrize("n_samples", (0, -3, None, 2.0, False))
    def test_bad_sample_counts_are_degenerate_input(self, n_samples):
        calls = (
            lambda: tsankov_test(r0(3, 1), "sampled", n_samples=n_samples),
            lambda: tsankov_test(r0(3, 1), n_samples=n_samples),
            lambda: tsankov_test(random_act(4, 2, 1), n_samples=n_samples),
            lambda: full_commutation_test(random_act(3, 2, 1), n_samples=n_samples),
        )
        for call in calls:
            with pytest.raises(DegenerateInput, match="^n_samples must be an integer >= 1, got "):
                call()

    def test_numpy_integers_are_seeds(self):
        for seed, n in ((np.int64(3), np.int32(5)), (3, 5)):
            v = tsankov_test(random_act(4, 2, 1), "sampled", n_samples=n, seed=seed)
            assert not v.holds
        assert repr(random_act(4, 2, np.uint8(7)).values) == repr(random_act(4, 2, 7).values)
