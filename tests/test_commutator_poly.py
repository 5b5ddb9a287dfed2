"""Commutator polynomials as coefficient arrays, against dict-of-dicts references.

The ``*_reference`` functions below are the dict-based expansion (an m^6
einsum folded onto canonical monomials), the heap-based normal-form
division by the pairing form and the per-monomial re-multiplication that
the coefficient arrays replaced.  Exact results must be equal, values and
``Fraction`` types included; float results must give the same verdicts,
with coefficients within 1e-15 of the largest.
"""

import heapq
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from actlab import (
    FLOAT,
    RATIONAL,
    BilinearMatrixPoly,
    BiQuadraticMatrixPoly,
    InvalidPolynomial,
    classify,
    combine,
    commutator,
    commutator_poly,
    conjugate_structure,
    divisible_by_pairing,
    from_form,
    r0,
    r_theta,
    random_act,
    rotate,
    standard_complex_structure,
)
from actlab import tsankov
from actlab.scalars import exact_cast, exact_dtype, max_abs
from actlab.tsankov import _float_threshold

from conftest import cayley_rotation, evaluate_entries, poly_from_entries

F = Fraction


# ---------------------------------------------------------------------------
# references: the dict-of-dicts code the coefficient arrays replaced
# ---------------------------------------------------------------------------


def canonical_monomials_reference(m):
    monos = [(i, j, k, l) for i in range(m) for j in range(i, m) for k in range(m) for l in range(k, m)]
    idx = np.array(monos, dtype=np.intp)
    counts = np.array(
        [(2 if i < j else 1) * (2 if k < l else 1) for (i, j, k, l) in monos], dtype=np.int64
    )
    return monos, idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3], counts


def commutator_poly_reference(R):
    """``{(a, b): {(i, j, k, l): coeff}}`` from the m^6 einsum and its 4-way fold."""
    m = R.m
    if R.mode.exact:
        maxv = int(max_abs(R.values))
        v = exact_cast(R.values, 32 * m * maxv * maxv)
        q = v.transpose((3, 0, 1, 2))
        denom = R.denominator**2
    else:
        q = R.values.transpose((3, 0, 1, 2))
        denom = None
    t = np.einsum("acij,cbkl->abijkl", q, q) - np.einsum("ackl,cbij->abijkl", q, q)
    monos, ii, jj, kk, ll, counts = canonical_monomials_reference(m)
    flat = t.reshape(m * m, m, m, m, m)
    g = flat[:, ii, jj, kk, ll] + flat[:, jj, ii, kk, ll] + flat[:, ii, jj, ll, kk] + flat[:, jj, ii, ll, kk]
    vals_all = (g * counts) // 4 if denom is not None else g * counts / 4.0
    entries = {}
    for a in range(m):
        for b in range(a + 1, m):
            vals = vals_all[a * m + b]
            if denom is not None:
                coeffs = {mono: Fraction(int(val), denom) for mono, val in zip(monos, vals.tolist()) if val}
            else:
                coeffs = {mono: float(val) for mono, val in zip(monos, vals) if val != 0.0}
            if coeffs:
                entries[(a, b)] = coeffs
    return entries


def divide_entry_reference(coeffs, m, is_zero):
    """Normal-form division of one entry by the pairing form: its quotient, or None."""
    work = {key: c for key, c in coeffs.items() if not is_zero(c)}
    heap = sorted(work)
    quotient, seen = {}, set()
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


def divisible_by_pairing_reference(entries, m, exact, max_coeff, zero_tol=None, tol=1e-9):
    """The quotient entries, or None."""
    if exact:
        is_zero = lambda c: c == 0  # noqa: E731
    else:
        zt = zero_tol if zero_tol is not None else tol * float(max_coeff)
        is_zero = lambda c: abs(c) <= zt  # noqa: E731
    quotients = {}
    for pos, coeffs in entries.items():
        q = divide_entry_reference(coeffs, m, is_zero)
        if q is None:
            return None
        if q:
            quotients[pos] = q
    return quotients


def multiply_pairing_reference(entries, m, zero):
    out = {}
    for pos, coeffs in entries.items():
        acc = {}
        for (p, q), c in coeffs.items():
            for t in range(m):
                mono = (min(p, t), max(p, t), min(q, t), max(q, t))
                acc[mono] = acc.get(mono, zero) + c
        acc = {mono: c for mono, c in acc.items() if c != 0}
        if acc:
            out[pos] = acc
    return out


# ---------------------------------------------------------------------------
# the oracle corpus
# ---------------------------------------------------------------------------


def oracle_corpus():
    """Exact tensors of every family at m 2-8, with nontrivial denominators."""
    out = []
    for m in range(2, 9):
        out.append(r0(m, F(-7, 3)))
        out.append(random_act(m, 3, 40 + m))
        a = np.random.default_rng(m).integers(-2, 3, size=(m, m))
        out.append(from_form([[F(int(a[i, j] + a[j, i]), 2) for j in range(m)] for i in range(m)], RATIONAL))
        out.append(combine([(F(2, 5), r0(m, 1)), (F(1, 3), random_act(m, 2, m))]))
        if m % 2 == 0:
            cs = conjugate_structure(standard_complex_structure(m), cayley_rotation(m, m, span=1))
            out.append(r_theta(cs, F(5, 2)))
            out.append(combine([(F(1, 7), r0(m, 1)), (F(3, 2), r_theta(cs, 1))]))
    out.append(combine([(0, r0(4, 1))]))  # the zero tensor
    return out


CORPUS = oracle_corpus()


def rotated_float_corpus():
    """The corpus in float, each tensor rotated by a dense orthogonal matrix from a QR split.

    Rotation breaks the exact float symmetry R[a,b,c,d] == R[c,d,a,b], so the
    two triangles of J(x) no longer round alike.
    """
    out = []
    for R in CORPUS:
        q, _ = np.linalg.qr(np.random.default_rng(R.m).standard_normal((R.m, R.m)))
        out.append(rotate(R.to_float(), q))
    return out


ROTATED = rotated_float_corpus()
IDS = [f"m{R.m}-{n}" for n, R in enumerate(CORPUS)]


def assert_same_exact(got, want):
    assert got == want
    for pos, coeffs in got.items():
        assert all(type(k) is int for k in pos)
        for key, c in coeffs.items():
            assert type(c) is Fraction and all(type(k) is int for k in key)


class TestExactOracle:
    @pytest.mark.parametrize("R", CORPUS, ids=IDS)
    def test_matches_reference(self, R):
        P = commutator_poly(R)
        want = commutator_poly_reference(R)
        assert_same_exact(P.entries, want)
        L = divisible_by_pairing(P)
        want_L = divisible_by_pairing_reference(want, R.m, True, P.max_coeff())
        assert (L is None) == (want_L is None)
        if L is not None:
            assert_same_exact(L.entries, want_L)
            back = L.multiply_pairing().entries
            assert_same_exact(back, multiply_pairing_reference(want_L, R.m, F(0)))
            assert back == want

    def test_corpus_covers_both_verdicts(self):
        verdicts = [divisible_by_pairing(commutator_poly(R)) is not None for R in CORPUS]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_non_divisible_quotient_keeps_the_reference_verdict(self):
        # hand-built: one monomial outside the ideal beside a divisible part
        P = {(0, 1): {(0, 0, 0, 0): F(1), (1, 1, 1, 1): F(1), (0, 1, 0, 1): F(2, 3)}, (1, 2): {(0, 0, 2, 2): F(1)}}
        poly = poly_from_entries(BiQuadraticMatrixPoly, 3, RATIONAL, P)
        assert_same_exact(poly.entries, P)
        assert divisible_by_pairing(poly) is None
        assert divisible_by_pairing_reference(P, 3, True, poly.max_coeff()) is None


# ---------------------------------------------------------------------------
# float mode
# ---------------------------------------------------------------------------


def assert_close(got, want, scale):
    for pos in set(got) | set(want):
        a, b = got.get(pos, {}), want.get(pos, {})
        for key in set(a) | set(b):
            assert abs(a.get(key, 0.0) - b.get(key, 0.0)) <= 1e-15 * scale


class TestFloatOracle:
    @pytest.mark.parametrize("lam", [1e-8, 1.0, 1e8])
    def test_verdicts_and_coefficients_match_reference(self, lam):
        for R in CORPUS + ROTATED:
            Rf = combine([(lam, R.to_float())])
            P = commutator_poly(Rf)
            want = commutator_poly_reference(Rf)
            scale = P.max_coeff()
            assert_close(P.entries, want, scale)
            thr = _float_threshold(Rf)
            assert P.is_zero(thr) == (scale <= thr)
            for zt in (None, thr):
                L = divisible_by_pairing(P, zt)
                want_L = divisible_by_pairing_reference(want, R.m, False, scale, zt, Rf.mode.tol)
                assert (L is None) == (want_L is None)
                if L is not None:
                    assert_close(L.entries, want_L, scale)
                    assert_close(L.multiply_pairing().entries, multiply_pairing_reference(want_L, R.m, 0.0), scale)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_coefficients_at_the_threshold(self, factor):
        zt = 1e-6
        eps = factor * zt
        m = 3
        # q * (2 x0 y0 + x0 y1 + 3 x2 y2) on canonical monomials
        divisible = {
            (0, 0, 0, 0): 2.0, (0, 1, 0, 1): 2.0, (0, 2, 0, 2): 5.0,
            (0, 0, 0, 1): 1.0, (0, 1, 1, 1): 1.0, (0, 2, 1, 2): 1.0,
            (1, 2, 1, 2): 3.0, (2, 2, 2, 2): 3.0,
        }
        cases = [
            {(0, 1): {**divisible, (0, 0, 1, 1): eps}},  # a remainder term
            {(0, 1): {**divisible, (0, 0, 0, 2): eps}},  # a quotient term x0 y2
            {(0, 1): {**divisible, (1, 1, 1, 1): 1.0 + eps}},  # a perturbed product term
            {(0, 1): {(0, 0, 1, 1): eps}, (1, 2): {(2, 2, 0, 1): -eps}},  # small everywhere
        ]
        for entries in cases:
            P = poly_from_entries(BiQuadraticMatrixPoly, m, FLOAT, entries)
            for tol in (None, zt):
                L = divisible_by_pairing(P, tol)
                want = divisible_by_pairing_reference(entries, m, False, P.max_coeff(), tol)
                assert (L is None) == (want is None)
                if L is not None:
                    assert_close(L.entries, want, P.max_coeff())
            assert P.is_zero(zt) == all(abs(c) <= zt for co in entries.values() for c in co.values())


# ---------------------------------------------------------------------------
# arithmetic tiers, validation, memory
# ---------------------------------------------------------------------------


def expansion_tier(monkeypatch, R):
    """The dtype ``exact_dtype`` picks inside one fresh expansion of R."""
    seen = []
    monkeypatch.setattr(tsankov, "exact_dtype", lambda bound: seen.append(exact_dtype(bound)) or seen[-1])
    P = commutator_poly(R)
    monkeypatch.undo()
    return seen, P


def test_expansion_tiers_match_commutator(monkeypatch):
    base = random_act(4, 3, seed=1)
    n0 = int(max_abs(base.values))
    rng = np.random.default_rng(9)
    xs = rng.integers(-3, 4, size=(6, 2, 4)).tolist()
    tiers = []
    for limit in (2**53, 2**62):
        c = 1
        while 8 * 4 * (2 * c * n0) ** 2 < limit:
            c *= 2
        for scale in (c, 2 * c):
            R = combine([(scale, base)])
            bound = 8 * 4 * int(max_abs(R.values)) ** 2
            seen, P = expansion_tier(monkeypatch, R)
            assert seen == [exact_dtype(bound)]
            tiers.append(seen[0])
            for x, y in xs:
                assert (evaluate_entries(P, x, y) == commutator(R, x, y)).all()
    assert tiers == [np.float64, np.int64, np.int64, object]


@pytest.mark.parametrize("cls, n", [(BiQuadraticMatrixPoly, 6), (BilinearMatrixPoly, 3)], ids=["BiQuadratic", "Bilinear"])
def test_values_of_a_wrong_shape_are_refused(cls, n):
    # m=3: three slots of n x n coefficients, n monomials in x and in y
    cls(3, RATIONAL, np.zeros((3, n, n), dtype=np.int64))
    for shape in [(2, n, n), (3, n, n + 1), (3, n + 1, n), (3, n), (3, n, n, 1)]:
        for mode, dtype in [(RATIONAL, np.int64), (FLOAT, float)]:
            with pytest.raises(InvalidPolynomial, match=r"do not fit m=3$"):
                cls(3, mode, np.zeros(shape, dtype=dtype))


def test_bilinear_round_trip():
    # values[slot, p, q] / denominator is the x_p y_q coefficient at the slot's (a, b), slots
    # in np.triu_indices order; the entries, built back into values, give the same array
    values = np.zeros((3, 3, 3), dtype=np.int64)
    values[1, 1, 0], values[1, 2, 2], values[2, 0, 1] = 2, -3, 15
    entries = {(0, 2): {(1, 0): F(2, 3), (2, 2): F(-1)}, (1, 2): {(0, 1): F(5)}}
    L = BilinearMatrixPoly(3, RATIONAL, values, 3)
    assert_same_exact(L.entries, entries)
    back = poly_from_entries(BilinearMatrixPoly, 3, RATIONAL, L.entries)
    assert back.denominator == 3 and back.values.tolist() == values.tolist()
    Lf = BilinearMatrixPoly(3, FLOAT, values / 3)
    assert Lf.entries == {pos: {key: float(c) for key, c in co.items()} for pos, co in entries.items()}


def test_expansion_and_division_memory():
    R = random_act(12, 3, 5)
    tracemalloc.start()
    try:
        P = commutator_poly(R)
        divisible_by_pairing(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_rotated_rtheta_fit_skips_r0(monkeypatch):
    c = F(-7, 3)
    cs = conjugate_structure(standard_complex_structure(8), cayley_rotation(8, 4))
    R = r_theta(cs, c)
    calls, real = [], tsankov.r0  # the c R0 rebuild, which no exact fit reaches
    monkeypatch.setattr(tsankov, "r0", lambda *args: calls.append(args) or real(*args))
    res = classify(R)
    assert not calls
    assert (res.tag, res.c, res.residual) == ("ComplexForm", c, 0)
    th = res.theta.theta
    assert (th == cs.theta).all() or (th == -cs.theta).all()
    # the c R0 fit still runs where it can hold, and certifies in one in-place comparison
    checks, equal = [], tsankov._equal_in_place
    monkeypatch.setattr(tsankov, "_equal_in_place", lambda *args, **kw: checks.append(args) or equal(*args, **kw))
    res = classify(r0(8, c))
    assert not calls and len(checks) == 1 and (res.tag, res.c, res.residual) == ("ConstantCurvature", c, 0)
