"""Commutator polynomials, divisibility decision, and the two commutation tests."""

from fractions import Fraction
from itertools import product
from math import isqrt

import numpy as np
import pytest

from actlab import (
    FLOAT,
    RATIONAL,
    ClassificationInconsistency,
    CurvatureTensor,
    InvalidPolynomial,
    BiQuadraticMatrixPoly,
    classify,
    combine,
    commutator,
    commutator_poly,
    conjugate_structure,
    divisible_by_pairing,
    full_commutation_test,
    r0,
    r_theta,
    random_act,
    random_signed_permutation,
    standard_complex_structure,
    tsankov_test,
    validate,
)

from actlab import tsankov
from actlab.tsankov import (
    _basis_pair_candidates,
    _batch_commutators,
    _decide,
    _sample_pairs,
    _violation_scan,
)

from conftest import build_corpus

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


def bigint_commutators(R, xs, ys):
    """Reference for _batch_commutators: s^2 C(x, y) in Python ints, loop by loop."""
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


def sample_pair_reference(rng, m, exact, orthogonal, span=4):
    """Reference for _sample_pairs: one (x, y) pair, drawn row by row."""
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


def orthogonal_batch(m, n, span, seed):
    xs, ys = _sample_pairs(np.random.default_rng(seed), m, n, True, True, span=span)
    return list(xs), list(ys)


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
                assert (P.evaluate(x, y) == commutator(R, x, y)).all()

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
            assert (P.evaluate(x, y) == commutator(R, x, y)).all()

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
            val = P.evaluate([Fraction(int(t)) for t in x], [Fraction(int(t)) for t in y])
            assert (val == 0).all()


class TestDivisibility:
    def test_trivial_multiple(self):
        # P = (sum_i x_i y_i) * x1 y1 -> quotient x1 y1 (indices 0-based)
        m = 3
        entries = {(0, 1): {}}
        for t in range(m):
            mono = (min(0, t), max(0, t), min(0, t), max(0, t))
            entries[(0, 1)][mono] = entries[(0, 1)].get(mono, Fraction(0)) + 1
        P = BiQuadraticMatrixPoly.from_entries(m, RATIONAL, entries)
        L = divisible_by_pairing(P)
        assert L is not None
        assert L.entries == {(0, 1): {(0, 0): Fraction(1)}}
        assert L.multiply_pairing().entries == P.entries
        # float copies divide at any scale: the default threshold is tol * max|coeff|
        for lam in (1.0, 1e-12):
            scaled = {(0, 1): {mono: lam * float(c) for mono, c in entries[(0, 1)].items()}}
            Lf = divisible_by_pairing(BiQuadraticMatrixPoly.from_entries(m, FLOAT, scaled))
            assert Lf.entries == {(0, 1): {(0, 0): lam}}

    def test_pure_monomial_not_in_ideal(self):
        # P = x1^2 y2^2
        P = BiQuadraticMatrixPoly.from_entries(
            3, RATIONAL, {(0, 1): {(0, 0, 1, 1): Fraction(1)}}
        )
        assert divisible_by_pairing(P) is None
        # a tiny float coefficient is neither divisible nor zero by default
        for c in (1.0, 1e-12):
            Pf = BiQuadraticMatrixPoly.from_entries(3, FLOAT, {(0, 1): {(0, 0, 1, 1): c}})
            assert divisible_by_pairing(Pf) is None
            assert not Pf.is_zero()

    def test_mix_entry_not_divisible(self, mix4):
        P = commutator_poly(mix4)
        assert divisible_by_pairing(P) is None
        # pin the specific entry: the (2,3) matrix slot is not in the ideal
        entry = P.entry(1, 2)
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

    def test_malformed_key_rejected(self):
        with pytest.raises(InvalidPolynomial):
            BiQuadraticMatrixPoly.from_entries(3, RATIONAL, {(0, 1): {(1, 0, 0, 0): Fraction(1)}})
        with pytest.raises(InvalidPolynomial):
            BiQuadraticMatrixPoly.from_entries(3, RATIONAL, {(1, 0): {(0, 0, 0, 0): Fraction(1)}})


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
            for exact in (True, False):
                pairs = _basis_pair_candidates(m, exact)
                assert len(pairs) == m * (m - 1) + m * (m - 1) * (m - 2) // 2 + m * (m - 1) // 2
                assert all(np.dot(x, y) == 0 for x, y in pairs)

    def test_int64_kernel_near_the_bound_matches_bigint(self):
        base = random_act(4, 3, seed=3)
        xs, ys = orthogonal_batch(4, 12, span=4, seed=8)
        # the largest integer scale c with c^2 * bound < 2^62, then one past it
        c = isqrt((_INT64_LIMIT - 1) // int64_bound(base, xs, ys))
        for scale, dtype in ((c, np.int64), (c + 1, object)):
            R = combine([(scale, base)])
            assert (int64_bound(R, xs, ys) < _INT64_LIMIT) == (dtype is np.int64)
            c_batch, s2 = _batch_commutators(R, xs, ys)
            ref, ref_s2 = bigint_commutators(R, xs, ys)
            assert c_batch.dtype == dtype and s2 == ref_s2
            assert c_batch.tolist() == ref
            assert max(abs(e) for mat in ref for row in mat for e in row) > 2**50

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_sample_pairs_match_the_one_pair_rule(self, exact, orthogonal):
        for m in range(2, 9):
            for span in (4, 130):
                for seed in range(6):
                    batch, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    xs, ys = _sample_pairs(batch, m, 8, exact, orthogonal, span=span)
                    pairs = [sample_pair_reference(ref, m, exact, orthogonal, span) for _ in range(8)]
                    assert xs.dtype == ys.dtype == (np.int64 if exact else float)
                    assert xs.tobytes() == np.array([x for x, _ in pairs]).tobytes()
                    assert ys.tobytes() == np.array([y for _, y in pairs]).tobytes()
                    assert batch.integers(2**62) == ref.integers(2**62)

    def test_sample_pairs_walk_past_rejected_rows(self):
        # at m=2 a row v parallel to x gives y = 0; each seed draws such a row,
        # and the last two also draw x = 0
        for seed, x_rejected in ((3, False), (8, False), (10, False), (1, True), (5, True)):
            rows = np.random.default_rng(seed).integers(-4, 5, size=(16, 2))
            x, v = rows[0::2], rows[1::2]
            y = (x * x).sum(axis=1, keepdims=True) * v - (v * x).sum(axis=1, keepdims=True) * x
            assert x.any(axis=1).all() != x_rejected and not y.any(axis=1).all()
            batch, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            xs, ys = _sample_pairs(batch, 2, 8, True, True)
            pairs = [sample_pair_reference(ref, 2, True, True) for _ in range(8)]
            assert xs.tolist() == [x.tolist() for x, _ in pairs]
            assert ys.tolist() == [y.tolist() for _, y in pairs]
            assert (ys != 0).any(axis=1).all() and ((xs * ys).sum(axis=1) == 0).all()
            assert batch.integers(2**62) == ref.integers(2**62)

    def test_float64_tier_near_the_bound_matches_bigint(self, monkeypatch):
        base = random_act(4, 3, seed=3)
        pairs = _basis_pair_candidates(4, True)  # |J(x)| reaches the J-bound on these
        xs, ys = list(pairs[:, 0]), list(pairs[:, 1])
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
            c_batch, s2 = _batch_commutators(R, xs, ys)
            ref, ref_s2 = bigint_commutators(R, xs, ys)
            assert tiers == [np.dtype(jacobi_tier), np.dtype(object)]
            assert c_batch.dtype == object and s2 == ref_s2
            assert c_batch.tolist() == ref
            assert max(abs(e) for mat in ref for row in mat for e in row) > 2**100

    def test_widened_span_takes_bigint_path_with_orthogonal_witness(self):
        R = random_act(6, 3, seed=11)
        xs, ys = orthogonal_batch(6, 16, span=4 + 2 * 63, seed=4)
        assert int64_bound(R, xs, ys) >= _INT64_LIMIT
        c_batch, s2 = _batch_commutators(R, xs, ys)
        assert c_batch.dtype == object
        assert c_batch.tolist() == bigint_commutators(R, xs, ys)[0]
        # a copy of every pair follows the originals, so the largest norm is tied
        best, w = _violation_scan(R, xs + [x.copy() for x in xs], ys + [y.copy() for y in ys], "largest")
        assert np.dot(w.x, w.y) == 0
        assert (commutator(R, w.x, w.y) != 0).any()
        norms = [
            Fraction(int(np.abs(c_batch[p]).max()), s2 * int(np.dot(x, x)) * int(np.dot(y, y)))
            for p, (x, y) in enumerate(zip(xs, ys))
        ]
        assert w.commutator_norm == max(norms)
        assert best == norms.index(max(norms)) and w.x is xs[best]

    def test_sliced_scan_matches_one_slice(self, monkeypatch):
        # three pairs per slice, and a tied copy of every pair in a later slice
        base = random_act(6, 3, seed=11)
        for R in (base, base.to_float()):
            xs, ys = _sample_pairs(np.random.default_rng(4), 6, 16, R.mode.exact, True)
            xs, ys = np.concatenate([xs, xs]), np.concatenate([ys, ys])
            for pick in ("first", "largest"):
                whole = _violation_scan(R, xs, ys, pick)
                with monkeypatch.context() as patch:
                    patch.setattr(tsankov, "SLICE_ENTRIES", 3 * 6 * 6)
                    sliced = _violation_scan(R, xs, ys, pick)
                assert sliced[0] == whole[0] < 16
                assert sliced[1].commutator_norm == whole[1].commutator_norm


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


def count_expansions(monkeypatch):
    """Route actlab.tsankov.commutator_poly through a wrapper; returns its call list."""
    calls, real = [], tsankov.commutator_poly
    monkeypatch.setattr(tsankov, "commutator_poly", lambda R: calls.append(R) or real(R))
    return calls


def refuse_expansion(monkeypatch):
    def refuse(R):
        raise AssertionError("the commutator polynomial was expanded")

    monkeypatch.setattr(tsankov, "commutator_poly", refuse)


def quaternion_tensor():
    """R_Theta for Theta = (L_i + L_j) / sqrt 2 on R^4, L the quaternion left-multiplications.

    S = L_i + L_j is an integer skew matrix with S^2 = -2I, and R_Theta is
    quadratic in Theta, so R_Theta = R_S / 2 with R_S from the r_theta
    formula R[i][j][k][l] = S_kj S_li - S_ki S_lj - 2 S_ji S_lk.  The tensor
    is rational and commutes on orthogonal pairs, but Theta is irrational.
    """
    L_i = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    L_j = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    S = L_i + L_j
    assert (S @ S == -2 * np.eye(4, dtype=int)).all()
    comps = (
        np.einsum("kj,li->ijkl", S, S)
        - np.einsum("ki,lj->ijkl", S, S)
        - 2 * np.einsum("ji,lk->ijkl", S, S)
    )
    return CurvatureTensor(4, comps, RATIONAL, 2)


class TestTriage:
    def test_verdicts_match_divisibility_on_corpus(self, corpus200, monkeypatch):
        calls = count_expansions(monkeypatch)
        decided = [_decide(R, 0, 200, orthogonal=True) for R in corpus200]
        assert not calls  # the zero test, the screen or a fit settled every tensor
        monkeypatch.undo()
        fits = 0
        for R, (verdict, fit) in zip(corpus200, decided):
            assert verdict.holds == (divisible_by_pairing(commutator_poly(R)) is not None)
            if fit is not None:
                c, cs, residual = fit
                rebuilt = r0(R.m, c) if cs is None else r_theta(cs, c)
                assert (rebuilt.components == R.components).all() and residual == 0
                fits += 1
        assert fits == sum(v.holds for v, _ in decided) - sum(R.is_zero() for R in corpus200)

    def test_full_commutation_screen_matches_expansion_on_corpus(self, corpus200, monkeypatch):
        calls = count_expansions(monkeypatch)
        verdicts = [full_commutation_test(R).holds for R in corpus200]
        assert not calls
        monkeypatch.undo()
        assert verdicts == [commutator_poly(R).is_zero() for R in corpus200]

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

    def test_large_accepts_without_expansion(self, monkeypatch):
        refuse_expansion(monkeypatch)
        c = Fraction(-7, 3)
        res = classify(r0(32, c))
        assert (res.tag, res.c, res.residual) == ("ConstantCurvature", c, 0)
        cs = conjugate_structure(standard_complex_structure(32), random_signed_permutation(32, 5))
        res = classify(r_theta(cs, c))
        assert (res.tag, res.c, res.residual) == ("ComplexForm", c, 0)
        th = res.theta.theta
        assert (th == cs.theta).all() or (th == -cs.theta).all()

    def test_rejects_keep_the_search_witness(self, monkeypatch):
        # the witnesses, coordinate types and norms the expansion path reported
        refuse_expansion(monkeypatch)
        e = lambda *ones: [Fraction(int(i in ones)) for i in range(12)]  # noqa: E731
        pinned = {
            0: (e(11), e(2, 4), Fraction(4480), Fraction),
            1: (
                [4, -1, 1, -1, -1, -1, 1, -2, -3, 2, 4, 0],
                [47, -218, 163, -53, -163, -108, 163, 59, 116, 161, -228, 110],
                Fraction(1094068917, 250855),
                int,
            ),
        }
        for seed, (x, y, norm, kind) in pinned.items():
            v = tsankov_test(random_act(12, 3, seed), "exact")
            assert not v.holds and v.method == "ExactDivisibility"
            w = v.witness
            assert w.x.dtype == object and w.y.dtype == object
            assert all(type(t) is kind for t in [*w.x, *w.y])
            assert (w.x.tolist(), w.y.tolist(), w.commutator_norm) == (x, y, norm)
            assert type(w.commutator_norm) is Fraction

    def test_large_reject_keeps_the_search_witness(self, monkeypatch):
        # m=20: round 0's 4,190 pairs contract on the float64 tier
        refuse_expansion(monkeypatch)
        v = tsankov_test(random_act(20, 3, 0), "exact")
        assert not v.holds and v.method == "ExactDivisibility"
        w = v.witness
        assert all(type(t) is int for t in [*w.x, *w.y])
        assert w.x.tolist() == [1, 3, -2, 3, 0, -3, -1, -4, 2, 4, -3, 4, 1, -2, 2, -2, 0, 2, -4, 3]
        assert w.y.tolist() == [
            -576, -232, -208, 176, -136, 640, 304, 536, 72, -128,
            -312, 280, 376, -208, 480, -480, 136, -608, -144, 312,
        ]
        assert w.commutator_norm == Fraction(28847393, 3848)
