"""Scalar backends: exact rank, float spectra, seeded sampling, completions."""

from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from actlab import (
    FLOAT,
    RATIONAL,
    DegenerateInput,
    InvalidDimension,
    InvalidOperator,
    eig_selfadjoint,
    jacobi,
    orthocomplement_basis,
    r_theta,
    random_rational_unit_vector,
    random_unit_vector,
    rank_with_mode,
    standard_complex_structure,
)
from actlab.scalars import (
    _eigensplit_float,
    complete_orthonormal_exact,
    exact_cast,
    fraction_sqrt,
    integer_array,
    integer_array_max,
    max_abs,
    orthonormalize_exact,
    require_int,
    vector,
)
from actlab.tensors import r0


def frac_matrix(rows):
    return np.array([[Fraction(v) for v in row] for row in rows], dtype=object)


class TestEig:
    def test_diagonal_input(self):
        w, v = eig_selfadjoint(np.diag([0.0, 1.0, 1.0]))
        assert np.allclose(w, [0, 1, 1])
        assert np.allclose(np.abs(v), np.eye(3))

    def test_rank_one_projector_scaled(self):
        a = np.zeros((4, 4))
        a[1, 1] = 3.0
        w, _ = eig_selfadjoint(a)
        assert np.allclose(w, [0, 0, 0, 3])

    def test_jacobi_of_rtheta_spectrum(self):
        # oracle: J(x) = 3 <., Th x> Th x has eigenvalues {0,...,0,3}
        from actlab import conjugate_structure, random_signed_permutation

        cs = conjugate_structure(
            standard_complex_structure(6), random_signed_permutation(6, seed=8)
        )
        R = r_theta(cs, 1).to_float()
        for seed in (42, 43, 44):
            x = random_unit_vector(6, seed=seed)
            w, _ = eig_selfadjoint(jacobi(R, x))
            assert np.allclose(np.sort(w), [0, 0, 0, 0, 0, 3], atol=1e-10)

    def test_rejects_non_symmetric(self):
        with pytest.raises(InvalidOperator):
            eig_selfadjoint(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_rational(self):
        with pytest.raises(InvalidOperator):
            eig_selfadjoint(frac_matrix([[1, 0], [0, 1]]))

    def test_reconstruction_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            a = rng.standard_normal((m, m))
            a = a + a.T
            w, v = eig_selfadjoint(a)
            recon = v @ np.diag(w) @ v.T
            assert np.abs(a - recon).max() <= 10 * 1e-9 * max(1.0, np.abs(a).max())


class TestRank:
    def test_trivial(self):
        assert rank_with_mode(np.diag([0.0, 1.0, 1.0]), FLOAT) == 2
        assert rank_with_mode(frac_matrix([[0, 0], [0, 0]]), RATIONAL) == 0

    def test_rtheta_jacobi_rank_one(self):
        R = r_theta(standard_complex_structure(4), 1)
        x = random_rational_unit_vector(4, seed=5)
        assert rank_with_mode(jacobi(R, x), RATIONAL) == 1

    def test_exact_float_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            a = rng.integers(-3, 4, size=(m, m))
            sym = a + a.T
            exact = rank_with_mode(frac_matrix(sym.tolist()), RATIONAL)
            approx = rank_with_mode(sym.astype(float), FLOAT)
            assert exact == approx

    def test_rejects_non_symmetric(self):
        """Both modes refuse before any elimination or split: float mode in
        ``_eigensplit_float``, which every float split and rank go through."""
        for a, mode in (
            (frac_matrix([[0, 1], [0, 0]]), RATIONAL),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), FLOAT),
            (np.ones((2, 3)), FLOAT),
        ):
            with pytest.raises(InvalidOperator):
                rank_with_mode(a, mode)
        with pytest.raises(InvalidOperator, match="not symmetric"):
            _eigensplit_float(np.array([[1.0, 2.0], [0.0, 1.0]]), FLOAT)


class TestRandomUnitVector:
    def test_determinism(self):
        assert np.array_equal(random_unit_vector(3, seed=9), random_unit_vector(3, seed=9))

    def test_normalization(self):
        for seed in range(20):
            v = random_unit_vector(5, seed)
            assert abs(v @ v - 1) <= 1e-12

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidDimension):
            random_unit_vector(0, seed=1)

    def test_mean_near_zero(self):
        # law of large numbers: per-coordinate sigma = 1/2 at m=4, so
        # 3 sigma / sqrt(N) = 0.015 << 0.05
        total = np.zeros(4)
        n = 10_000
        for seed in range(n):
            total += random_unit_vector(4, seed)
        assert np.abs(total / n).max() < 0.05


class TestInputChecks:
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_vectors_refuse_non_sequences(self, mode):
        # None and 5 used to raise TypeError from iterating them, outside ActError
        for bad in (None, 5, Fraction(1, 2), np.array(3.0), np.array([])):
            with pytest.raises(InvalidDimension, match="^vectors need "):
                vector(bad, mode)
        for bad in (None, 5):
            with pytest.raises(InvalidDimension):
                jacobi(r0(3, 1, mode), bad)
        assert vector(np.array([1, 2]), mode).tolist() == [1, 2]
        assert vector((t for t in (1, 2)), mode).tolist() == [1, 2]

    def test_seeds_are_non_negative_integers(self):
        for seed in (0, 7, np.int64(3), np.uint32(2**32 - 1), 2**80):
            assert require_int(seed, 0, "seed") is seed
        for seed in (-1, np.int64(-2), 1.5, 2.0, "1", None, True, False, [1]):
            with pytest.raises(DegenerateInput, match="^seed must be an integer >= 0, got "):
                require_int(seed, 0, "seed")
        for draw in (random_unit_vector, random_rational_unit_vector):
            with pytest.raises(DegenerateInput):
                draw(3, -1)


class TestRationalUnitVector:
    def test_exact_unit_and_deterministic(self):
        for seed in range(30):
            v = random_rational_unit_vector(6, seed)
            assert sum(x * x for x in v) == 1
            assert all(isinstance(x, Fraction) for x in v)
        assert np.array_equal(
            random_rational_unit_vector(6, seed=3), random_rational_unit_vector(6, seed=3)
        )


class TestOrthocomplement:
    def test_single_basis_vector(self):
        basis = orthocomplement_basis([np.array([1.0, 0.0, 0.0])])
        assert len(basis) == 2
        span = np.column_stack(basis)
        assert np.allclose(span[0, :], 0)
        assert np.allclose(span.T @ span, np.eye(2), atol=1e-12)

    def test_two_basis_vectors(self):
        basis = orthocomplement_basis([np.eye(3)[:, 0], np.eye(3)[:, 1]])
        assert len(basis) == 1
        assert np.allclose(np.abs(basis[0]), [0, 0, 1], atol=1e-12)

    def test_oblique_input(self):
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        basis = orthocomplement_basis([v])
        assert len(basis) == 2
        for u in basis:
            assert abs(u @ v) <= 1e-12
            assert abs(u @ u - 1) <= 1e-12
        assert abs(basis[0] @ basis[1]) <= 1e-12

    def test_dependent_rejected(self):
        with pytest.raises(DegenerateInput):
            orthocomplement_basis([np.array([1.0, 0.0]), np.array([2.0, 0.0])])

    def test_exact_completion(self):
        x = random_rational_unit_vector(5, seed=17)
        basis = orthocomplement_basis([x])
        assert len(basis) == 4
        for u in basis:
            assert np.dot(u, x) == 0
            assert np.dot(u, u) == 1
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.dot(basis[a], basis[b]) == 0


class TestExactHelpers:
    def test_fraction_sqrt(self):
        assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert fraction_sqrt(Fraction(2)) is None
        assert fraction_sqrt(Fraction(-1)) is None

    def test_gram_schmidt_exact(self):
        vs = [np.array([Fraction(3), Fraction(4)], dtype=object), np.array([Fraction(1), Fraction(0)], dtype=object)]
        out = orthonormalize_exact(vs)
        assert np.dot(out[0], out[0]) == 1
        assert np.dot(out[1], out[1]) == 1
        assert np.dot(out[0], out[1]) == 0

    def test_completion_of_orthonormal_pair(self):
        x = random_rational_unit_vector(4, seed=2)
        rest = complete_orthonormal_exact([x], 4)
        frame = [x, *rest]
        for a in range(4):
            for b in range(4):
                assert np.dot(frame[a], frame[b]) == (1 if a == b else 0)


class TestMaxAbs:
    """max_abs keeps the value, type and sign bit of ``np.abs(a).max()``."""

    def same(self, got, want):
        assert type(got) is type(want)
        assert repr(got) == repr(want) and np.signbit(got) == np.signbit(want)

    def test_int64_and_float64_match_the_abs_temporary(self):
        rng = np.random.default_rng(3)
        cases = [
            rng.integers(-50, 50, size=(7, 5)),
            np.array([-2**62, 5]),
            np.array([0]),
            np.array([-3, 2]),
            rng.standard_normal((4, 4, 4)),
            np.array([-0.0]),
            np.array([-0.0, 0.0]),
            np.array([0.0, -0.0] * 20),
            np.full(33, -0.0),
            np.array([2.0, -0.0, -7.5]),
            np.array([np.inf, -np.inf]),
            np.array([-np.inf, 1.0]),
            np.array(-2.5),
        ]
        for a in cases:
            self.same(max_abs(a), np.abs(a).max())
        got = max_abs(np.full(5, -0.0))  # -0.0 becomes 0.0
        assert got == 0.0 and not np.signbit(got)

    def test_nan_propagates(self):
        for a in ([1.0, np.nan, 2.0], [np.nan] * 40, [-np.nan, -3.0], [np.nan]):
            got = max_abs(np.array(a))
            assert type(got) is np.float64 and np.isnan(got) and not np.signbit(got)

    def test_empty_arrays(self):
        for a, zero in ((np.zeros(0), 0.0), (np.zeros((0, 3), dtype=np.int64), 0.0), (np.array([], dtype=object), Fraction(0))):
            got = max_abs(a)
            assert type(got) is type(zero) and got == zero

    def test_object_arrays_take_the_abs_path(self):
        a = np.array([Fraction(-7, 3), Fraction(2), Fraction(0)], dtype=object)
        got = max_abs(a)
        assert type(got) is Fraction and got == Fraction(7, 3)
        big = np.array([-(2**80), 3, 2**79], dtype=object)
        got = max_abs(big)
        assert type(got) is int and got == 2**80
        self.same(max_abs(np.array([-1.5, 1.0], dtype=np.float32)), np.abs(np.array([-1.5, 1.0], dtype=np.float32)).max())
        self.same(max_abs([[-4, 2]]), np.abs(np.array([[-4, 2]])).max())

    def test_int64_min_is_read_as_a_python_int(self):
        # np.abs wraps -2^63 to itself, which read as 0 before; every smaller |min| keeps np.int64
        for a in (np.array([-(2**63)]), np.array([5, -(2**63), 2**63 - 1]), np.full((2, 3), -(2**63))):
            got = max_abs(a)
            assert type(got) is int and got == 2**63
        self.same(max_abs(np.array([-(2**63) + 1, 3])), np.int64(2**63 - 1))
        nums, d, top = integer_array_max(np.array([0, -(2**63), 7]))
        assert nums.dtype == object and nums.tolist() == [0, -(2**63), 7] and (d, top) == (1, 2**63)


class TestIntegerArray:
    def test_clears_and_reduces(self):
        n, d = integer_array([Fraction(1, 6), Fraction(-2, 3), 2])
        assert n.dtype == np.int64 and n.tolist() == [1, -4, 12] and d == 6
        n, d = integer_array(np.array([4, 6, -8]), denominator=10)
        assert n.tolist() == [2, 3, -4] and d == 5
        n, d = integer_array(np.zeros((2, 2), dtype=np.int64), denominator=7)
        assert n.tolist() == [[0, 0], [0, 0]] and d == 1
        n, d = integer_array([0.5, -0.25])
        assert n.tolist() == [2, -1] and d == 4

    @staticmethod
    def reference(nums, d):
        """The reduction by g = gcd(d, gcd of every numerator), written out entry by entry."""
        g = d
        for v in np.asarray(nums).reshape(-1).tolist():
            g = gcd(g, int(v))
        return [int(v) // g for v in np.asarray(nums).reshape(-1).tolist()], d // g

    def test_reduction_matches_the_full_gcd(self):
        # the cheap gcd(d, first nonzero) decides whether the full sweep runs;
        # the result must be the reduction by the gcd of d and every numerator
        cases = [
            (np.zeros((3, 3), dtype=np.int64), 12),
            (np.zeros(5, dtype=object), 7),
            (np.array([4, -6, 8]), 1),
            (np.array([6, 10]), 6),  # gcd(6, 6) = 6, but 10 leaves only 2
            (np.array([6, 9]), 3),  # the first nonzero gives the whole gcd
            (np.array([0, 0, 6, 9]), 3),
            (np.array([0, 0, 5, 15]), 3),
        ]
        rng = np.random.default_rng(20)
        for _ in range(60):
            size = int(rng.integers(1, 300))
            nums = rng.integers(-6, 7, size=size) * int(rng.choice([1, 2, 3, 6]))
            nums[: int(rng.integers(0, size + 1))] = 0
            d = int(rng.choice([1, 2, 3, 4, 6, 9, 12, 36]))
            cases.append((nums, d))
            big = np.array([int(v) * (2**70 + 2) for v in nums], dtype=object)
            cases.append((big, d * 2**3))
        # a first nonzero past the first leading slices, in a non-contiguous array
        late = np.zeros((4, 5, 6, 7), dtype=np.int64)
        late[2, 1, 0, 3], late[3, 4, 5, 6] = 6, 10
        cases += [(late, 4), (late.transpose((3, 1, 2, 0)), 4), (late.astype(object)[:, ::-1], 6)]
        for nums, d in cases:
            want, want_d = self.reference(nums, d)
            n, got_d = integer_array(nums, denominator=d)
            assert got_d == want_d and n.reshape(-1).tolist() == want
            assert n.dtype == (object if max(map(abs, want), default=0) >= 2**62 else np.int64)

    def test_python_int_arrays_match_the_fraction_path(self):
        # object arrays of Python ints skip the per-entry Fraction list; the
        # same values as Fractions take it, and both give the same N, dtype and d
        rng = np.random.default_rng(21)
        cases = [(np.zeros((3, 4), dtype=object), d) for d in (1, 5)]
        cases += [(np.array([0, 0], dtype=object), 1), (np.array([2**70, -(2**70)], dtype=object), 2**71)]
        for _ in range(40):
            nums = rng.integers(-6, 7, size=(3, int(rng.integers(1, 20))))
            f = int(rng.choice([1, 3, 2**65, 3 * 2**65]))
            big = np.array([[int(v) * f for v in row] for row in nums], dtype=object)
            for d in (1, 3, 2**66, 7):  # d = 3 and 2**66 can share a factor with N, d = 7 cannot
                cases.append((big, d))
        for ints, d in cases:
            fracs = np.array([Fraction(v) for v in ints.reshape(-1).tolist()], dtype=object).reshape(ints.shape)
            (n0, got_d), (want0, want_d) = integer_array(ints, d), integer_array(fracs, d)
            assert got_d == want_d
            for n, want in ((n0, want0), (exact_cast(n0, 2**80), exact_cast(want0, 2**80))):
                assert n.dtype == want.dtype and n.shape == want.shape
                assert n.reshape(-1).tolist() == want.reshape(-1).tolist()
                assert all(type(v) is type(w) for v, w in zip(n.reshape(-1).tolist(), want.reshape(-1).tolist()))
        # a Fraction among the ints still clears its denominator
        n, d = integer_array(np.array([2**70, Fraction(1, 3)], dtype=object))
        assert n.tolist() == [3 * 2**70, 1] and d == 3

    @staticmethod
    def fraction_list_reference(values, denominator=1):
        """``integer_array`` as one ``Fraction`` list made it: numerators as Python ints, reduced,
        then int64 below 2^62 in max|N|."""
        a = np.asarray(values)
        flat = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in a.ravel().tolist()]
        common = lcm(*(v.denominator for v in flat))
        nums = [v.numerator * (common // v.denominator) for v in flat]
        d = common * denominator
        g = d
        for v in nums:
            g = gcd(g, int(v))
        nums, d = [v // g for v in nums], d // g
        top = max((abs(int(v)) for v in nums), default=0)
        return np.array(nums, dtype=object if top >= 2**62 else np.int64).reshape(a.shape), d

    def test_fraction_lists_match_the_reference(self):
        edge = [2**62 - 1, -(2**62 - 1), 2**62, -(2**62), -(2**63)]
        rng = np.random.default_rng(22)
        cases = [
            ([Fraction(1, 6), Fraction(-2, 9), Fraction(5, 4), 0], 1),
            ([Fraction(1, 6), Fraction(-2, 9), Fraction(5, 4), 0], 36),
            ([3, Fraction(1, 3), -7, Fraction(2, 5)], 1),
            ([3, Fraction(1, 3), -7, Fraction(2, 5)], 15),
            ([Fraction(0)] * 6, 4),
            ([np.int64(4), Fraction(2, 3), np.int64(-6)], 1),
            ([np.int64(4), np.int64(-6), 8], 2),
            ([0.5, Fraction(1, 3), 2], 1),
        ]
        for v in edge:
            cases += [([Fraction(v), Fraction(1, 2)], 1), ([Fraction(v), 3], 1), ([v, Fraction(1, 3)], 3)]
            cases += [([Fraction(v, 2), 1], 2), ([Fraction(v)], 2), ([Fraction(v), Fraction(0)], 1)]
        for _ in range(30):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 7)))
            num = rng.integers(-9, 10, size=shape)
            den = rng.integers(1, 7, size=shape)
            f = int(rng.choice([1, 2**40, 2**61, 2**63]))
            cases.append(([[Fraction(int(a) * f, int(b)) for a, b in zip(*row)] for row in zip(num, den)], 6))
        for values, d in cases:
            a = np.empty(np.shape(values), dtype=object)
            a[...] = values
            n, got_d = integer_array(a, d)
            want, want_d = self.fraction_list_reference(a, d)
            assert got_d == want_d and n.dtype == want.dtype and n.shape == want.shape
            assert n.reshape(-1).tolist() == want.reshape(-1).tolist()
            if n.dtype == object:
                assert {type(v) for v in n.reshape(-1).tolist()} == {int}

    def test_numpy_integers_beside_fractions_do_not_wrap(self):
        a = np.empty(3, dtype=object)
        a[:] = [np.int64(2**40), Fraction(1, 2**30), np.int32(-3)]
        n, d = integer_array(a)
        assert d == 2**30 and n.dtype == object and n.tolist() == [2**70, 1, -3 * 2**30]
        assert {type(v) for v in n.tolist()} == {int}

    def test_exact_cast_keeps_int64_below_2_62(self):
        nums = np.array([[3, -(2**40)], [0, 7]], dtype=np.int64)
        for bound in (0, 2**53, 2**62 - 1):
            got = exact_cast(nums, bound)
            assert got.dtype == np.int64 and np.array_equal(got, nums)

    def test_exact_cast_python_ints_from_2_62(self):
        nums = np.array([[3, -(2**40)], [0, 7]], dtype=np.int64)
        for bound in (2**62, 2**80):
            got = exact_cast(nums, bound)
            assert got.dtype == object and got.shape == nums.shape
            assert got.tolist() == nums.tolist() and all(type(v) is int for v in got.reshape(-1).tolist())

    def test_exact_cast_keeps_object_arrays(self):
        nums = np.array([2**70, -3, 0], dtype=object)
        for bound in (0, 1, 2**62 - 1, 2**62, 2**80):
            got = exact_cast(nums, bound)
            assert got.dtype == object and got.tolist() == [2**70, -3, 0]
            assert all(type(v) is int for v in got.tolist())

    def test_exact_cast_empty_and_zero_arrays(self):
        for shape in ((0,), (3, 0), (2, 2, 2, 2)):
            for dtype in (np.int64, object):
                nums = np.zeros(shape, dtype=dtype)
                for bound in (0, 2**62 - 1):
                    got = exact_cast(nums, bound)
                    assert got.dtype == dtype and got.shape == shape and not got.any()
                got = exact_cast(nums, 2**62)
                assert got.dtype == object and got.shape == shape and not got.any()
                assert all(type(v) is int for v in got.reshape(-1).tolist())

    def test_int64_below_the_bound_python_ints_from_it(self):
        assert integer_array([2**62 - 1])[0].dtype == np.int64
        big, _ = integer_array([2**62, -3])
        assert big.dtype == object and all(type(v) is int for v in big)
        assert exact_cast(integer_array([3])[0], 2**62).dtype == object
