"""Constructors, the symmetry validator, and the curvature operator action."""

import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from actlab import (
    FLOAT,
    RATIONAL,
    DegenerateInput,
    IncompatibleTensors,
    InvalidComplexStructure,
    InvalidDimension,
    InvalidOperator,
    InvalidShape,
    apply,
    combine,
    conjugate_structure,
    eig_selfadjoint,
    find_commuting_partner,
    from_form,
    from_metric_components,
    jacobi,
    jacobi_polarized,
    jacobi_rank,
    load_tensor,
    r0,
    r_theta,
    random_act,
    random_signed_permutation,
    random_unit_vector,
    rotate,
    save_tensor,
    standard_complex_structure,
    validate,
)
from actlab.errors import ClassificationInconsistency
from actlab.scalars import SLICE_ENTRIES, exact_cast, float_array, max_abs
from actlab.tensors import (
    ComplexStructure,
    CurvatureTensor,
    _gauss_components,
    _r0_pattern,
    _r_theta_blocks,
    _r_theta_pattern,
    _standard_pattern,
)
from actlab.tsankov import _fit, _r0_fit, _relative_residual

from conftest import cayley_rotation, r0_near_misses, random_fraction


def brute_force_symmetry_violations(comps, m):
    """Independent oracle: loop over every index tuple and check each symmetry."""
    worst = {"pair_exchange": 0, "antisym_12": 0, "antisym_34": 0, "bianchi": 0}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    worst["pair_exchange"] = max(
                        worst["pair_exchange"], abs(comps[i, j, k, l] - comps[k, l, i, j])
                    )
                    worst["antisym_12"] = max(
                        worst["antisym_12"], abs(comps[i, j, k, l] + comps[j, i, k, l])
                    )
                    worst["antisym_34"] = max(
                        worst["antisym_34"], abs(comps[i, j, k, l] + comps[i, j, l, k])
                    )
                    worst["bianchi"] = max(
                        worst["bianchi"],
                        abs(comps[i, j, k, l] + comps[j, k, i, l] + comps[k, i, j, l]),
                    )
    return worst


class TestValidate:
    def test_r0_accepted(self):
        report = validate(r0(3, 1).components, RATIONAL)
        assert report.accepted
        assert all(v == 0 for v in report.violations.values())

    def test_single_entry_perturbation_rejected(self):
        comps = r0(3, 1).components.copy()
        comps[0, 1, 1, 0] = comps[0, 1, 1, 0] + 1
        report = validate(comps, RATIONAL)
        assert not report.accepted
        assert report.violations["pair_exchange"] > 0 or report.violations["antisym_12"] > 0

    def test_rtheta_against_brute_force_oracle(self, rtheta4):
        # oracle: explicit loop over all 256 index tuples
        report = validate(rtheta4.components, RATIONAL)
        assert report.accepted
        oracle = brute_force_symmetry_violations(rtheta4.components, 4)
        for name, worst in oracle.items():
            assert worst == report.violations[name] == 0

    def test_vectorized_matches_brute_force_on_random_act(self):
        R = random_act(4, 3, seed=5)
        report = validate(R.components, RATIONAL)
        oracle = brute_force_symmetry_violations(R.components, 4)
        for name in oracle:
            assert report.violations[name] == oracle[name] == 0

    def test_malformed_shape(self):
        with pytest.raises(InvalidShape):
            validate(np.zeros((3, 3, 3)), FLOAT)
        with pytest.raises(InvalidShape):
            validate(np.zeros((2, 2, 2, 3)), FLOAT)


class TestR0:
    def test_component_values(self):
        R = r0(3, 1)
        assert R.components[0, 1, 1, 0] == 1
        assert R.components[0, 1, 0, 1] == -1
        assert all(R.components[0, 1, 2, l] == 0 for l in range(3))

    def test_scaled_jacobi(self):
        J = jacobi(r0(3, 5), [1, 0, 0])
        assert J.tolist() == [[0, 0, 0], [0, 5, 0], [0, 0, 5]]

    def test_sectional_curvature_random_pairs(self):
        # oracle: direct contraction R(x,y,y,x) over orthonormal pairs
        R = r0(4, 2).to_float()
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(4)
            y -= (y @ x) * x
            y /= np.linalg.norm(y)
            sect = float(np.dot(apply(R, x, y, y), x))
            assert abs(sect - 2) <= 1e-10

    def test_spectrum_property(self):
        for m in range(3, 7):
            for c in (-2, 1, 5):
                R = r0(m, c).to_float()
                for k in range(100):
                    x = random_unit_vector(m, seed=1000 * m + k)
                    w, _ = eig_selfadjoint(jacobi(R, x))
                    expected = sorted([0.0] + [float(c)] * (m - 1))
                    assert np.allclose(np.sort(w), expected, atol=1e-9)


class TestRTheta:
    def test_standard_jacobi_rank_one(self, std4):
        J = jacobi(r_theta(std4, 1), [1, 0, 0, 0])
        expected = np.zeros((4, 4), dtype=object)
        expected[1, 1] = 3
        assert (J == expected).all()

    def test_zero_scale(self, std4):
        assert r_theta(std4, 0).max_abs() == 0

    def test_components_against_trilinear_oracle(self, std4):
        # oracle: evaluate <Th y, z> Th x - <Th x, z> Th y - 2 <Th x, y> Th z
        # independently at every basis tuple
        c = Fraction(2)
        R = r_theta(std4, c)
        th = std4.theta
        e = [np.array([Fraction(1 if r == n else 0) for r in range(4)], dtype=object) for n in range(4)]
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    value = (
                        np.dot(np.dot(th, e[j]), e[k]) * np.dot(th, e[i])
                        - np.dot(np.dot(th, e[i]), e[k]) * np.dot(th, e[j])
                        - 2 * np.dot(np.dot(th, e[i]), e[j]) * np.dot(th, e[k])
                    )
                    for l in range(4):
                        assert c * value[l] == R.components[i, j, k, l]

    def test_jacobi_matches_scaled_projector(self, std4):
        R = r_theta(std4, 2)
        J = jacobi(R, [1, 0, 0, 0])
        expected = np.zeros((4, 4), dtype=object)
        expected[1, 1] = 6
        assert (J == expected).all()
        assert R.components[0, 1, 1, 0] == 6  # 3c on the structure plane

    def test_spectrum_property(self):
        for m in (4, 6):
            for c in (-2, 1, 5):
                R = r_theta(standard_complex_structure(m), c).to_float()
                for k in range(100):
                    x = random_unit_vector(m, seed=7000 * m + k)
                    w, _ = eig_selfadjoint(jacobi(R, x))
                    expected = sorted([0.0] * (m - 1) + [3.0 * c])
                    assert np.allclose(np.sort(w), expected, atol=1e-9)

    @staticmethod
    def formula_values(cs, c):
        """The numerators of c R_Theta from the outer product Th (x) Th, term by term."""
        th, scale, den = cs.values, c, 1
        if cs.mode.exact:
            th = exact_cast(th, 4 * int(max_abs(th)) ** 2 * max(abs(c.numerator), 1))
            scale, den = c.numerator, c.denominator * cs.denominator**2
        o = np.multiply.outer(th, th)
        return (o.transpose((3, 1, 0, 2)) - o.transpose((1, 3, 0, 2)) - 2 * o.transpose((1, 0, 3, 2))) * scale, den

    @staticmethod
    def same_bits(a, b):
        if a.dtype == object:  # Python ints: equal values of one type
            return b.dtype == object and a.tolist() == b.tolist() and {type(v) for v in a.flat} == {int}
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("m", (2, 4, 6, 8, 16))
    def test_two_buffer_rebuild_matches_the_formula_bit_for_bit(self, m):
        exact = conjugate_structure(standard_complex_structure(m), random_signed_permutation(m, 3))
        q = np.linalg.qr(np.random.default_rng(m).standard_normal((m, m)))[0]
        rotated = conjugate_structure(standard_complex_structure(m, FLOAT), q)
        cases = [(exact, Fraction(-7, 4)), (exact, Fraction(2**70 + 1, 3)), (exact, Fraction(0))]
        cases += [(rotated, c) for c in (-1.7, 3.0, -0.0, 1e-310)]  # signed zeros and subnormals too
        for cs, c in cases:
            want, want_den = self.formula_values(cs, c)
            R = r_theta(cs, c)
            ref = CurvatureTensor(m, want, cs.mode, want_den)
            assert R.denominator == ref.denominator and self.same_bits(R.values, ref.values)
        assert r_theta(exact, Fraction(2**70 + 1, 3)).values.dtype == object

    @staticmethod
    def two_buffer_values(cs, c):
        """The numerators of c R_Theta as two m^4 buffers made them: t1 - t2, then - 2 t3, then * c."""
        th, scale, den = cs.values, c, 1
        if cs.mode.exact:
            th = exact_cast(th, 4 * int(max_abs(th)) ** 2 * max(abs(c.numerator), 1))
            scale, den = c.numerator, c.denominator * cs.denominator**2
        m, t = cs.m, th.T
        a, b = np.empty((m,) * 4, th.dtype), np.empty((m,) * 4, th.dtype)
        np.multiply(t[:, None, None, :], t[None, :, :, None], out=a)
        np.multiply(t[:, None, :, None], t[None, :, None, :], out=b)
        a -= b
        np.multiply.outer(t.reshape(-1), t.reshape(-1), out=b.reshape(m * m, m * m))
        b *= 2
        a -= b
        a *= scale
        return a, den

    @pytest.mark.parametrize("m", range(2, 19, 2))
    def test_blocked_rebuild_matches_the_two_buffer_build_bit_for_bit(self, m):
        # at m = 12 and 14 the block rows (9 and 5) do not divide m, so the last block is short
        exact = conjugate_structure(standard_complex_structure(m), random_signed_permutation(m, 3))
        q = np.linalg.qr(np.random.default_rng(m).standard_normal((m, m)))[0]
        rotated = conjugate_structure(standard_complex_structure(m, FLOAT), q)
        cases = [(exact, Fraction(-7, 4)), (exact, Fraction(2**70 + 1, 3))]
        cases += [(rotated, c) for c in (-1.7, -0.0, -1e-310)]  # signed zeros and subnormals
        for cs, c in cases:
            want, want_den = self.two_buffer_values(cs, c)
            R, ref = r_theta(cs, c), CurvatureTensor(m, want, cs.mode, want_den)
            assert R.denominator == ref.denominator and self.same_bits(R.values, ref.values)
            blocks, den, dtype = _r_theta_blocks(cs, c)
            rows = []
            for r, block in blocks:  # each block is compared before the next reuses its buffer
                assert self.same_bits(block, want[r])  # tobytes() for int64 and float64
                rows.append((r.start, r.stop, block.size))
            assert den == want_den and dtype == want.dtype
            assert [r[0] for r in rows] == [0] + [r[1] for r in rows[:-1]] and rows[-1][1] == m
            assert all(size <= max(SLICE_ENTRIES, m**3) for *_, size in rows)
        assert r_theta(exact, Fraction(2**70 + 1, 3)).values.dtype == object
        assert np.signbit(r_theta(rotated, -0.0).values).any()

    @pytest.mark.parametrize("m", (4, 10, 12, 14))
    def test_fit_mismatch_raises_with_the_rebuild_residual(self, m):
        # entries off J(e_0) and J(e_0, .) leave the recovered (c, Theta) as it was, so the
        # compare fails there, in the first or the last block, and the residual is the rebuild's
        for q in (random_signed_permutation(m, 3), cayley_rotation(m, 5)):
            cs = conjugate_structure(standard_complex_structure(m), q)
            R = r_theta(cs, Fraction(-7, 4))
            for index, delta in (((1, 2, 3, 1), 1), ((m - 1, 2, 3, 1), -1), ((m - 1, 3, 2, 1), Fraction(1, 101))):
                comps = R.components.copy()
                comps[index] += delta
                bad = CurvatureTensor(m, comps, RATIONAL)
                assert (bad.denominator == R.denominator) == (type(delta) is int)
                values, den = self.two_buffer_values(cs, Fraction(-7, 4))
                want = _relative_residual(bad, CurvatureTensor(m, values, RATIONAL, den))
                with pytest.raises(ClassificationInconsistency) as exc:
                    _fit(bad)
                assert str(exc.value) == f"commutation holds but complex-form reconstruction fails (residual {want})"
                assert want != 0

    @staticmethod
    def blocked_values(cs, c):
        """The numerators of c R_Theta as the blocked build makes them, one row at a time."""
        th, scale, den = cs.values, c, 1
        if cs.mode.exact:
            th = exact_cast(th, 4 * int(max_abs(th)) ** 2 * max(abs(c.numerator), 1))
            scale, den = c.numerator, c.denominator * cs.denominator**2
        m, t = cs.m, th.T
        values, o = np.empty((m,) * 4, t.dtype), np.empty((1, m, m, m), t.dtype)
        for i in range(m):
            np.multiply.outer(t[i : i + 1], t, out=o)
            block = values[i : i + 1]
            np.subtract(o.transpose((0, 2, 3, 1)), o.transpose((0, 2, 1, 3)), out=block)
            o *= 2
            block -= o
            block *= scale
        return values, den

    @pytest.mark.parametrize("m", range(2, 19, 2))
    def test_pattern_build_matches_the_blocked_build_bit_for_bit(self, m):
        # an exact Theta with one nonzero a row relabels the cached standard pattern at every m:
        # the same values, dtype, element types and denominator as the blocked formula, for
        # signed permutations and for a sign flip that keeps every index in place
        standard = standard_complex_structure(m)
        flip = np.diag([Fraction((-1) ** (i % 3 == 1)) for i in range(m)])
        qs = [random_signed_permutation(m, seed) for seed in (3, 4)] + [flip]
        for cs in [conjugate_structure(standard, q) for q in qs]:
            for c in (Fraction(-7, 4), Fraction(5, 3), Fraction(1), Fraction(2**70 + 1, 3)):
                want, want_den = self.blocked_values(cs, c)
                positions, nums, den = _r_theta_pattern(cs, c)
                assert den == want_den and nums.dtype == want.dtype
                assert np.unique(positions).size == positions.size == 3 * m * m - 4 * m
                assert np.count_nonzero(nums) == np.count_nonzero(want) == nums.size
                values = np.zeros(m**4, nums.dtype)
                values[positions] = nums
                assert self.same_bits(values.reshape(want.shape), want)
                R, ref = r_theta(cs, c), CurvatureTensor(m, want, RATIONAL, want_den)
                assert R.denominator == ref.denominator and self.same_bits(R.values, ref.values)
        assert r_theta(cs, Fraction(2**70 + 1, 3)).values.dtype == object
        for cached in _standard_pattern(m):
            with pytest.raises(ValueError):
                cached[0] = 0

    @pytest.mark.parametrize("m", (20, 24))
    def test_standard_pattern_fills_without_an_m4_array(self, m):
        # the cache reads the blocks' nonzeros one reused block at a time
        _standard_pattern.cache_clear()
        tracemalloc.start()
        try:
            quads, values = _standard_pattern(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.size == 3 * m * m - 4 * m and peak < m**4 * np.dtype(np.int64).itemsize / 2

    @pytest.mark.parametrize("m", (12, 16))
    @pytest.mark.parametrize("c", (Fraction(-7, 4), Fraction(2**70 + 1, 3)))
    def test_pattern_fit_mismatch_raises_with_the_rebuild_residual(self, m, c):
        # entries with j and k nonzero leave the recovered (c, Theta) as it was; a change on the
        # pattern fails its compare, one off it the count of nonzeros, and a fraction there
        # changes R's denominator: each raises the residual of the whole rebuild
        cs = conjugate_structure(standard_complex_structure(m), random_signed_permutation(m, 3))
        R = r_theta(cs, c)
        positions = _r_theta_pattern(cs, c)[0]
        quads = np.stack(np.unravel_index(positions, R.values.shape), axis=1)
        inside = next(tuple(q) for q in quads.tolist() if q[1] and q[2])
        outside = next(q for q in np.ndindex(R.values.shape) if q[1] and q[2] and not R.values[q])
        for index, delta in ((inside, 1), (outside, -1), (outside, Fraction(1, 101))):
            comps = R.components.copy()
            comps[index] += delta
            bad = CurvatureTensor(m, comps, RATIONAL)
            assert (bad.denominator == R.denominator) == (type(delta) is int)
            values, den = self.blocked_values(cs, c)
            want = _relative_residual(bad, CurvatureTensor(m, values, RATIONAL, den))
            with pytest.raises(ClassificationInconsistency) as exc:
                _fit(bad)
            assert str(exc.value) == f"commutation holds but complex-form reconstruction fails (residual {want})"
            assert want != 0

    def test_invalid_structure_rejected(self):
        with pytest.raises(InvalidComplexStructure):
            ComplexStructure(np.array([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], dtype=object))
        with pytest.raises(InvalidComplexStructure):
            standard_complex_structure(5)


SCALES = (
    0, 1, Fraction(-7, 4), Fraction(5, 3), 6, Fraction(3, 2), Fraction(2**70 + 1, 3), -(2**63),
    Fraction(2**62 - 1, 9),
)


class TestScattered:
    """``CurvatureTensor._scattered`` against the dense build it replaced in ``r0`` and ``r_theta``:
    the numerators scattered into m^4 zeros and reduced, sized and counted by ``CurvatureTensor``."""

    @staticmethod
    def dense(m, positions, nums, den):
        values = np.zeros(m**4, nums.dtype)
        values[positions] = nums
        return CurvatureTensor(m, values.reshape((m,) * 4), RATIONAL, den)

    @staticmethod
    def assert_same(R, ref):
        assert (R.m, R.mode, R.denominator) == (ref.m, ref.mode, ref.denominator)
        assert R.values.dtype == ref.values.dtype and R.values.shape == ref.values.shape
        assert R.max_value == ref.max_value and type(R.max_value) is type(ref.max_value) is int
        assert R._nonzeros == np.count_nonzero(ref.values)
        assert R.values.ravel().tolist() == ref.values.ravel().tolist()
        if R.values.dtype == object:
            assert list(map(type, R.values.flat)) == list(map(type, ref.values.flat))
        assert not R.values.flags.writeable

    @pytest.mark.parametrize("m", range(2, 19))
    def test_r0_matches_the_dense_build(self, m):
        positions, units = _r0_pattern(m)
        for c in map(Fraction, SCALES):
            nums = exact_cast(units, abs(c.numerator)) * c.numerator
            self.assert_same(r0(m, c), self.dense(m, positions, nums, c.denominator))

    @pytest.mark.parametrize("m", range(2, 19, 2))
    def test_permuted_r_theta_matches_the_dense_build(self, m):
        # at m = 2 every standard value is +-3, so the dense build reduces what r_theta scales by 3
        standard = standard_complex_structure(m)
        for cs in (standard, conjugate_structure(standard, random_signed_permutation(m, 3))):
            for c in map(Fraction, SCALES):
                self.assert_same(r_theta(cs, c), self.dense(m, *_r_theta_pattern(cs, c)))
        assert r_theta(standard, Fraction(5, 3)).denominator == (1 if m == 2 else 3)


class TestR0Residual:
    """The exact c R0 fit, certified on R in place, against |N - s R0| taken whole."""

    @staticmethod
    def reference(R, s):
        pattern = r0(R.m, 1).values.astype(object)  # 1 at (i, j, j, i), -1 at (i, j, i, j)
        return Fraction(int(np.abs(R.values.astype(object) - pattern * int(s)).max()), R.max_value)

    @pytest.mark.parametrize("m", (2, 3, 4, 7, 10, 16))
    def test_matches_the_whole_difference(self, m):
        big = Fraction(2**70 + 1, 3)
        off = np.zeros((m,) * 4, dtype=object)
        off[0, 1, 1, 0] = off[1, 0, 0, 1] = 1  # one pattern plane moved, on Python ints
        off[0, 1, 0, 1] = off[1, 0, 1, 0] = -1
        moved = combine([(big, r0(m, 1)), (1, CurvatureTensor(m, off, RATIONAL))])
        fits = []
        for R in r0_near_misses(m) + [r0(m, big), moved]:
            s = R.values[0, 1, 1, 0]
            got = _r0_fit(R)
            fits.append(got is not None)
            if self.reference(R, s) == 0:
                assert got == (Fraction(int(s), R.denominator), None, 0) and type(got[2]) is Fraction
            else:
                assert got is None
        assert all(fits) if m == 2 else any(fits) and not all(fits)  # at m = 2 every tensor is c R0


class TestFromForm:
    def test_scaled_identity_matches_r0(self):
        phi = np.array([[Fraction(2 if i == j else 0) for j in range(3)] for i in range(3)], dtype=object)
        G = from_form(phi, RATIONAL)
        assert (G.components == r0(3, 4).components).all()

    def test_rank_one_form_gives_zero(self):
        v = np.array([Fraction(1), Fraction(2), Fraction(-1)], dtype=object)
        phi = np.outer(v, v)
        assert from_form(phi, RATIONAL).max_abs() == 0

    def test_diagonal_example(self):
        phi = np.diag([Fraction(1), Fraction(2), Fraction(3)])
        G = from_form(np.array(phi, dtype=object), RATIONAL)
        assert G.components[0, 1, 1, 0] == 2
        assert G.components[0, 2, 2, 0] == 3
        assert G.components[1, 2, 2, 1] == 6
        # everything outside the orbits of the three plane entries vanishes
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        if i != j and {i, j} == {k, l}:
                            continue
                        assert G.components[i, j, k, l] == 0


class TestRandomAct:
    def test_identity_form_recovers_r0(self):
        # k=1 with the identity form is exactly the constant-curvature tensor
        phi = np.eye(3)
        G = from_form(np.array([[Fraction(int(v)) for v in row] for row in phi], dtype=object))
        assert (G.components == r0(3, 1).components).all()

    def test_outputs_validate_exactly(self):
        for seed in range(10):
            R = random_act(4, 3, seed)
            assert validate(R.components, RATIONAL).accepted

    def test_deterministic(self):
        a = random_act(4, 3, seed=7)
        b = random_act(4, 3, seed=7)
        assert (a.components == b.components).all()

    def test_matches_combine_of_forms_from_same_draws(self):
        # oracle: replay the rng draws and sum the Gauss tensors in Fraction arithmetic
        for m, k, seed in [(2, 1, 0), (3, 2, 4), (4, 3, 7), (5, 1, 11), (6, 3, 2), (7, 4, 19)]:
            rng = np.random.default_rng(seed)
            terms = []
            for _ in range(k):
                a = rng.integers(-2, 3, size=(m, m))
                sign = int(rng.integers(0, 2) * 2 - 1)
                terms.append((sign, from_form(a + a.T, RATIONAL)))
            R = random_act(m, k, seed)
            assert R.mode == RATIONAL
            assert (R.components == combine(terms).components).all()
            assert all(type(v) is Fraction for v in R.components.reshape(-1))


class TestCombine:
    def test_cancellation(self, rtheta4):
        z = combine([(1, rtheta4), (-1, rtheta4)])
        assert z.max_abs() == 0

    def test_zero_coefficient(self, rtheta4):
        R = r0(4, Fraction(5))
        out = combine([(Fraction(5), r0(4, 1)), (0, rtheta4)])
        assert (out.components == R.components).all()

    def test_float_coefficient_is_taken_at_its_binary_value(self):
        R = random_act(4, 3, seed=2)
        got = combine([(5 / 7, R)])
        assert (got.components == R.components * Fraction(5 / 7)).all()

    def test_mode_mismatch_rejected(self, rtheta4):
        with pytest.raises(IncompatibleTensors):
            combine([(1, rtheta4), (1, rtheta4.to_float())])
        with pytest.raises(IncompatibleTensors):
            combine([(1, r0(3, 1)), (1, r0(4, 1))])


class TestApply:
    def test_r0_formula(self):
        out = apply(r0(3, 1), [1, 0, 0], [0, 1, 0], [0, 1, 0])
        assert out.tolist() == [1, 0, 0]

    def test_antisymmetry_in_first_two_slots(self):
        rng = np.random.default_rng(2)
        R = random_act(4, 2, seed=3)
        for _ in range(20):
            x = [Fraction(int(v)) for v in rng.integers(-3, 4, size=4)]
            y = [Fraction(int(v)) for v in rng.integers(-3, 4, size=4)]
            z = [Fraction(int(v)) for v in rng.integers(-3, 4, size=4)]
            fwd = apply(R, x, y, z)
            rev = apply(R, y, x, z)
            assert (fwd + rev == 0).all()
            same = apply(R, x, x, z)
            assert (same == 0).all()

    def test_rtheta_example(self, rtheta4):
        out = apply(rtheta4, [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
        assert out.tolist() == [0, 1, 0, 0]


class TestRotate:
    def test_conjugation_covariance_signed_permutations(self):
        # pullback of r_theta under q equals r_theta of the conjugated structure
        for m in (4, 6):
            cs = standard_complex_structure(m)
            for seed in range(5):
                q = random_signed_permutation(m, seed)
                c = random_fraction(np.random.default_rng(seed))
                lhs = r_theta(conjugate_structure(cs, q), c)
                rhs = rotate(r_theta(cs, c), q)
                assert (lhs.components == rhs.components).all()


class TestMetricIngestion:
    def test_constant_curvature_survives_frame_change(self):
        # express r0(4, 3) in a skewed frame with Gram matrix P^T P, reduce
        # back to an orthonormal frame, and recover the same classification
        from actlab import classify, from_metric_components, validate

        rng = np.random.default_rng(31)
        R = r0(4, 3).to_float()
        p = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        raw = R.components
        for axis in range(4):
            raw = np.moveaxis(np.tensordot(p.T, raw, axes=([1], [axis])), 0, axis)
        gram = p.T @ p
        reduced = from_metric_components(raw, gram)
        assert validate(reduced.components, reduced.mode).accepted
        res = classify(reduced)
        assert res.tag == "ConstantCurvature"
        assert abs(float(res.c) - 3.0) <= 1e-8

    def test_rejects_indefinite_gram(self):
        from actlab import InvalidOperator, from_metric_components

        raw = r0(3, 1).to_float().components
        with pytest.raises(InvalidOperator):
            from_metric_components(raw, np.diag([1.0, -1.0, 1.0]))


class TestDimensionBelowTwo:
    """Every constructor refuses m < 2, as ``load_tensor`` does, so every tensor built saves and loads again."""

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_form_of_dimension_one(self, mode):
        with pytest.raises(InvalidDimension):
            from_form([[2]], mode)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_direct_construction(self, m, mode):
        with pytest.raises(InvalidDimension):
            CurvatureTensor(m, np.zeros((m,) * 4, dtype=np.int64 if mode.exact else float), mode)

    def test_every_constructor(self):
        builds = [
            lambda: r0(1, 1),
            lambda: r0(0, 1, FLOAT),
            lambda: random_act(1, 2, seed=0),
            lambda: random_act(0, 2, seed=0, mode=FLOAT),
            lambda: from_metric_components(np.ones((1, 1, 1, 1)), [[1.0]]),
        ]
        for build in builds:
            with pytest.raises(InvalidDimension):
                build()


class TestNegativeDimension:
    """A negative m raises the actlab error that m = 0 raises, before anything of size m exists."""

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_tensor_constructors(self, mode):
        for m in (-1, -2, 0, 1):
            for build in (lambda: r0(m, 1, mode), lambda: random_act(m, 2, 0, mode)):
                with pytest.raises(InvalidDimension, match=r"^curvature tensors need dimension m >= 2$"):
                    build()
        # the generator count is checked first, as it was
        with pytest.raises(InvalidDimension, match="need at least one generator"):
            random_act(-1, 0, 0, mode)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_complex_structure(self, mode):
        for m in (-2, 0):
            with pytest.raises(InvalidComplexStructure, match=r"^complex structures need dimension m >= 2$"):
                standard_complex_structure(m, mode)
        for m in (-1, 1):
            with pytest.raises(InvalidComplexStructure, match=r"^complex structures exist only in even dimensions$"):
                standard_complex_structure(m, mode)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_signed_permutation(self, mode):
        with pytest.raises(InvalidDimension, match=r"^signed permutations need dimension m >= 0$"):
            random_signed_permutation(-1, 0, mode)
        empty = random_signed_permutation(0, 0, mode)
        assert empty.shape == (0, 0) and empty.dtype == (np.int64 if mode.exact else float)
        one = random_signed_permutation(1, 3, mode)
        assert one.shape == (1, 1) and abs(one[0, 0]) == 1
        assert type(one[0, 0]) is (np.int64 if mode.exact else np.float64)


class TestConstructorValidation:
    def test_all_corpus_tensors_validate_exactly(self):
        from conftest import build_corpus

        for R in build_corpus(30, seed=404):
            report = validate(R.components, RATIONAL)
            assert report.accepted
            assert all(v == 0 for v in report.violations.values())


def rational_rotation(m):
    """The 3/5, 4/5 rotation in the (e_1, e_2) plane, identity elsewhere.

    The plane straddles two planes of the standard complex structure, so
    conjugating by it gives a structure with denominators.
    """
    q = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    q[1][1], q[1][2], q[2][1], q[2][2] = (Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
    return np.array(q, dtype=object)


def reference(m, entry):
    """Entry-by-entry Fraction array from a component formula."""
    out = np.empty((m,) * 4, dtype=object)
    for idx in np.ndindex(*out.shape):
        out[idx] = Fraction(entry(*idx))
    return out


def assert_reduced_exact(R, ref):
    """components match the reference, and values / denominator is reduced."""
    comps = R.components
    assert all(type(v) is Fraction for v in comps.reshape(-1))
    assert (comps == ref).all()
    assert R.denominator > 0 and gcd(R.denominator, *R.values.reshape(-1).tolist()) == 1
    assert R.denominator == lcm(*(v.denominator for v in comps.reshape(-1)))


class TestExactStorage:
    def test_r0_against_formula(self):
        for m, c in [(3, Fraction(5, 3)), (4, Fraction(-7, 2)), (5, 0), (4, 6)]:
            d = lambda a, b: int(a == b)  # noqa: E731
            ref = reference(m, lambda i, j, k, l: c * (d(j, k) * d(i, l) - d(i, k) * d(j, l)))
            assert_reduced_exact(r0(m, c), ref)

    def test_r_theta_on_conjugated_structure_against_formula(self):
        cs = conjugate_structure(standard_complex_structure(4), rational_rotation(4))
        th, c = cs.theta, Fraction(-3, 7)
        assert any(v.denominator == 5 for v in th.reshape(-1))
        ref = reference(
            4,
            lambda i, j, k, l: c
            * (th[k, j] * th[l, i] - th[k, i] * th[l, j] - 2 * th[j, i] * th[l, k]),
        )
        assert_reduced_exact(r_theta(cs, c), ref)

    def test_from_form_rational_phi_against_formula(self):
        phi = np.array(
            [[Fraction(1, 2), Fraction(2, 3), 0], [Fraction(2, 3), -3, Fraction(1, 6)], [0, Fraction(1, 6), 5]],
            dtype=object,
        )
        ref = reference(3, lambda i, j, k, l: phi[i, l] * phi[j, k] - phi[i, k] * phi[j, l])
        assert_reduced_exact(from_form(phi, RATIONAL), ref)

    def test_from_form_checks_symmetry_on_numerators(self):
        # phi[0, 1] = 1/2 and phi[1, 0] = 1/3 share the numerator 1
        phi = np.array(
            [
                [1, Fraction(1, 2), 0],
                [Fraction(1, 3), Fraction(5, 4), Fraction(1, 6)],
                [0, Fraction(1, 6), Fraction(-2, 7)],
            ],
            dtype=object,
        )
        for form in (phi, phi.T):
            with pytest.raises(InvalidOperator, match="the form must be symmetric"):
                from_form(form, RATIONAL)
        phi[1, 0] = Fraction(3, 6)
        ref = reference(3, lambda i, j, k, l: phi[i, l] * phi[j, k] - phi[i, k] * phi[j, l])
        R = from_form(phi, RATIONAL)
        assert_reduced_exact(R, ref)
        assert R.values.dtype == np.int64 and R.denominator == 252

    def test_int64_min_numerator_is_stored_as_a_python_int(self):
        v = np.zeros((3,) * 4, dtype=np.int64)
        v[0, 1, 1, 0] = -(2**63)
        R = CurvatureTensor(3, v, RATIONAL)
        assert (R.max_value, R.denominator, R.values.dtype) == (2**63, 1, np.dtype(object))
        assert not R.is_zero() and R.max_abs() == 2**63
        assert R.components[0, 1, 1, 0] == -(2**63) and type(R.values[0, 1, 1, 0]) is int

    def test_random_act_against_replayed_draws(self):
        m, k, seed = 4, 3, 9
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(k):
            a = rng.integers(-2, 3, size=(m, m))
            terms.append((int(rng.integers(0, 2) * 2 - 1), a + a.T))
        ref = reference(
            m,
            lambda i, j, k, l: sum(
                s * (int(p[i, l]) * int(p[j, k]) - int(p[i, k]) * int(p[j, l])) for s, p in terms
            ),
        )
        R = random_act(m, k, seed)
        assert R.values.dtype == np.int64
        assert_reduced_exact(R, ref)

    def test_random_act_is_the_sum_of_its_generators(self):
        # the one G = sum s_k phi_k (x) phi_k product against a sum of one Gauss tensor per generator
        for m in range(2, 13):
            for k in (1, 2, 3, 5):
                for seed in (0, 1, 7):
                    rng = np.random.default_rng(seed)
                    total = np.zeros((m,) * 4, dtype=np.int64)
                    for _ in range(k):
                        a = rng.integers(-2, 3, size=(m, m))
                        sign = int(rng.integers(0, 2) * 2 - 1)
                        total = total + _gauss_components(a + a.T) * sign
                    R = random_act(m, k, seed)
                    assert R.values.dtype == np.int64 and R.denominator == 1
                    assert np.array_equal(R.values, total)

    def test_combine_rational_coefficients_against_formula(self, rtheta4):
        a, b = Fraction(3, 4), Fraction(-5, 6)
        R0, RT = r0(4, Fraction(2, 3)).components, rtheta4.components
        ref = reference(4, lambda *idx: a * R0[idx] + b * RT[idx])
        assert_reduced_exact(combine([(a, r0(4, Fraction(2, 3))), (b, rtheta4)]), ref)

    def test_rotate_rational_orthogonal_against_formula(self):
        q = rational_rotation(4)
        R = combine([(Fraction(1, 3), r0(4, 1)), (2, random_act(4, 2, seed=5))])
        comps = R.components
        rng = range(4)
        ref = reference(
            4,
            lambda i, j, k, l: sum(
                q[i, a] * q[j, b] * q[k, c] * q[l, d] * comps[a, b, c, d]
                for a in rng
                for b in rng
                for c in rng
                for d in rng
                if comps[a, b, c, d] != 0
            ),
        )
        assert_reduced_exact(rotate(R, q), ref)

    def test_entries_past_2_62_store_python_ints(self):
        R = combine([(2**62 + 1, r0(3, 1))])
        assert R.values.dtype == object
        assert all(type(v) is int for v in R.values.reshape(-1))
        assert R.max_abs() == 2**62 + 1
        assert combine([(2**62 - 1, r0(3, 1))]).values.dtype == np.int64

    def test_to_float_rounds_as_float_of_fraction(self):
        # numerators past 2^53 over denominator 3, as int64 and as Python ints;
        # rounding a numerator to float before dividing would round twice
        rng = np.random.default_rng(6)
        for scale, dtype in ((1, np.int64), (2**9, object)):
            nums = [int(v) * scale + 1 for v in rng.integers(2**53, 2**61, size=256)]
            R = CurvatureTensor(4, np.array(nums, dtype=object).reshape((4,) * 4), RATIONAL, 3)
            assert R.denominator == 3 and R.values.dtype == dtype
            got = R.to_float().components.reshape(-1)
            assert got.dtype == float and got.tolist() == [float(v) for v in R.components.reshape(-1)]
        R = combine([(Fraction(1, 7), random_act(4, 3, seed=2))])
        assert R.to_float().components.reshape(-1).tolist() == [float(v) for v in R.components.reshape(-1)]

    def test_r0_scatter_matches_the_gauss_tensor_of_the_identity(self):
        # reference: the outer-product Gauss tensor of the identity times c,
        # int64 numerators, or Python ints where c's numerator reaches 2^62
        for m in range(2, 17):
            g = _gauss_components(np.eye(m, dtype=np.int64))
            for c in (0, 1, Fraction(-5, 3), Fraction(2**70 + 1, 3)):
                c = Fraction(c)
                ref = exact_cast(g, max(abs(c.numerator), 1))
                R = r0(m, c)
                assert R.values.dtype == ref.dtype == (object if c.numerator >= 2**62 else np.int64)
                assert R.denominator == c.denominator
                assert np.array_equal(R.values, ref * c.numerator)
                F = r0(m, float(c), FLOAT)
                want = _gauss_components(np.eye(m)) * float(c)
                assert F.values.dtype == np.float64
                assert np.array_equal(F.values, want) and np.array_equal(np.signbit(F.values), np.signbit(want))


class TestOwnedValues:
    @staticmethod
    def tensors(tmp_path):
        """Tensors from every constructor, combine, rotate, to_float and load_tensor, both modes."""
        cs = conjugate_structure(standard_complex_structure(4), random_signed_permutation(4, 3))
        q = rational_rotation(4)
        out = [
            r0(4, Fraction(-5, 3)),
            r0(3, 0),
            r0(4, Fraction(2**70 + 1, 3)),
            r_theta(cs, Fraction(7, 4)),
            from_form(np.diag([1, 2, -3]).astype(object), RATIONAL),
            random_act(5, 2, seed=4),
            combine([(Fraction(1, 3), r0(4, 1)), (2, r_theta(cs, 1))]),
            combine([(1, r0(4, 1)), (-1, r0(4, 1))]),
            rotate(r0(4, Fraction(2, 3)), q),
            CurvatureTensor(2, np.zeros((2,) * 4, dtype=np.int64), RATIONAL, 6),
        ]
        out += [R.to_float() for R in out]
        out += [
            r0(4, -2.5, FLOAT),
            r0(3, -0.0, FLOAT),
            r_theta(standard_complex_structure(4, FLOAT), 1.5),
            random_act(4, 2, seed=1, mode=FLOAT),
            rotate(random_act(4, 2, seed=1, mode=FLOAT), random_signed_permutation(4, 2, FLOAT)),
            from_metric_components(r0(3, 2, FLOAT).values, np.diag([1.0, 4.0, 9.0])),
        ]
        for k, R in enumerate(list(out)):
            path = tmp_path / f"t{k}.json"
            save_tensor(R, path, "dense" if k % 2 else "sparse")
            out.append(load_tensor(path))
        return out

    def test_max_abs_and_is_zero_read_the_values(self, tmp_path):
        for R in self.tensors(tmp_path):
            top = max_abs(R.values)
            assert R.max_abs() == (Fraction(int(top), R.denominator) if R.mode.exact else top)
            assert type(R.max_abs()) is type(Fraction(0) if R.mode.exact else top)
            assert R.is_zero() is (not R.values.any())

    def test_values_are_read_only(self, tmp_path):
        for R in self.tensors(tmp_path):
            with pytest.raises(ValueError):
                R.values[(0,) * 4] = 1
            with pytest.raises(ValueError):
                R.values[-1, -1] += 1  # a slice is a read-only view too
            assert not R.values.flags.writeable

    def test_the_callers_array_stays_writable(self):
        for a, mode in ((np.zeros((3,) * 4, dtype=np.int64), RATIONAL), (np.zeros((3,) * 4), FLOAT)):
            CurvatureTensor(3, a, mode)
            a[0, 1, 1, 0] = 1


class TestValueChecks:
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3), (3, 3, 3, 3, 1)])
    def test_values_of_the_wrong_shape(self, mode, shape):
        # a (2,)^4 array at m = 3 used to construct, then fail inside tsankov_test
        # with numpy's IndexError
        with pytest.raises(InvalidShape, match=r"m = 3 tensor needs shape \(3, 3, 3, 3\)"):
            CurvatureTensor(3, np.zeros(shape, dtype=np.int64 if mode.exact else float), mode)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float_values_must_be_finite(self, bad):
        # NaN entries used to be decided: holds=false with comm_norm=nan
        v = r0(3, 1, FLOAT).values.copy()
        v[0, 1, 1, 0] = bad
        with pytest.raises(DegenerateInput, match="must be finite"):
            CurvatureTensor(3, v, FLOAT)

    def test_float_contractions_past_the_float_range(self):
        # J(x) of 1e300 R0 at x = 1e200 e_0 overflows, and inf - inf used to reach the
        # symmetry check as NaN and raise a misleading InvalidOperator
        R, x = r0(3, 1e300, FLOAT), [1e200, 0, 0]
        calls = [
            lambda: jacobi(R, x), lambda: jacobi_rank(R, x), lambda: jacobi_polarized(R, x, [0, 1, 0]),
            lambda: apply(R, x, [0, 1, 0], [0, 1, 0]),
            lambda: find_commuting_partner(r_theta(standard_complex_structure(4, FLOAT), 1), [np.nan, 1, 0, 0]),
        ]
        for call in calls:
            with pytest.raises(DegenerateInput, match="passes the float range"):
                call()
        assert np.isfinite(jacobi(R, [1e-100, 0, 0])).all()

    def test_values_that_do_not_convert(self):
        # exact conversions of a NaN, an infinity or a malformed string used to
        # escape as OverflowError and ValueError, outside ActError
        R = r0(4, 1)
        calls = [
            lambda: r0(3, np.inf), lambda: combine([(np.inf, R)]),
            lambda: jacobi(R, [np.nan, 1, 1, 1]), lambda: jacobi(R, ["a", 1, 1, 1]),
        ]
        for call in calls:
            with pytest.raises(DegenerateInput):
                call()

    def test_exact_values_past_the_float_range(self):
        R = r0(3, 10**400)
        for convert in (R.to_float, lambda: validate(R, FLOAT), lambda: float_array(R.components)):
            with pytest.raises(DegenerateInput, match="passes the float range"):
                convert()
        big = np.array([Fraction(10**400, 3), 1], dtype=object)
        with pytest.raises(DegenerateInput):
            float_array(big)
        assert float_array(big[::-1] / 10**100).tolist() == [1e-100, float(Fraction(10**300, 3))]
        assert float_array(np.arange(4).reshape(2, 2), 3).tolist() == [[0.0, 1 / 3], [2 / 3, 1.0]]
