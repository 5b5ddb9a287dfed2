"""Constructors, the symmetry validator, and the curvature operator action."""

from fractions import Fraction

import numpy as np
import pytest

from actlab import (
    FLOAT,
    RATIONAL,
    IncompatibleTensors,
    InvalidComplexStructure,
    InvalidShape,
    apply,
    combine,
    conjugate_structure,
    eig_selfadjoint,
    from_form,
    jacobi,
    r0,
    r_theta,
    random_act,
    random_signed_permutation,
    random_unit_vector,
    rotate,
    standard_complex_structure,
    validate,
)
from actlab.tensors import ComplexStructure

from conftest import random_fraction


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

    def test_invalid_structure_rejected(self):
        with pytest.raises(InvalidComplexStructure):
            ComplexStructure(np.array([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], dtype=object))
        with pytest.raises(InvalidComplexStructure):
            standard_complex_structure(5)


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


class TestConstructorValidation:
    def test_all_corpus_tensors_validate_exactly(self):
        from conftest import build_corpus

        for R in build_corpus(30, seed=404):
            report = validate(R.components, RATIONAL)
            assert report.accepted
            assert all(v == 0 for v in report.violations.values())
