"""Classification roundtrips, structure recovery, and spectral diagnostics."""

from fractions import Fraction

import numpy as np
import pytest

from actlab import (
    FLOAT,
    RATIONAL,
    ClassificationInconsistency,
    CurvatureTensor,
    DegenerateInput,
    NotRankOne,
    OssermanReport,
    StructureViolation,
    UnsupportedDimension,
    block_structure,
    classify,
    combine,
    conjugate_structure,
    find_commuting_partner,
    from_form,
    jacobi,
    jacobi_rank,
    osserman_check,
    r0,
    r_theta,
    random_act,
    random_signed_permutation,
    recover_complex_structure,
    rotate,
    standard_complex_structure,
    structure_report,
    tsankov_test,
    w_space,
)
from actlab.scalars import DEFAULT_TOL, float_mode, max_abs, negligible

from conftest import build_corpus, quaternion_tensor, random_fraction


def diag_form(entries):
    m = len(entries)
    return np.array(
        [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(m)] for i in range(m)],
        dtype=object,
    )


class TestClassify:
    def test_constant_curvature_roundtrip(self):
        res = classify(r0(4, 5))
        assert res.tag == "ConstantCurvature"
        assert res.c == 5 and res.residual == 0

    def test_int64_min_entry_is_not_zero(self):
        # one entry -2^63 once read as max |R| = 0, so classify answered Zero; its J(x) are all
        # multiples of one matrix, so they commute, and no c R0 fits
        v = np.zeros((3,) * 4, dtype=np.int64)
        v[0, 1, 1, 0] = -(2**63)
        R = CurvatureTensor(3, v, RATIONAL)
        assert tsankov_test(R).holds
        with pytest.raises(ClassificationInconsistency, match=r"reconstruction fails \(residual 1\)"):
            classify(R)

    def test_complex_form_roundtrip(self, std4):
        res = classify(r_theta(std4, 2))
        assert res.tag == "ComplexForm"
        assert res.c == 2 and res.residual == 0
        # recovered structure is the standard one up to overall sign,
        # canonicalized to +
        assert (res.theta.theta == std4.theta).all()

    def test_mix_not_tsankov(self, mix4):
        res = classify(mix4)
        assert res.tag == "NotTsankov"
        assert np.dot(res.witness.x, res.witness.y) == 0
        assert res.witness.commutator_norm > 0
        # the verdict must not depend on scale (1e-5 to 1e-8 once raised
        # ClassificationInconsistency)
        for lam in (1.0, 1e-5, 1e-6, 1e-8):
            res = classify(combine([(lam, mix4.to_float())]))
            assert res.tag == "NotTsankov"
            assert abs(np.dot(res.witness.x, res.witness.y)) <= 1e-12

    def test_zero(self):
        res = classify(combine([(0, r0(4, 1))]))
        assert res.tag == "Zero" and res.residual == 0

    def test_low_dimension_rejected(self):
        with pytest.raises(UnsupportedDimension):
            classify(r0(2, 1))

    def test_scale_equivariance(self):
        base = {
            "ConstantCurvature": r0(5, Fraction(3, 2)),
            "ComplexForm": r_theta(standard_complex_structure(4), Fraction(-2, 3)),
        }
        for tag, R in base.items():
            c0 = classify(R).c
            for t in (Fraction(-2), Fraction(1, 3), Fraction(7)):
                res = classify(combine([(t, R)]))
                assert res.tag == tag
                assert res.c == t * c0
            # float copies keep their tag at any scale; 1e-12 used to read as Zero
            for lam in (1e-12, 1e-8, 1e8):
                res = classify(combine([(lam, R.to_float())]))
                assert res.tag == tag
                assert abs(res.c - lam * float(c0)) <= 1e-9 * abs(lam * float(c0))

    def test_roundtrip_completeness_on_corpus(self, corpus200):
        # every commutation-closed nonzero tensor lands in one of the two
        # reconstructive classes with exactly zero residual
        for R in corpus200[:120]:
            if R.m < 3:
                continue
            verdict = tsankov_test(R, "exact")
            if not verdict.holds or R.max_abs() == 0:
                continue
            res = classify(R)
            assert res.tag in ("ConstantCurvature", "ComplexForm")
            assert res.residual == 0

    def test_odd_dimension_corollary(self):
        # nonzero commutation-closed tensors in odd dimension are all
        # constant-curvature; no complex form exists
        for m in (3, 5):
            for seed in range(10):
                c = random_fraction(np.random.default_rng(seed))
                res = classify(r0(m, c))
                assert res.tag == "ConstantCurvature"


class TestRecover:
    def test_standard_structure(self, std4):
        c, cs = recover_complex_structure(r_theta(std4, 1))
        assert c == 1
        assert (cs.theta == std4.theta).all()

    def test_conjugated_roundtrip(self):
        for m in (4, 6, 8):
            base = standard_complex_structure(m)
            for seed in range(5):
                q = random_signed_permutation(m, seed)
                cs = conjugate_structure(base, q)
                R = r_theta(cs, 3)
                c_hat, cs_hat = recover_complex_structure(R)
                assert c_hat == 3
                th = cs_hat.theta
                eye = np.array(
                    [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)],
                    dtype=object,
                )
                assert (th + th.T == 0).all()
                assert (np.dot(th, th) + eye == 0).all()
                assert (r_theta(cs_hat, c_hat).components == R.components).all()

    def test_sign_canonicalization(self, std4):
        # the tensor is even in Theta, so -Theta gives the same tensor and
        # recovery must return the canonical representative
        minus = conjugate_structure(std4, -np.eye(4, dtype=object) * Fraction(-1))
        R_plus = r_theta(std4, 1)
        c, cs = recover_complex_structure(R_plus)
        first_nonzero = next(v for v in cs.theta[:, 0] if v != 0)
        assert first_nonzero > 0

    def test_constant_curvature_rejected(self):
        with pytest.raises(NotRankOne):
            recover_complex_structure(r0(4, 1))

    def test_odd_dimension_rejected(self):
        with pytest.raises(UnsupportedDimension):
            recover_complex_structure(r0(5, 1))

    def test_float_mode_recovery(self, std4):
        R = r_theta(std4, 2).to_float()
        c, cs = recover_complex_structure(R)
        assert abs(c - 2) <= 1e-12
        assert np.abs(np.asarray(cs.theta, dtype=float) - np.asarray(std4.theta, dtype=float)).max() <= 1e-12
        # densely rotated structures with c < 0, and Theta = S / sqrt 2 of the quaternion tensor
        cases = []
        for m in (6, 8):
            q = np.linalg.qr(np.random.default_rng(m).standard_normal((m, m)))[0]
            cases.append((r_theta(conjugate_structure(standard_complex_structure(m, FLOAT), q), -1.5), -1.5))
        cases.append((quaternion_tensor().to_float(), 1.0))
        for R, want in cases:
            c, cs = recover_complex_structure(R)
            assert abs(c - want) <= 1e-12
            rebuilt = r_theta(cs, c)
            assert np.abs(rebuilt.values - R.values).max() <= 1e-12 * np.abs(R.values).max()
            w = cs.theta[:, 0]  # Theta e_0, since every J(e_p) has rank one
            assert w[np.abs(w) > 1e-9][0] > 0


    @pytest.mark.parametrize("m", (4, 6))
    def test_float_recovery_at_the_ends_of_the_float_range(self, m):
        # the probe and the recovery run on 2^-e R, so s n[k,k] neither overflows to an all-zero
        # w nor underflows to a NaN Theta; c comes back as it went in, and Theta as at c = 1
        cs = standard_complex_structure(m, FLOAT)
        if m == 6:
            cs = conjugate_structure(cs, random_signed_permutation(m, 3, FLOAT))
        want = recover_complex_structure(r_theta(cs, 1.0))[1].values
        for c in (1e-200, 1e150, 1e160, 1e300):
            got_c, got = recover_complex_structure(r_theta(cs, c))
            assert got_c == c and got.values.tobytes() == want.tobytes()


class TestOsserman:
    def test_r0(self):
        rep = osserman_check(r0(5, 2), n_samples=50, seed=1)
        assert rep.is_osserman
        assert np.allclose(rep.reference_spectrum, [0, 2, 2, 2, 2])

    def test_rtheta(self, std4):
        rep = osserman_check(r_theta(std4, 2), n_samples=50, seed=1)
        assert rep.is_osserman
        assert np.allclose(rep.reference_spectrum, [0, 0, 0, 6])

    def test_gauss_diag_not_osserman(self):
        # oracle: J(e1) = diag(0,2,3) vs J(e3) = diag(3,6,0); sorted spectra differ
        R = from_form(diag_form([1, 2, 3]), RATIONAL)
        j1 = jacobi(R, [1, 0, 0])
        j3 = jacobi(R, [0, 0, 1])
        assert sorted(float(v) for v in np.diag(j1)) == [0.0, 2.0, 3.0]
        assert sorted(float(v) for v in np.diag(j3)) == [0.0, 3.0, 6.0]
        rep = osserman_check(R, n_samples=100, seed=2)
        assert not rep.is_osserman

    @staticmethod
    def reference_osserman(R, n_samples, seed):
        """The check as it was written with its own contraction: an einsum on
        the float components, at the tensor's tolerance or DEFAULT_TOL."""
        tol = R.mode.tol if not R.mode.exact else DEFAULT_TOL
        comps = R.float_components()
        rng = np.random.default_rng(seed)
        reference = None
        max_dev = 0.0
        for _ in range(n_samples):
            x = rng.standard_normal(R.m)
            x /= np.linalg.norm(x)
            spec = np.linalg.eigvalsh(np.einsum("i,j,bija->ab", x, x, comps))
            if reference is None:
                reference = spec
            else:
                max_dev = max(max_dev, float(np.abs(spec - reference).max()))
        ok = negligible(max_dev, float_mode(tol), max_abs(reference))
        return OssermanReport(bool(ok), tuple(float(v) for v in reference), max_dev, n_samples)

    def test_matches_the_einsum_reference(self, std4):
        tensors = build_corpus(24, seed=31) + [r_theta(std4, 2), quaternion_tensor()]
        tensors += [R.to_float() for R in tensors]
        tensors.append(combine([(1e-7, random_act(5, 3, seed=2).to_float())]))
        for k, R in enumerate(tensors):
            got = osserman_check(R, n_samples=12, seed=k)
            want = self.reference_osserman(R, 12, k)
            assert repr(got) == repr(want), k  # field by field, to the bit


class TestStructureReport:
    def test_r0_concentrated_at_full_rank(self):
        rep = structure_report(r0(4, 1), n_samples=20, seed=0)
        assert rep.rank_histogram == {3: 20}
        assert rep.tsankov_holds
        assert rep.two_eigenvalue_ok is None  # maximal rank: check not applicable
        assert all(d == 4 for d in rep.w_dims)

    def test_rtheta_rank_one_everywhere(self, std4):
        rep = structure_report(r_theta(std4, 1), n_samples=20, seed=0)
        assert rep.rank_histogram == {1: 20}
        assert rep.tsankov_holds
        assert rep.two_eigenvalue_ok is True
        for spec in rep.spectra:
            assert np.allclose(sorted(spec), [0, 0, 0, 3], atol=1e-9)

    def test_random_act_skips_two_eigenvalue_check(self):
        rep = structure_report(random_act(4, 3, seed=7), n_samples=12, seed=1)
        assert not rep.tsankov_holds
        assert rep.two_eigenvalue_ok is None


    def test_float_two_eigenvalue_check(self):
        # a float rank below m - 1 runs the check on each sampled spectrum: zero and one repeated value
        cs6 = conjugate_structure(standard_complex_structure(6, FLOAT), random_signed_permutation(6, 3, FLOAT))
        for R in (r_theta(standard_complex_structure(4, FLOAT), 1.5), r_theta(cs6, -0.75)):
            rep = structure_report(R, n_samples=20, seed=0)
            assert rep.rank_histogram == {1: 20}
            assert rep.tsankov_holds and rep.two_eigenvalue_ok is True
        rep = structure_report(r0(5, 1, FLOAT), n_samples=20, seed=0)
        assert rep.tsankov_holds and rep.two_eigenvalue_ok is None  # maximal rank
        mix = combine([(1, r0(4, 1)), (1, r_theta(standard_complex_structure(4), 1))]).to_float()
        rep = structure_report(mix, n_samples=20, seed=0)
        assert not rep.tsankov_holds and rep.two_eigenvalue_ok is None

    def test_float_ranks_count_the_reported_spectrum(self):
        # J(x) = c1 (I - x x^T) + (1 - c1) (Theta x)(Theta x)^T for unit x: the
        # eigenvalue c1 sits at tol * max|eigenvalue| up to rounding, so only
        # one decomposition gives a rank and a spectrum that agree
        m, c1 = 4, DEFAULT_TOL * (1 + 1e-8)
        A, B = r0(m, 1).to_float(), r_theta(standard_complex_structure(m), 1).to_float()
        R = combine([(c1, A), ((1 - c1) / 3, B)])
        ranks = set()
        for seed in range(5):
            rep = structure_report(R, n_samples=20, seed=seed)
            for r, spectrum in zip(rep.ranks, rep.spectra):
                vals = np.array(spectrum)
                assert r == np.count_nonzero(~negligible(vals, R.mode, max_abs(vals))), seed
                ranks.add(r)
        assert ranks == {1, 2, 3}


class TestSimilarSpectraInWSpace:
    def test_jacobi_spectrum_constant_over_w_space(self, std4):
        # for unit w inside span{x} + range J(x), the operator J(w) has the
        # same spectrum as J(x); spot-checked through sorted float spectra
        from actlab import w_space

        R = r_theta(std4, Fraction(3, 2))
        x = np.array([Fraction(1), Fraction(0), Fraction(0), Fraction(0)], dtype=object)
        basis = w_space(R, x)
        ref = sorted(np.linalg.eigvalsh(jacobi(R, x).astype(float)))
        rng = np.random.default_rng(77)
        for _ in range(10):
            t = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6)))
            cos = (1 - t * t) / (1 + t * t)
            sin = 2 * t / (1 + t * t)
            w = cos * basis[0] + sin * basis[1]
            assert np.dot(w, w) == 1
            spec = sorted(np.linalg.eigvalsh(jacobi(R, w).astype(float)))
            assert np.allclose(spec, ref, atol=1e-10)


class TestCommutingPartner:
    def test_partner_properties_exact(self):
        R = r_theta(standard_complex_structure(6), Fraction(5, 4))
        from actlab import random_rational_unit_vector

        for seed in range(8):
            x = random_rational_unit_vector(6, seed)
            y = find_commuting_partner(R, x, seed=seed)
            assert np.dot(y, y) == 1
            assert np.dot(x, y) == 0
            assert (np.dot(jacobi(R, x), y) == 0).all()

    def test_partner_properties_float(self, std4):
        R = r_theta(std4, 2).to_float()
        x = np.array([1.0, 0, 0, 0])
        y = find_commuting_partner(R, x, seed=3)
        assert abs(y @ y - 1) <= 1e-12
        assert abs(x @ y) <= 1e-12
        assert np.abs(jacobi(R, x) @ y).max() <= 1e-9

    def test_float_partner_decomposes_j_once(self, std4, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        R = r_theta(std4, 2).to_float()
        x = np.array([0.6, 0.8, 0, 0])
        y = find_commuting_partner(R, x, seed=1)
        assert len(calls) == 1
        assert abs(x @ y) <= 1e-12 and np.abs(jacobi(R, x) @ y).max() <= 1e-9

    def test_threshold_family_shares_one_split(self):
        """An eigenvalue of J(x) at tol * max|eigenvalue|, where rounding decides
        the split: the rank, the W-space and the partner must all agree on it."""
        partners = degenerate = 0
        for seed in range(400):
            q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
            R = rotate(from_form(np.diag([1.0, 1.0, 1e-9])), q)
            x = q[:, 0]
            basis = w_space(R, x)
            assert len(basis) == 1 + jacobi_rank(R, basis[0]), seed
            try:
                y = find_commuting_partner(R, x, seed=seed)
            except DegenerateInput:
                degenerate += 1
                continue
            partners += 1
            j = jacobi(R, x)
            assert abs(y @ y - 1) <= 1e-12 and abs(x @ y) <= 1e-12, seed
            assert np.abs(j @ y).max() <= 1e-9 * np.abs(np.linalg.eigvalsh(j)).max(), seed
            try:
                block_structure(R, x, y)
            except StructureViolation:
                pass  # the pair is accepted; the verdict is that R is not Jacobi-Tsankov
        assert partners and degenerate

    def test_no_partner_for_r0(self):
        from actlab import DegenerateInput

        with pytest.raises(DegenerateInput):
            find_commuting_partner(r0(4, 1), [1, 0, 0, 0], seed=0)
