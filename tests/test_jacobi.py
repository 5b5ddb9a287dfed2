"""Jacobi operators, polarization identities, ranks, and the block frame."""

from fractions import Fraction
from importlib import import_module

import numpy as np
import pytest

from actlab import (
    RATIONAL,
    CurvatureTensor,
    DegenerateInput,
    NotRankOne,
    PreconditionFailed,
    block_structure,
    combine,
    conjugate_structure,
    find_commuting_partner,
    from_form,
    jacobi,
    jacobi_polarized,
    jacobi_rank,
    r0,
    r_theta,
    random_act,
    random_rational_unit_vector,
    recover_complex_structure,
    random_signed_permutation,
    ricci,
    rotate,
    standard_complex_structure,
    w_space,
)
from actlab import scalars
from actlab.errors import InvalidOperator
from actlab.jacobi import _projector_scale, _range_orthonormal
from actlab.scalars import (
    _eigensplit_float,
    _pivot_columns,
    eye,
    float_mode,
    max_abs,
    negligible,
    orthocomplement_basis,
    orthonormalize_exact,
    rank_with_mode,
)

from conftest import build_corpus

jacobi_module = import_module("actlab.jacobi")  # the package's ``jacobi`` is the function


def frac_vec(entries):
    return np.array([Fraction(v) for v in entries], dtype=object)


class TestJacobi:
    def test_r0_at_basis_vector(self):
        assert jacobi(r0(3, 1), [1, 0, 0]).tolist() == [[0, 0, 0], [0, 1, 1 - 1], [0, 0, 1]]

    def test_rtheta_at_basis_vector(self, rtheta4):
        J = jacobi(rtheta4, [1, 0, 0, 0])
        assert J[1, 1] == 3
        assert sum(1 for a in range(4) for b in range(4) if J[a, b] != 0) == 1

    def test_sum_tensor(self, mix4):
        J = jacobi(mix4, [1, 0, 0, 0])
        assert J.tolist() == np.diag([0, 4, 1, 1]).tolist()

    def test_annihilates_x_on_corpus(self):
        rng = np.random.default_rng(0)
        for R in build_corpus(25, seed=77):
            for _ in range(20):
                x = frac_vec([int(v) for v in rng.integers(-4, 5, size=R.m)])
                assert (np.dot(jacobi(R, x), x) == 0).all()

    def test_symmetric_and_quadratic(self):
        R = random_act(5, 2, seed=9)
        x = frac_vec([1, -2, 0, 3, 1])
        J = jacobi(R, x)
        assert (J == J.T).all()
        assert (jacobi(R, 3 * x) == 9 * J).all()


class TestPolarized:
    def test_r0_half_identity(self):
        # J(x,y)y = -J(y)x / 2 at x = e1, y = e2, where J(e2) e1 = e1
        J = jacobi_polarized(r0(3, 1), [1, 0, 0], [0, 1, 0])
        assert np.dot(J, frac_vec([0, 1, 0])).tolist() == [Fraction(-1, 2), 0, 0]

    def test_diagonal_recovers_jacobi(self):
        R = random_act(4, 3, seed=21)
        x = frac_vec([2, -1, 1, 3])
        assert (jacobi_polarized(R, x, x) == jacobi(R, x)).all()

    def test_rtheta_pair_example(self, rtheta4):
        # z -> (3/2)(<z,e4> e2 + <z,e2> e4)
        J = jacobi_polarized(rtheta4, [1, 0, 0, 0], [0, 0, 1, 0])
        expected = np.zeros((4, 4), dtype=object)
        expected.fill(Fraction(0))
        expected[1, 3] = Fraction(3, 2)
        expected[3, 1] = Fraction(3, 2)
        assert (J == expected).all()

    def test_bilinear_symmetric_and_matrix_symmetric(self):
        rng = np.random.default_rng(4)
        R = random_act(4, 2, seed=13)
        for _ in range(10):
            x = frac_vec([int(v) for v in rng.integers(-3, 4, size=4)])
            y = frac_vec([int(v) for v in rng.integers(-3, 4, size=4)])
            J1 = jacobi_polarized(R, x, y)
            assert (J1 == J1.T).all()
            assert (J1 == jacobi_polarized(R, y, x)).all()

    def test_half_identity_on_corpus(self):
        rng = np.random.default_rng(40)
        for R in build_corpus(12, seed=31):
            x = frac_vec([int(v) for v in rng.integers(-3, 4, size=R.m)])
            y = frac_vec([int(v) for v in rng.integers(-3, 4, size=R.m)])
            lhs = np.dot(jacobi_polarized(R, x, y), y)
            rhs = np.dot(jacobi(R, y), x) * Fraction(-1, 2)
            assert (lhs == rhs).all()

    def test_rotation_identity_rational_angles(self):
        # (cos, sin) = ((1-t^2)/(1+t^2), 2t/(1+t^2)) keeps everything rational
        rng = np.random.default_rng(8)
        for R in build_corpus(8, seed=19):
            for _ in range(20):
                x = frac_vec([int(v) for v in rng.integers(-3, 4, size=R.m)])
                y = frac_vec([int(v) for v in rng.integers(-3, 4, size=R.m)])
                t = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
                cos = (1 - t * t) / (1 + t * t)
                sin = 2 * t / (1 + t * t)
                lhs = jacobi(R, cos * x + sin * y)
                rhs = (
                    cos * cos * jacobi(R, x)
                    + 2 * cos * sin * jacobi_polarized(R, x, y)
                    + sin * sin * jacobi(R, y)
                )
                assert (lhs == rhs).all()


class TestRank:
    def test_r0_full_rank(self):
        x = random_rational_unit_vector(5, seed=3)
        assert jacobi_rank(r0(5, 1), x) == 4

    def test_zero_tensor(self):
        z = combine([(0, r0(4, 1))])
        assert jacobi_rank(z, [1, 0, 0, 0]) == 0

    def test_rtheta_rank_one_everywhere(self):
        R = r_theta(standard_complex_structure(6), Fraction(-5, 3))
        for seed in range(20):
            x = random_rational_unit_vector(6, seed)
            assert jacobi_rank(R, x) == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInput):
            jacobi_rank(r0(3, 1), [0, 0, 0])

    def test_bounded_by_m_minus_one(self):
        rng = np.random.default_rng(6)
        for R in build_corpus(20, seed=91):
            x = frac_vec([int(v) for v in rng.integers(-3, 4, size=R.m)])
            if (x == 0).all():
                continue
            assert jacobi_rank(R, x) <= R.m - 1


class TestWSpace:
    def test_rtheta_plane(self, rtheta4):
        basis = w_space(rtheta4, [1, 0, 0, 0])
        assert len(basis) == 2
        # the span is exactly {e1, e2}
        for v in basis:
            assert v[2] == 0 and v[3] == 0
        gram = [[np.dot(a, b) for b in basis] for a in basis]
        assert gram == [[1, 0], [0, 1]]

    def test_zero_tensor(self):
        z = combine([(0, r0(3, 1))])
        basis = w_space(z, [1, 0, 0])
        assert len(basis) == 1
        assert basis[0].tolist() == [1, 0, 0]

    def test_full_space_for_r0(self):
        basis = w_space(r0(3, 1), [1, 0, 0])
        assert len(basis) == 3

    def test_length_always_one_plus_rank(self):
        for R in build_corpus(10, seed=55):
            x = random_rational_unit_vector(R.m, seed=R.m)
            try:
                basis = w_space(R, x)
            except DegenerateInput:
                continue  # irrational frame; exact mode declines
            assert len(basis) == 1 + jacobi_rank(R, x)



def count_splits(monkeypatch):
    """Count ``np.linalg.eigh`` calls and symmetry checks; returns both call lists."""
    eighs, checks = [], []
    eigh, check = np.linalg.eigh, scalars.require_selfadjoint
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or eigh(a))

    def counted(a, mode=None, what="operator"):
        checks.append(a)
        return check(a, mode, what)

    monkeypatch.setattr(scalars, "require_selfadjoint", counted)
    monkeypatch.setattr(jacobi_module, "require_selfadjoint", counted)
    return eighs, checks


def w_space_two_splits(R, x):
    """Float w_space as a rank from one split and a range basis from another."""
    xhat = x / np.sqrt(float(np.dot(x, x)))
    j = jacobi(R, xhat)
    r = rank_with_mode(j, R.mode)
    if r == R.m - 1:
        return [xhat, *orthocomplement_basis([xhat], R.mode)]
    _, vecs, keep = _eigensplit_float(j, R.mode)
    return [xhat, *vecs[:, keep].T]


class TestOneSplitPerOperator:
    def test_float_w_space_decomposes_j_once(self, monkeypatch):
        # rank one (r_theta), full rank (r0 and a generic tensor), zero, and an
        # eigenvalue at the threshold, where only one split keeps rank and basis together
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
        q3, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
        cs = conjugate_structure(standard_complex_structure(6), random_signed_permutation(6, 2))
        tensors = [
            r_theta(cs, Fraction(2, 3)).to_float(),
            rotate(r_theta(cs, Fraction(2, 3)).to_float(), q),
            r0(5, 1.5, float_mode()),
            random_act(6, 2, seed=4).to_float(),
            combine([(0, r0(4, 1))]).to_float(),
            rotate(from_form(np.diag([1.0, 1.0, 1e-9])), q3),
        ]
        for R in tensors:
            for seed in range(3):
                x = np.random.default_rng(seed).standard_normal(R.m)
                want = w_space_two_splits(R, x)
                eighs, checks = count_splits(monkeypatch)
                got = w_space(R, x)
                assert len(eighs) == 1 and len(checks) == 1
                monkeypatch.undo()
                assert len(got) == len(want)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_exact_w_space_keeps_its_rank_and_range(self, monkeypatch):
        eighs, checks = count_splits(monkeypatch)
        basis = w_space(r_theta(standard_complex_structure(4), 3), frac_vec([0, 0, 0, 1]))
        assert not eighs and len(checks) == 1
        assert [v.tolist() for v in basis] == [[0, 0, 0, 1], [0, 0, 1, 0]]

    def test_float_recover_checks_each_operator_once(self, monkeypatch):
        # r_theta stops at its first J(e_p); a generic tensor tries every p and
        # then has no rank-one operator
        cs = conjugate_structure(standard_complex_structure(6), random_signed_permutation(6, 5))
        for R, tried in ((r_theta(cs, 2).to_float(), 1), (random_act(6, 2, seed=1).to_float(), 6)):
            eighs, checks = count_splits(monkeypatch)
            try:
                recover_complex_structure(R)
            except NotRankOne:
                assert tried == 6
            monkeypatch.undo()
            assert len(eighs) == len(checks) == tried

    def test_exact_recover_checks_each_operator_once(self, monkeypatch):
        cs = conjugate_structure(standard_complex_structure(6), random_signed_permutation(6, 5))
        eighs, checks = count_splits(monkeypatch)
        recover_complex_structure(r_theta(cs, Fraction(2, 7)))
        assert not eighs and len(checks) == 1

    def test_float_recover_still_refuses_a_nonsymmetric_operator(self):
        # no validation runs here: J(e_0) = V[:, 0, 0, :]^T of random values is not symmetric
        values = np.random.default_rng(0).standard_normal((4, 4, 4, 4))
        R = CurvatureTensor(4, values, float_mode())
        with pytest.raises(InvalidOperator, match="^operator is not symmetric$"):
            recover_complex_structure(R)


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination on Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        r += 1
    return r


def greedy_range_columns(j, r) -> list:
    """The reference rule for the range columns of a rank-r matrix: column c
    joins when the Gram matrix of the chosen columns and c has full rank."""
    cols = []
    for c in range(j.shape[0]):
        candidate = cols + [c]
        gram = [[np.dot(j[:, u], j[:, v]) for v in candidate] for u in candidate]
        if fraction_rank(gram) == len(candidate):
            cols = candidate
        if len(cols) == r:
            break
    return cols


def outcome(f):
    try:
        return [v.tolist() for v in f()]
    except DegenerateInput as exc:
        return str(exc)


class TestRangeBasis:
    def test_pivot_columns_match_the_greedy_gram_rule(self):
        """Exact J(x) of every rank 2 .. m - 2 at m 4-8, from Gauss tensors of
        low-rank rational forms and their sums with r_theta."""
        rng = np.random.default_rng(0)
        covered, rational = set(), 0
        for m in range(4, 9):
            std = r_theta(standard_complex_structure(m), Fraction(1, 2)) if m % 2 == 0 else None
            for k in range(1, m):
                for variant in ("plain", "dependent", "diagonal"):
                    if variant == "diagonal":  # J(e_0) is diagonal, so its frame is rational
                        phi = np.diag([Fraction(int(v)) for v in rng.integers(-3, 4, size=m)])
                    else:
                        b = rng.integers(-2, 3, size=(m, k))
                        if variant == "dependent":  # a zero row and a repeated row of J(x)
                            b[rng.integers(0, m)] = 0
                            b[rng.integers(1, m)] = b[0]
                        phi = np.array([[Fraction(int(v)) for v in row] for row in b @ b.T])
                    g = from_form(phi, RATIONAL)
                    for R in [g] + ([combine([(1, g), (1, std)])] if std else []):
                        x = random_rational_unit_vector(m, k)
                        if variant == "diagonal":
                            x = frac_vec([1] + [0] * (m - 1))
                        j = jacobi(R, x)
                        r = rank_with_mode(j)
                        if not 2 <= r <= m - 2:
                            continue
                        covered.add((m, r))
                        greedy = greedy_range_columns(j, r)
                        assert _pivot_columns(j) == greedy
                        want = outcome(lambda: orthonormalize_exact([j[:, c] for c in greedy]))
                        assert outcome(lambda: _range_orthonormal(j, r, RATIONAL)) == want
                        rational += not isinstance(want, str)
        assert covered == {(m, r) for m in range(4, 9) for r in range(2, m - 1)}
        assert rational


class TestRicci:
    def test_r0(self):
        rho = ricci(r0(4, Fraction(3)))
        assert (rho == 9 * np.eye(4, dtype=object)).all()

    def test_rtheta(self):
        rho = ricci(r_theta(standard_complex_structure(6), Fraction(2)))
        assert (rho == 6 * np.eye(6, dtype=object)).all()

    def test_zero(self):
        assert ricci(combine([(0, r0(3, 1))])).tolist() == np.zeros((3, 3)).tolist()

    def test_trace_matches_quadratic_form(self):
        rng = np.random.default_rng(14)
        for R in build_corpus(10, seed=23):
            rho = ricci(R)
            assert (rho == rho.T).all()
            for _ in range(100):
                x = frac_vec([int(v) for v in rng.integers(-3, 4, size=R.m)])
                assert np.trace(jacobi(R, x)) == np.dot(x, np.dot(rho, x))


class TestBlockStructure:
    def test_rtheta_canonical_pair(self, rtheta4):
        rep = block_structure(rtheta4, [1, 0, 0, 0], [0, 0, 1, 0])
        assert rep.lambda_list == [3]
        assert rep.e_basis[0].tolist() == [0, 1, 0, 0]
        assert [abs(v) for v in rep.f_basis[0]] == [0, 0, 0, 1]
        assert all(v == 0 for v in rep.residuals.values())
        # g spans {e1, e3}
        assert len(rep.g_basis) == 2
        for g in rep.g_basis:
            assert g[1] == 0 and g[3] == 0

    def test_zero_tensor(self):
        z = combine([(0, r0(4, 1))])
        rep = block_structure(z, [1, 0, 0, 0], [0, 1, 0, 0])
        assert rep.e_basis == [] and rep.f_basis == []
        assert len(rep.g_basis) == 4
        assert all(v == 0 for v in rep.residuals.values())

    def test_r0_precondition_fails(self):
        with pytest.raises(PreconditionFailed):
            block_structure(r0(3, 1), [1, 0, 0], [0, 1, 0])

    def test_non_unit_rejected(self, rtheta4):
        with pytest.raises(PreconditionFailed):
            block_structure(rtheta4, [2, 0, 0, 0], [0, 0, 1, 0])

    def test_random_pairs_on_scaled_rtheta(self):
        R = r_theta(standard_complex_structure(6), Fraction(7, 2))
        for seed in range(10):
            x = random_rational_unit_vector(6, seed=seed)
            y = find_commuting_partner(R, x, seed=seed + 100)
            rep = block_structure(R, x, y)
            assert rep.lambda_list == [Fraction(21, 2)]
            assert all(v == 0 for v in rep.residuals.values())

    def test_float_mode_pair(self, rtheta4):
        R = rtheta4.to_float()
        rep = block_structure(R, [1.0, 0, 0, 0], [0, 0, 1.0, 0])
        assert np.allclose(rep.lambda_list, [3.0])
        assert all(float(v) <= 1e-9 for v in rep.residuals.values())


def reference_block_structure(R, x, y):
    """block_structure one vector at a time: f_i = (2 / lambda_i) J(x,y) e_i
    in a loop, the Gram matrix entry by entry, and each block residual as
    the largest of the residuals of the single frame vectors.  Returns
    (lambdas, e, f, g, residuals), or the message of a failed J(x) y = 0
    precondition; the pairs it is given are unit and orthogonal."""
    mode = R.mode
    x, y = (np.asarray(v, dtype=object if mode.exact else float) for v in (x, y))
    jx, jy, jxy = jacobi(R, x), jacobi(R, y), jacobi_polarized(R, x, y)
    if not mode.exact:
        vals, vecs, keep = _eigensplit_float(jx, mode)
        lambdas, e_basis = [float(v) for v in vals[keep]], [vecs[:, i] for i in np.flatnonzero(keep)]
    kdev = max_abs(np.dot(jx, y))
    if not negligible(kdev, mode, 1 if mode.exact else max_abs(lambdas)):
        return f"precondition failed: J(x) y = 0 (|J(x) y| = {kdev})"
    if mode.exact:
        r = rank_with_mode(jx, mode)
        lambdas, e_basis = [_projector_scale(jx, r)] * r if r else [], _range_orthonormal(jx, r, mode)
    f_basis = [np.dot(jxy, e) * ((Fraction(2) if mode.exact else 2.0) / lam) for lam, e in zip(lambdas, e_basis)]
    frame = e_basis + f_basis
    gram = np.array([[np.dot(u, v) for v in frame] for u in frame])
    ortho_dev = max_abs(gram - eye(len(frame), mode)) if frame else mode.zero()
    g_basis = orthocomplement_basis(frame, mode) if frame else list(eye(R.m, mode))
    residuals = {
        "jy_x": max_abs(np.dot(jy, x)),
        "jx_jy": max_abs(np.dot(jx, jy)),
        "square_identity": max_abs(np.dot(jy, jy) + np.dot(jx, jx) - 4 * np.dot(jxy, jxy)),
        "intertwine": max(
            max_abs(np.dot(jxy, jx) - np.dot(jy, jxy)), max_abs(np.dot(jx, jxy) - np.dot(jxy, jy))
        ),
        "frame_orthonormal": ortho_dev,
    }
    half = Fraction(1, 2) if mode.exact else 0.5
    devs = {"block_jx": [mode.zero()], "block_jy": [mode.zero()], "block_jxy": [mode.zero()]}
    for lam, e, f in zip(lambdas, e_basis, f_basis):
        devs["block_jx"] += [max_abs(np.dot(jx, e) - lam * e), max_abs(np.dot(jx, f))]
        devs["block_jy"] += [max_abs(np.dot(jy, e)), max_abs(np.dot(jy, f) - lam * f)]
        devs["block_jxy"] += [max_abs(np.dot(jxy, e) - lam * half * f), max_abs(np.dot(jxy, f) - lam * half * e)]
    for g in g_basis:
        for key, op in (("block_jx", jx), ("block_jy", jy), ("block_jxy", jxy)):
            devs[key].append(max_abs(np.dot(op, g)))
    residuals.update((key, max(vals)) for key, vals in devs.items())
    return lambdas, e_basis, f_basis, g_basis, residuals


def block_outcome(R, x, y):
    try:
        rep = block_structure(R, x, y)
    except PreconditionFailed as exc:
        return str(exc)
    return rep.lambda_list, rep.e_basis, rep.f_basis, rep.g_basis, rep.residuals


class TestBlockFrameAgainstVectorLoop:
    """The matrix frames of block_structure against the per-vector reference."""

    def pairs(self, R, n, exact):
        rng = np.random.default_rng(R.m)
        for seed in range(n):
            if exact:
                x = random_rational_unit_vector(R.m, seed)
            else:
                x = rng.standard_normal(R.m)
                x /= np.linalg.norm(x)
            try:
                y = find_commuting_partner(R, x, seed=seed + 50)
            except DegenerateInput:  # r0: J(x) has no kernel beyond x, so take any unit y in x-perp
                y = orthocomplement_basis([x], R.mode)[0]
            yield x, y

    def test_exact_frames_and_residuals_are_equal(self):
        tensors = []
        for m in (4, 5, 6, 7, 8):
            tensors += [r0(m, Fraction(-2, 3)), combine([(0, r0(m, 1))])]
            if m % 2 == 0:
                for s in range(3):
                    cs = conjugate_structure(standard_complex_structure(m), random_signed_permutation(m, s))
                    tensors.append(r_theta(cs, Fraction(5, 3)))
        reports = 0
        for R in tensors:
            for x, y in self.pairs(R, 3, exact=True):
                want, got = reference_block_structure(R, x, y), block_outcome(R, x, y)
                if isinstance(want, str):
                    assert got == want
                    continue
                reports += 1
                lambdas, e, f, g, residuals = got
                assert lambdas == want[0]
                for vs, ws in zip((e, f, g), want[1:4]):
                    assert [v.tolist() for v in vs] == [w.tolist() for w in ws]
                assert residuals == want[4]
                assert all(type(residuals[k]) is type(want[4][k]) for k in residuals)
        assert reports == 5 * 3 + 9 * 3  # every zero tensor and r_theta pair; no r0 pair qualifies

    def test_float_frames_and_residuals_agree_to_rounding(self):
        eps = np.finfo(float).eps
        reports = 0
        for m in (4, 6, 8):
            for s in range(3):
                q, _ = np.linalg.qr(np.random.default_rng(s).standard_normal((m, m)))
                R = rotate(r_theta(standard_complex_structure(m, float_mode()), 1.7), q)
                for x, y in self.pairs(R, 3, exact=False):
                    want, got = reference_block_structure(R, x, y), block_outcome(R, x, y)
                    lambdas, e, f, g, residuals = got
                    assert lambdas == want[0]
                    scale = max(abs(v) for v in lambdas)
                    for vs, ws in zip((e, f, g), want[1:4]):
                        assert np.abs(np.array(vs) - np.array(ws)).max() <= 8 * eps
                    for key, value in residuals.items():  # lambda^2 bounds every quantity compared
                        assert abs(value - want[4][key]) <= 8 * eps * scale * scale, key
                    reports += 1
        assert reports == 27
