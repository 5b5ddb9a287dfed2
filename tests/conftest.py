"""Shared fixtures: standard structures and a deterministic mixed corpus."""

from fractions import Fraction
from math import prod

import numpy as np
import pytest

from actlab import (
    RATIONAL,
    CurvatureTensor,
    combine,
    conjugate_structure,
    from_form,
    r0,
    r_theta,
    random_act,
    random_signed_permutation,
    standard_complex_structure,
    validate,
)
from actlab.scalars import integer_array


@pytest.fixture(scope="session")
def std4():
    return standard_complex_structure(4)


@pytest.fixture(scope="session")
def rtheta4(std4):
    return r_theta(std4, 1)


@pytest.fixture(scope="session")
def mix4(std4):
    return combine([(1, r0(4, 1)), (1, r_theta(std4, 1))])


def random_fraction(rng, lo=1, hi=12, den=6, signed=True):
    num = int(rng.integers(lo, hi + 1))
    d = int(rng.integers(1, den + 1))
    if signed and rng.integers(0, 2):
        num = -num
    return Fraction(num, d)


def cayley_rotation(m, seed, span=2):
    """The rational rotation (I - S)(I + S)^-1 of a seeded skew S.

    S has entries a / b with |a| <= span and b in 1..3.  I + S is invertible
    for every real skew S, and its Cayley transform is orthogonal, with
    denominators that are not trivial.  The inverse comes from exact
    Gauss-Jordan elimination on Fractions.
    """
    rng = np.random.default_rng(seed)
    s = np.full((m, m), Fraction(0), dtype=object)
    for i in range(m):
        for j in range(i + 1, m):
            v = Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, 4)))
            s[i, j], s[j, i] = v, -v
    eye = np.array([[Fraction(int(i == j)) for j in range(m)] for i in range(m)], dtype=object)
    a = np.concatenate([eye + s, eye], axis=1)
    for c in range(m):
        piv = next(r for r in range(c, m) if a[r, c] != 0)
        a[[c, piv]] = a[[piv, c]]
        a[c] = a[c] / a[c, c]
        for r in range(m):
            if r != c and a[r, c] != 0:
                a[r] = a[r] - a[r, c] * a[c]
    return np.dot(eye - s, a[:, m:])


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


def build_corpus(n=200, ms=(3, 4, 5, 6), seed=1234):
    """Deterministic list of tensors from every constructor family."""
    rng = np.random.default_rng(seed)
    corpus = []
    while len(corpus) < n:
        m = int(ms[len(corpus) % len(ms)])
        kind = len(corpus) % 6
        s = int(rng.integers(0, 2**31))
        if kind == 0:
            corpus.append(r0(m, random_fraction(rng)))
        elif kind == 1 and m % 2 == 0:
            cs = conjugate_structure(
                standard_complex_structure(m), random_signed_permutation(m, s)
            )
            corpus.append(r_theta(cs, random_fraction(rng)))
        elif kind == 2:
            a = rng.integers(-2, 3, size=(m, m))
            phi = np.array(
                [[Fraction(int(a[i, j] + a[j, i])) for j in range(m)] for i in range(m)],
                dtype=object,
            )
            corpus.append(from_form(phi, RATIONAL))
        elif kind == 3:
            diag = [Fraction(int(rng.integers(-3, 4))) for _ in range(m)]
            phi = np.array(
                [[diag[i] if i == j else Fraction(0) for j in range(m)] for i in range(m)],
                dtype=object,
            )
            corpus.append(from_form(phi, RATIONAL))
        elif kind == 4:
            corpus.append(random_act(m, int(rng.integers(1, 4)), s))
        else:
            base = r0(m, random_fraction(rng))
            if m % 2 == 0:
                extra = r_theta(standard_complex_structure(m), random_fraction(rng))
                corpus.append(combine([(1, base), (1, extra)]))
            else:
                corpus.append(combine([(0, base)]))  # the zero tensor
    return corpus


@pytest.fixture(scope="session")
def corpus200():
    return build_corpus(200)


def poly_from_entries(cls, m, mode, entries):
    """A ``cls`` polynomial built from ``{(a, b): {key: coeff}}``, a < b, with canonical keys."""
    rows = {tuple(row): r for r, row in enumerate(cls._rows(m).tolist())}
    slots = {pos: k for k, pos in enumerate(zip(*(t.tolist() for t in np.triu_indices(m, 1))))}
    d = len(next(iter(rows)))
    values = np.zeros((len(slots), len(rows), len(rows)), dtype=object if mode.exact else float)
    for pos, coeffs in entries.items():
        for key, c in coeffs.items():
            values[slots[pos], rows[key[:d]], rows[key[d:]]] = c
    return cls(m, mode, *integer_array(values)) if mode.exact else cls(m, mode, values)


def evaluate_entries(P, x, y):
    """The antisymmetric matrix P(x, y), summed in Fractions over ``P.entries``."""
    x, y = [Fraction(t) for t in x], [Fraction(t) for t in y]
    out = np.full((P.m, P.m), Fraction(0), dtype=object)
    for (a, b), coeffs in P.entries.items():
        d = len(next(iter(coeffs))) // 2
        out[a, b] = sum(c * prod(x[i] for i in key[:d]) * prod(y[k] for k in key[d:]) for key, c in coeffs.items())
        out[b, a] = -out[a, b]
    return out


def r0_near_misses(m):
    """Exact tensors at and beside c R0 in dimension m, c = -5/3: c R0 itself, and 7 R0 and
    numerators past 2^62 at m <= 8; then, from m = 3 on, c R0 with the off-pattern numerator at
    (0, 1, 0, 2) and its symmetry images set to +-1, and c R0 with the pattern numerators of the
    plane (0, 1) moved by 1; and c R0 + c2 R_Theta in even m."""
    c = Fraction(-5, 3)
    out = [r0(m, c), r0(m, 7)] + ([r0(m, Fraction(2**70 + 1, 3))] if m <= 8 else [])
    if m >= 3:
        off = np.zeros((m,) * 4, dtype=np.int64)
        for i, j, k, l in ((0, 1, 0, 2), (0, 2, 0, 1)):  # the entry and its pair exchange
            off[i, j, k, l] = off[j, i, l, k] = 1
            off[j, i, k, l] = off[i, j, l, k] = -1
        plane = from_form(np.diag([1, 1] + [0] * (m - 2)), RATIONAL)
        out += [combine([(1, r0(m, c)), (Fraction(1, 3), CurvatureTensor(m, off, RATIONAL))])]
        out += [combine([(1, r0(m, c)), (Fraction(1, 3), plane)])]
    if m % 2 == 0:
        out.append(combine([(c, r0(m, 1)), (Fraction(2, 7), r_theta(standard_complex_structure(m), 1))]))
    for R in out:
        assert validate(R, RATIONAL).accepted
    return out
