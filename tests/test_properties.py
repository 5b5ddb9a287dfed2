"""Property tests: verdicts do not depend on scale, frame, scalar mode or storage.

Inputs are drawn from every constructor family at m <= 6 with rational
coefficients, so each one has an exact verdict to compare against.
Hypothesis runs derandomized, so every run sees the same examples.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from actlab import (
    classify,
    combine,
    commutator_poly,
    conjugate_structure,
    divisible_by_pairing,
    from_form,
    load_tensor,
    r0,
    r_theta,
    random_act,
    random_signed_permutation,
    rotate,
    save_tensor,
    standard_complex_structure,
    tsankov_test,
)

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None, database=None)

coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5))


@st.composite
def rational_tensors(draw):
    """A rational tensor from one constructor family, or a mix of two."""
    family = draw(st.sampled_from(["r0", "rtheta", "mix", "random", "gauss", "zero"]))
    even = family in ("rtheta", "mix")
    m = draw(st.sampled_from([4, 6] if even else [3, 4, 5, 6]))
    seed = draw(st.integers(0, 2**16))
    c, c2 = draw(coefficients), draw(coefficients)
    if even:
        q = random_signed_permutation(m, seed)
        cs = conjugate_structure(standard_complex_structure(m), q)
    if family == "r0":
        return r0(m, c)
    if family == "rtheta":
        return r_theta(cs, c)
    if family == "mix":
        return combine([(c, r0(m, 1)), (c2, r_theta(cs, 1))])
    if family == "random":
        return random_act(m, draw(st.integers(1, 3)), seed)
    if family == "gauss":
        a = np.random.default_rng(seed).integers(-2, 3, size=(m, m))
        return from_form(np.array(a + a.T, dtype=object) * Fraction(1))
    return combine([(0, r0(m, c))])


def verdicts(R):
    """(classification tag, exact-method verdict, sampled-method verdict)."""
    return (
        classify(R).tag,
        tsankov_test(R, "exact").holds,
        tsankov_test(R, "sampled", n_samples=60).holds,
    )


def orthogonal(m, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    return q * np.sign(np.diag(r))


@PROPERTY
@given(rational_tensors(), st.floats(-8, 8), st.integers(0, 2**16))
def test_float_verdicts_invariant_under_scaling_and_rotation(R, exponent, seed):
    # also the guard that ClassificationInconsistency is never raised on a
    # valid tensor: classify would raise it here
    F = R.to_float()
    G = combine([(10.0**exponent, rotate(F, orthogonal(R.m, seed)))])
    assert verdicts(G) == verdicts(F)


@PROPERTY
@given(rational_tensors())
def test_exact_and_float_verdicts_agree(R):
    assert verdicts(R.to_float()) == verdicts(R)


@PROPERTY
@given(rational_tensors(), st.integers(0, 2**16))
def test_exact_verdicts_invariant_under_signed_permutations(R, seed):
    P = rotate(R, random_signed_permutation(R.m, seed))
    a, b = classify(R), classify(P)
    assert (b.tag, b.c) == (a.tag, a.c)
    assert verdicts(P) == verdicts(R)


@PROPERTY
@given(rational_tensors())
def test_exact_triage_matches_divisibility_and_fits_rebuild(R):
    holds = tsankov_test(R, "exact").holds
    assert holds == (divisible_by_pairing(commutator_poly(R)) is not None)
    if holds and not R.is_zero():
        res = classify(R)
        rebuilt = r0(R.m, res.c) if res.theta is None else r_theta(res.theta, res.c)
        assert (rebuilt.components == R.components).all() and res.residual == 0


@PROPERTY
@given(rational_tensors(), st.booleans(), st.sampled_from(["sparse", "dense"]))
def test_save_load_roundtrip(R, as_float, storage):
    if as_float:
        R = R.to_float()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        save_tensor(R, path, storage)
        loaded = load_tensor(str(path))
    assert loaded.mode.kind == R.mode.kind and loaded.denominator == R.denominator
    assert np.array_equal(loaded.values, R.values)
