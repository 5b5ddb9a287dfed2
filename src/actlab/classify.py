"""Classification of commutation-closed curvature tensors.

Every tensor whose orthogonal Jacobi operators commute is either zero, a
multiple of the constant-sectional-curvature tensor, or a multiple of the
complex-structure tensor.  ``classify`` turns that trichotomy into an
algorithm with constructive recovery of the curvature scale c and, in the
complex case, of the structure Theta (canonicalized up to its inherent sign
ambiguity), verified by an exact reconstruction residual.

``osserman_check`` and ``structure_report`` are the spectral diagnostics:
constancy of the Jacobi spectrum over the unit sphere, rank histograms, and
the two-eigenvalue structure forced on rank-deficient commutation-closed
tensors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ClassificationInconsistency,
    DegenerateInput,
    InvalidComplexStructure,
    NotRankOne,
    UnsupportedDimension,
)
from .jacobi import _eigensplit_float, _range_orthonormal, _rank_one_unit, jacobi, jacobi_polarized
from .scalars import (
    DEFAULT_TOL,
    complete_orthonormal_exact,
    eye,
    float_mode,
    max_abs,
    negligible,
    random_rational_unit_vector,
    random_unit_vector,
    rank_with_mode,
    zeros,
)
from .tensors import ComplexStructure, CurvatureTensor, _coerce_vector, combine, r0, r_theta
from .tsankov import Witness, tsankov_test

__all__ = [
    "Classification",
    "OssermanReport",
    "StructureReport",
    "classify",
    "recover_complex_structure",
    "osserman_check",
    "structure_report",
    "find_commuting_partner",
]

RANK_PROBES = 8


@dataclass
class Classification:
    """Tagged result: Zero | ConstantCurvature(c) | ComplexForm(c, theta) | NotTsankov(witness).

    ``residual`` is the relative reconstruction error |R - R_hat| / |R|
    (sup norms); it is identically zero in rational mode for the three
    commutation-closed tags.
    """

    tag: str
    c: object | None = None
    theta: ComplexStructure | None = None
    witness: Witness | None = None
    residual: object | None = None


@dataclass
class OssermanReport:
    """Constancy check of the sorted Jacobi spectrum over sampled unit vectors."""

    is_osserman: bool
    reference_spectrum: tuple
    max_deviation: float
    n_samples: int


@dataclass
class StructureReport:
    """Sampled rank/spectrum diagnostics of the Jacobi operator family."""

    n_samples: int
    ranks: list
    w_dims: list
    spectra: list
    rank_histogram: dict
    tsankov_holds: bool
    two_eigenvalue_ok: bool | None


def _probe_vectors(R: CurvatureTensor, seed: int, count: int):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        if R.mode.exact:
            x = rng.integers(-5, 6, size=R.m)
            if np.any(x):
                out.append(x.astype(object))
        else:
            out.append(random_unit_vector(R.m, int(rng.integers(0, 2**32))))
    return out


def recover_complex_structure(R: CurvatureTensor):
    """Extract (c, Theta) from a rank-one-Jacobi commutation-closed tensor.

    At a basis vector e with rank-one J(e) = 3c w w^T, the unit factor w is
    Theta e up to sign; the remaining columns follow from the polarized
    operator, Theta e_j = (2 / 3c) J(e, e_j) w, because <Theta e, Theta e_j>
    = <e, e_j> = 0 kills the second polarization term.  The overall sign of
    Theta is not determined (the tensor is even in Theta); it is fixed by
    making the first nonzero coordinate of w positive.
    """
    mode = R.mode
    m = R.m
    if m % 2:
        raise UnsupportedDimension("complex structures exist only in even dimensions")
    probe, basis = None, eye(m, mode)
    for p in range(m):
        j = jacobi(R, basis[p])
        if rank_with_mode(j, mode) == 1:
            probe, jp = p, j
            break
    if probe is None:
        raise NotRankOne("no basis vector has a rank-one Jacobi operator")
    try:
        t, w = _rank_one_unit(jp, mode)
    except DegenerateInput as exc:
        raise ClassificationInconsistency(
            f"rank-one factor of J(e_{probe}) has no exact representation: {exc}"
        ) from exc
    if mode.exact:
        c = Fraction(t, 3)
        coef = Fraction(2) / Fraction(t)
    else:
        c = t / 3.0
        coef = 2.0 / t
    theta = zeros((m, m), mode)
    theta[:, probe] = w
    for jdx in range(m):
        if jdx == probe:
            continue
        theta[:, jdx] = np.dot(jacobi_polarized(R, basis[probe], basis[jdx]), w) * coef
    try:
        cs = ComplexStructure(theta, mode)
    except InvalidComplexStructure as exc:
        raise ClassificationInconsistency(f"recovered structure is invalid: {exc}") from exc
    return c, cs


def _relative_residual(R: CurvatureTensor, recon: CurvatureTensor):
    scale = R.max_abs()
    dev = combine([(1, R), (-1, recon)]).max_abs()
    if R.mode.exact:
        return dev / scale if scale != 0 else dev
    return float(dev) / float(scale) if scale else float(dev)


def classify(R: CurvatureTensor, seed: int = 0) -> Classification:
    """Decide Zero / ConstantCurvature / ComplexForm / NotTsankov.

    Steps: (i) zero test; (ii) exact orthogonal-commutation decision, failure
    returns the witness; (iii) Jacobi rank probing at up to 8 seeded points,
    taking the maximum (maximal rank holds off a measure-zero set, and the
    final reconstruction residual certifies the answer regardless of probe
    luck); (iv) rank m-1 recovers c from one sectional value, rank 1 recovers
    (c, Theta); both verify by reconstruction.
    """
    if R.m < 3:
        raise UnsupportedDimension("classification needs dimension m >= 3")
    mode = R.mode
    if R.is_zero():
        return Classification("Zero", residual=mode.zero())
    verdict = tsankov_test(R, "exact", seed=seed)
    if not verdict.holds:
        return Classification("NotTsankov", witness=verdict.witness)
    ranks = [rank_with_mode(jacobi(R, x), mode) for x in _probe_vectors(R, seed, RANK_PROBES)]
    top = max(ranks)
    if top == R.m - 1:
        c, scale = None, R.max_abs()
        for i in range(R.m):
            for j in range(i + 1, R.m):
                sect = R.values[i, j, j, i]
                if not negligible(sect, mode, scale):
                    c = Fraction(int(sect), R.denominator) if mode.exact else sect
                    break
            if c is not None:
                break
        if c is None:
            raise ClassificationInconsistency(
                "maximal Jacobi rank with no nonzero sectional value"
            )
        residual = _relative_residual(R, r0(R.m, c, mode))
        if not negligible(residual, mode):
            raise ClassificationInconsistency(
                f"commutation holds but constant-curvature reconstruction fails (residual {residual})"
            )
        return Classification("ConstantCurvature", c=c, residual=residual)
    if top == 1:
        try:
            c, cs = recover_complex_structure(R)
        except (UnsupportedDimension, NotRankOne) as exc:
            raise ClassificationInconsistency(
                f"commutation holds with rank-one Jacobi but recovery failed: {exc}"
            ) from exc
        residual = _relative_residual(R, r_theta(cs, c))
        if not negligible(residual, mode):
            raise ClassificationInconsistency(
                f"commutation holds but complex-form reconstruction fails (residual {residual})"
            )
        return Classification("ComplexForm", c=c, theta=cs, residual=residual)
    raise ClassificationInconsistency(
        f"commutation holds but the probed Jacobi rank {top} is neither 1 nor m-1"
    )


def osserman_check(
    R: CurvatureTensor, n_samples: int = 200, seed: int = 0, tol: float | None = None
) -> OssermanReport:
    """Is the sorted Jacobi spectrum the same at every sampled unit vector?

    Spectra are computed in floating point (exact tensors are cast first).
    """
    if n_samples < 2:
        raise DegenerateInput("need at least two samples to compare spectra")
    if tol is None:
        tol = R.mode.tol if not R.mode.exact else DEFAULT_TOL
    comps = R.float_components()
    rng = np.random.default_rng(seed)
    reference = None
    max_dev = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(R.m)
        x /= np.linalg.norm(x)
        j = np.einsum("i,j,bija->ab", x, x, comps)
        spec = np.linalg.eigvalsh(j)
        if reference is None:
            reference = spec
        else:
            max_dev = max(max_dev, float(np.abs(spec - reference).max()))
    ok = negligible(max_dev, float_mode(tol), max_abs(reference))
    return OssermanReport(bool(ok), tuple(float(v) for v in reference), max_dev, n_samples)


def structure_report(R: CurvatureTensor, n_samples: int = 50, seed: int = 0) -> StructureReport:
    """Rank histogram, spectra, and W(x) dimensions over sampled unit vectors.

    When the tensor passes the commutation decision with sub-maximal rank,
    additionally verifies that every sampled Jacobi operator has exactly two
    eigenvalues (zero and one repeated value); skipped (None) otherwise.
    """
    if n_samples < 1:
        raise DegenerateInput("need at least one sample")
    mode = R.mode
    comps = R.float_components()
    rng = np.random.default_rng(seed)
    ranks, w_dims, spectra = [], [], []
    xs = []
    for _ in range(n_samples):
        if mode.exact:
            xs.append(random_rational_unit_vector(R.m, int(rng.integers(0, 2**32))))
        else:
            x = rng.standard_normal(R.m)
            xs.append(x / np.linalg.norm(x))
    exact_jacobis = []
    for x in xs:
        j = jacobi(R, x)
        exact_jacobis.append(j)
        r = rank_with_mode(j, mode)
        ranks.append(r)
        w_dims.append(1 + r)
        jf = j.astype(float) if mode.exact else j
        spectra.append(tuple(float(v) for v in np.linalg.eigvalsh(jf)))
    holds = tsankov_test(R, "exact", seed=seed).holds
    two_eigenvalue_ok = None
    if holds and not R.is_zero() and max(ranks) < R.m - 1:
        checks = []
        for j, r in zip(exact_jacobis, ranks):
            if r == 0:
                checks.append(True)
            elif mode.exact:
                lam = Fraction(np.trace(j)) / r
                checks.append(lam != 0 and not np.any(np.dot(j, j) - j * lam))
            else:
                vals = np.linalg.eigvalsh(j)
                scale = max_abs(vals)
                lam = vals[int(np.abs(vals).argmax())]
                ok = negligible(vals, mode, scale) | negligible(vals - lam, mode, scale)
                checks.append(bool(ok.all()))
        two_eigenvalue_ok = all(checks)
    return StructureReport(
        n_samples, ranks, w_dims, spectra, dict(Counter(ranks)), holds, two_eigenvalue_ok
    )


def find_commuting_partner(R: CurvatureTensor, x, seed: int = 0) -> np.ndarray:
    """A unit y with <x, y> = 0 and J(x) y = 0, sampled deterministically.

    The solution space is ker J(x) intersected with x-perp (x itself always
    lies in the kernel).  In rational mode the basis of that space comes
    from reflection-completing [x, orthonormal range basis], which keeps
    every vector rational, and y is a random rational-unit combination.
    """
    x = _coerce_vector(x, R)
    mode = R.mode
    j = jacobi(R, x)
    r = rank_with_mode(j, mode)
    if r >= R.m - 1:
        raise DegenerateInput("J(x) has no kernel beyond x; no commuting partner exists")
    if mode.exact:
        if np.dot(x, x) != 1:
            raise DegenerateInput("exact partner construction needs a unit x")
        range_basis = _range_orthonormal(j, r, mode)
        complement = complete_orthonormal_exact([x, *range_basis], R.m)
        t = random_rational_unit_vector(len(complement), seed)
        y = sum((ti * b for ti, b in zip(t, complement)), start=zeros(R.m, mode))
        return y
    xf = x.astype(float)
    xf = xf / np.linalg.norm(xf)
    kernel = _eigensplit_float(j, mode)[2]
    rng = np.random.default_rng(seed)
    while True:
        y = kernel @ rng.standard_normal(kernel.shape[1])
        y = y - (y @ xf) * xf
        n = np.linalg.norm(y)
        if n > 1e-8:
            return y / n
