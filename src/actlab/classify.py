"""Classification of commutation-closed curvature tensors.

Every tensor whose orthogonal Jacobi operators commute is either zero, a
multiple of the constant-sectional-curvature tensor, or a multiple of the
complex-structure tensor.  ``classify`` turns that trichotomy into an
algorithm with constructive recovery of the curvature scale c and, in the
complex case, of the structure Theta (canonicalized up to its inherent sign
ambiguity), verified by a reconstruction residual.  The fits and the
decision they share live in ``tsankov``; ``recover_complex_structure`` lives
in ``jacobi`` and is re-exported here.

``osserman_check`` and ``structure_report`` are the spectral diagnostics:
constancy of the Jacobi spectrum over the unit sphere, rank histograms, and
the two-eigenvalue structure forced on rank-deficient commutation-closed
tensors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, UnsupportedDimension
from .jacobi import _projector_scale, _range_orthonormal, jacobi, recover_complex_structure
from .scalars import (
    _eigensplit_float,
    float_array,
    max_abs,
    negligible,
    orthocomplement_basis,
    random_rational_unit_vector,
    rank_with_mode,
    require_int,
    seeded_rng,
    zeros,
)
from .tensors import ComplexStructure, CurvatureTensor, _coerce_vector
from .tsankov import Witness, _decide, _fit, tsankov_test

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


def classify(R: CurvatureTensor, seed: int = 0) -> Classification:
    """Decide Zero / ConstantCurvature / ComplexForm / NotTsankov.

    Steps: (i) zero test; (ii) the orthogonal-commutation decision of
    ``tsankov_test(R, "exact")``, whose failure returns its witness: the
    first violating pair when exact, in the order basis pairs (e_a, e_b),
    (e_a, e_b + e_c), (e_a + e_b, e_a - e_b), then the seeded samples, and
    the largest-norm pick of the float search in float mode; (iii)
    the fit that decides: c R0 with c from one sectional value, else
    (c, Theta) from ``recover_complex_structure``, each checked by its
    reconstruction residual.  The decision tries an exact fit before the
    Jacobi table and round 0 of the witness search, a float fit after its
    screen, and returns the fit that succeeds; when the expansion had to
    decide instead, the fit is deterministic, so running it again raises
    its own ``ClassificationInconsistency``.  A ``seed`` that is not an
    integer >= 0 is ``DegenerateInput`` before any step.
    """
    if R.m < 3:
        raise UnsupportedDimension("classification needs dimension m >= 3")
    require_int(seed, 0, "seed")
    if R.is_zero():
        return Classification("Zero", residual=R.mode.zero())
    verdict, fit = _decide(R, seed, 200, orthogonal=True)
    if not verdict.holds:
        return Classification("NotTsankov", witness=verdict.witness)
    c, cs, residual = fit or _fit(R)
    if cs is None:
        return Classification("ConstantCurvature", c=c, residual=residual)
    return Classification("ComplexForm", c=c, theta=cs, residual=residual)


def osserman_check(R: CurvatureTensor, n_samples: int = 200, seed: int = 0) -> OssermanReport:
    """Is the sorted Jacobi spectrum the same at every sampled unit vector?

    Spectra are computed in floating point, on ``jacobi(R.to_float(), x)``,
    and the largest deviation is ``negligible`` at ``R.to_float().mode``.
    """
    require_int(n_samples, 2, "n_samples")  # two spectra to compare
    F = R.to_float()
    rng = seeded_rng(seed)
    reference = None
    max_dev = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(R.m)
        x /= np.linalg.norm(x)
        spec = np.linalg.eigvalsh(jacobi(F, x))
        if reference is None:
            reference = spec
        else:
            max_dev = max(max_dev, float(np.abs(spec - reference).max()))
    ok = negligible(max_dev, F.mode, max_abs(reference))
    return OssermanReport(bool(ok), tuple(float(v) for v in reference), max_dev, n_samples)


def structure_report(R: CurvatureTensor, n_samples: int = 50, seed: int = 0) -> StructureReport:
    """Rank histogram, spectra, and W(x) dimensions over sampled unit vectors.

    When the tensor passes the commutation decision with sub-maximal rank,
    additionally verifies that every sampled Jacobi operator has exactly two
    eigenvalues (zero and one repeated value); skipped (None) otherwise.
    """
    require_int(n_samples, 1, "n_samples")
    mode = R.mode
    rng = seeded_rng(seed)
    ranks, w_dims, spectra = [], [], []
    xs = []
    for _ in range(n_samples):
        if mode.exact:
            xs.append(random_rational_unit_vector(R.m, int(rng.integers(0, 2**32))))
        else:
            x = rng.standard_normal(R.m)
            xs.append(x / np.linalg.norm(x))
    jacobis = [jacobi(R, x) for x in xs]
    for j in jacobis:
        if mode.exact:
            r, vals = rank_with_mode(j, mode), np.linalg.eigvalsh(float_array(j))
        else:  # the rank and the spectrum of one split
            vals, _, keep = _eigensplit_float(j, mode)
            r = int(np.count_nonzero(keep))
        ranks.append(r)
        w_dims.append(1 + r)
        spectra.append(tuple(float(v) for v in vals))
    holds = tsankov_test(R, "exact", seed=seed).holds
    two_eigenvalue_ok = None
    if holds and not R.is_zero() and max(ranks) < R.m - 1:
        checks = []
        for j, r, spectrum in zip(jacobis, ranks, spectra):
            if r == 0:
                checks.append(True)
            elif mode.exact:
                checks.append(_projector_scale(j, r) is not None)
            else:
                vals = np.array(spectrum)
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
    lies in the kernel).  In rational mode its basis is
    ``orthocomplement_basis([x, orthonormal range basis])``, which keeps
    every vector rational, and y is a random rational-unit combination.  In
    float mode the rank and kernel come from one ``_eigensplit_float``.
    """
    x = _coerce_vector(x, R)
    mode = R.mode
    j = jacobi(R, x)
    if mode.exact:
        r = rank_with_mode(j, mode)
    else:
        _, vecs, keep = _eigensplit_float(j, mode)
        r, kernel = int(np.count_nonzero(keep)), vecs[:, ~keep]
    if r >= R.m - 1:
        raise DegenerateInput("J(x) has no kernel beyond x; no commuting partner exists")
    if mode.exact:
        if np.dot(x, x) != 1:
            raise DegenerateInput("exact partner construction needs a unit x")
        complement = orthocomplement_basis([x, *_range_orthonormal(j, r, mode)], mode)
        t = random_rational_unit_vector(len(complement), seed)
        return sum((ti * b for ti, b in zip(t, complement)), start=zeros(R.m, mode))
    xf = x.astype(float)
    xf = xf / np.linalg.norm(xf)
    rng = seeded_rng(seed)
    while True:
        y = kernel @ rng.standard_normal(kernel.shape[1])
        y = y - (y @ xf) * xf
        n = np.linalg.norm(y)
        if n > 1e-8:
            return y / n
