"""Jacobi operators of a curvature tensor and their structure diagnostics.

The Jacobi operator of ``R`` at ``x`` is the self-adjoint map
``J(x): y -> R(y,x)x`` with entries ``J[a][b] = R(e_b, x, x, e_a)``.  It is
quadratic in ``x`` and annihilates ``x``.  The polarized operator
``J(x,y): z -> (R(z,x)y + R(z,y)x) / 2`` is its symmetric bilinear
extension, so ``J(x,x) = J(x)`` and ``J(x,y)y = -J(y)x / 2``.

``block_structure`` verifies the pair structure that commuting Jacobi
operators force on an orthogonal pair with ``J(x)y = 0``: both operators
vanish on each other's kernel directions and become the same block ``A`` in
complementary slots, with the polarized operator equal to ``A/2`` off the
diagonal.

``recover_complex_structure`` probes for the first rank-one J(e_p), and
``_recover`` reads (c, Theta) off it and the polarized operator, uncertified;
exact tensors read both as slices of their integer numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import frexp, ldexp

import numpy as np

from .errors import (
    ClassificationInconsistency,
    DegenerateInput,
    InvalidComplexStructure,
    NotRankOne,
    PreconditionFailed,
    StructureViolation,
    UnsupportedDimension,
)
from .scalars import (
    ScalarMode,
    _eigensplit_float,
    _pivot_columns,
    exact_cast,
    eye,
    fraction_array,
    fraction_sqrt,
    integer_array,
    max_abs,
    negligible,
    orthocomplement_basis,
    orthonormalize_exact,
    rank_with_mode,
    require_selfadjoint,
)
from .tensors import ComplexStructure, CurvatureTensor, _coerce_vector, _contract

__all__ = [
    "jacobi",
    "jacobi_polarized",
    "jacobi_rank",
    "w_space",
    "ricci",
    "recover_complex_structure",
    "block_structure",
    "BlockStructureReport",
]


# B(x,y)[a][b] = sum_ij x_i y_j R[b][i][j][a], the matrix of z -> R(z,x)y
BILINEAR = "i,j,bija->ab"


def jacobi(R: CurvatureTensor, x) -> np.ndarray:
    """Matrix of the Jacobi operator J(x); symmetric, with J(x) x = 0."""
    x = _coerce_vector(x, R)
    return _contract(BILINEAR, R, x, x)


def jacobi_polarized(R: CurvatureTensor, x, y) -> np.ndarray:
    """Matrix of the polarized operator J(x, y); symmetric and bilinear."""
    x = _coerce_vector(x, R)
    y = _coerce_vector(y, R)
    bxy = _contract(BILINEAR, R, x, y)
    byx = _contract(BILINEAR, R, y, x)
    half = Fraction(1, 2) if R.mode.exact else 0.5
    return (bxy + byx) * half


def jacobi_rank(R: CurvatureTensor, x) -> int:
    """rank J(x); always at most m - 1 because x lies in the kernel."""
    x = _coerce_vector(x, R)
    if max_abs(x) == 0:
        raise DegenerateInput("rank of J(x) needs a nonzero x")
    return rank_with_mode(jacobi(R, x), R.mode)


def ricci(R: CurvatureTensor) -> np.ndarray:
    """Ricci form as a symmetric matrix, with rho(x,x) = trace J(x)."""
    if R.mode.exact:
        return _contract("ijjl->il", R)
    return np.trace(R.values, axis1=1, axis2=2)  # einsum may sum floats in another order


def _rank_one_unit(n: np.ndarray, mode: ScalarMode) -> tuple:
    """Split a symmetric matrix of rank one as n = s w w^T with unit w = W / e.

    Returns ``(s, W, e)``: s = trace n, and W a vector whose first
    coordinate that is not ``negligible`` (at scale 1, as w is a unit
    vector) is positive, which canonicalizes the sign of w.  With k the
    index of the largest n[k,k] / s, w = n[:, k] / sqrt(s n[k,k]).  A float
    matrix gives that quotient as W, over e = 1; an integer matrix gives
    integer W over e > 0 coprime to W.  The caller has tested rank one.
    The root is rational exactly when n / s is (Th x)(Th x)^T for rational
    Th and unit rational x; DegenerateInput is raised when it is not, or
    when the trace is zero.
    """
    s = int(np.trace(n)) if mode.exact else float(np.trace(n))
    if s == 0:
        raise DegenerateInput("rank-one symmetric matrices have nonzero trace")
    sign = 1 if s > 0 else -1
    k = int(np.argmax(np.diagonal(n) * sign))
    if mode.exact:
        root = fraction_sqrt(Fraction(int(n[k, k]), s))
        if root is None:
            raise DegenerateInput("the rank-one factor is irrational; no exact representation exists")
        w, e = integer_array(n[:, k].astype(object) * (sign * root.denominator), abs(s) * root.numerator)
    else:
        w, e = n[:, k] / np.sqrt(s * n[k, k]), 1
    if w[np.flatnonzero(~negligible(w, mode))[0]] < 0:
        w = 0 - w  # not -w, which turns float zeros into -0.0 and prints them so
    return s, w, e


def _is_rank_one(n: np.ndarray) -> bool:
    """rank n == 1 for an integer matrix: n is nonzero, and at its first
    nonzero entry (r, c), n[r,c] n == n[:, c] n[r, :], with entries at most max|n|^2."""
    nonzero = np.flatnonzero(n)
    if nonzero.size == 0:
        return False
    r, c = divmod(int(nonzero[0]), n.shape[1])
    n = exact_cast(n, int(max_abs(n)) ** 2)
    return not np.any(n * n[r, c] - np.outer(n[:, c], n[r, :]))


def _binary_scaled(R: CurvatureTensor):
    """``(2^-e R, e)``, e from ``frexp(max|R|)``, for a nonzero float tensor, else ``(R, 0)``.
    Commutators and the recovery's s n[k,k] are quadratic in R, so they underflow to 0 or
    overflow near the ends of the float range; 2^-e R has max|R| in [1/2, 1), exact in binary."""
    e = 0 if R.mode.exact else frexp(float(R.max_abs()))[1]  # frexp(0.0) is (0.0, 0)
    return (CurvatureTensor(R.m, np.ldexp(R.values, -e), R.mode) if e else R), e


def _recover(R: CurvatureTensor, p: int):
    """(c, Theta) from the numerators V over d, at a p whose J(e_p) the caller has tested.

    J(e_p) is the slice V[b,p,p,a] over d, of rank one, so J(e_p) = (s / d) w w^T
    by ``_rank_one_unit`` with w = W / e, c = s / 3d, and column q != p of
    Theta is (2d / s) J(e_p, e_q) w = sum_b (V[b,p,q,a] + V[b,q,p,a]) W_b / (s e):
    one contraction for all q, with integer entries at most 2 m max|V| max|W|
    in rational mode; float tensors are V over d = 1.  A factor with no exact
    representation, or columns that are no complex structure, is
    ``ClassificationInconsistency``.
    """
    m, v, mode = R.m, R.values, R.mode
    try:
        s, w, e = _rank_one_unit(v[:, p, p, :].T, mode)
    except DegenerateInput as exc:
        raise ClassificationInconsistency(
            f"rank-one factor of J(e_{p}) has no exact representation: {exc}"
        ) from exc
    if mode.exact:
        bound = 2 * m * max(R.max_value, 1) * int(max_abs(w))
        v, w = exact_cast(v, bound), exact_cast(w, bound)
    cols = np.tensordot(w, v[:, p, :, :] + v[:, :, p, :], axes=(0, 0)).T
    cols[:, p] = w * s
    sign = 1 if s > 0 else -1
    c = Fraction(s, 3 * R.denominator) if mode.exact else s / 3
    theta, denominator = cols * sign, abs(s) * e
    if not mode.exact:  # float structures take no denominator
        theta, denominator = theta / denominator, 1
    try:
        return c, ComplexStructure(theta, mode, denominator)
    except InvalidComplexStructure as exc:
        raise ClassificationInconsistency(f"recovered structure is invalid: {exc}") from exc


def recover_complex_structure(R: CurvatureTensor):
    """Extract (c, Theta) from a rank-one-Jacobi commutation-closed tensor.

    At a basis vector e with rank-one J(e) = 3c w w^T, the unit factor w is
    Theta e up to sign; the remaining columns follow from the polarized
    operator, Theta e_j = (2 / 3c) J(e, e_j) w, because <Theta e, Theta e_j>
    = <e, e_j> = 0 kills the second polarization term.  The overall sign of
    Theta is not determined (the tensor is even in Theta); it is fixed by
    making the first coordinate of w that is not ``negligible`` positive.

    The probe takes the first e_p whose J(e_p) has rank one, and ``_recover``
    reads (c, Theta) there.  Exact J(e_p) is the slice V[:, p, p, :] of the
    integer numerators, tested for symmetry and rank one on integers.  Float
    tensors are probed and recovered as 2^-e R (``_binary_scaled``), so that
    s n[k,k] stays in the float range, with ``rank_with_mode`` as the rank
    test, and c comes back scaled by 2^e.
    """
    if R.m % 2:
        raise UnsupportedDimension("complex structures exist only in even dimensions")
    R, e = _binary_scaled(R)
    for p in range(R.m):
        n = R.values[:, p, p, :].T
        if R.mode.exact:
            require_selfadjoint(n, R.mode)
        if _is_rank_one(n) if R.mode.exact else rank_with_mode(n, R.mode) == 1:
            c, cs = _recover(R, p)
            return (ldexp(c, e) if e else c), cs
    raise NotRankOne("no basis vector has a rank-one Jacobi operator")


def _range_orthonormal(j: np.ndarray, r: int, mode: ScalarMode):
    """Orthonormal basis of the range of an exact symmetric matrix of rank r:
    ``_rank_one_unit``'s factor when r = 1, else exact Gram-Schmidt on
    ``_pivot_columns``.  Float callers keep the eigenvectors of the
    ``_eigensplit_float`` that gave them the rank."""
    if r == 0:
        return []
    if r == 1:
        _, w, e = _rank_one_unit(integer_array(j)[0], mode)
        return [fraction_array(w, e)]
    return orthonormalize_exact([j[:, c] for c in _pivot_columns(j)])


def w_space(R: CurvatureTensor, x) -> list[np.ndarray]:
    """Orthonormal basis of span{x} + range J(x); its length is 1 + rank J(x).

    x is orthogonal to the range because x lies in the kernel of the
    symmetric operator J(x).  In float mode the rank and the range basis
    come from one ``_eigensplit_float``.
    """
    x = _coerce_vector(x, R)
    mode = R.mode
    n2 = np.dot(x, x)
    if max_abs(x) == 0:
        raise DegenerateInput("w_space needs a nonzero x")
    if mode.exact:
        root = fraction_sqrt(Fraction(n2))
        if root is None:
            raise DegenerateInput("x has irrational norm; pass a rational-unit x or use float mode")
        xhat = x * (Fraction(1) / root)
    else:
        xhat = x.astype(float) / np.sqrt(float(n2))
    j = jacobi(R, xhat)
    if mode.exact:
        r = rank_with_mode(j, mode)
    else:
        _, vecs, keep = _eigensplit_float(j, mode)
        r = int(np.count_nonzero(keep))
    if r == R.m - 1:
        # range = x^perp, so the whole space; complete x to a full frame
        return [xhat, *orthocomplement_basis([xhat], mode)]
    return [xhat, *(_range_orthonormal(j, r, mode) if mode.exact else vecs[:, keep].T)]


@dataclass
class BlockStructureReport:
    """Frame and residuals of the commuting-pair block decomposition.

    ``e_basis`` spans range J(x) with eigenvalues ``lambda_list``;
    ``f_basis`` is built as f_i = (2 / lambda_i) J(x,y) e_i, which the
    commutation identities force to be orthonormal (asserted, not re-fixed);
    ``g_basis`` spans the complement, where all three operators vanish.
    """

    lambda_list: list
    e_basis: list
    f_basis: list
    g_basis: list
    residuals: dict

    @property
    def rank(self) -> int:
        return len(self.e_basis)

    def max_residual(self):
        return max(self.residuals.values()) if self.residuals else 0


def _precheck_pair(R, x, y, mode):
    """Check the pair's preconditions; return J(x), its r nonzero eigenvalues
    as a vector, and their orthonormal eigenvectors as the columns of an
    m x r matrix.  Float J(x) y = 0 is judged at J(x)'s largest eigenvalue,
    the scale of the split whose kernel holds y.  An exact J(x) must be a
    scaled orthogonal projection with a rational eigenframe."""
    if not negligible(np.dot(x, x) - 1, mode):
        raise PreconditionFailed("x unit", f"<x,x> = {np.dot(x, x)}")
    if not negligible(np.dot(y, y) - 1, mode):
        raise PreconditionFailed("y unit", f"<y,y> = {np.dot(y, y)}")
    if not negligible(np.dot(x, y), mode):
        raise PreconditionFailed("x orthogonal to y", f"<x,y> = {np.dot(x, y)}")
    jx = jacobi(R, x)
    if not mode.exact:
        vals, vecs, keep = _eigensplit_float(jx, mode)
    kdev = max_abs(np.dot(jx, y))
    if not negligible(kdev, mode, 1 if mode.exact else max_abs(vals[keep])):
        raise PreconditionFailed("J(x) y = 0", f"|J(x) y| = {kdev}")
    if not mode.exact:
        return jx, vals[keep], vecs[:, keep]
    r = rank_with_mode(jx, mode)
    lam = _projector_scale(jx, r) if r else 0
    if lam is None:
        raise StructureViolation(
            "J(x) is not a scaled orthogonal projection; the input is not "
            "Jacobi-Tsankov or needs float mode"
        )
    try:
        basis = _range_orthonormal(jx, r, mode)
    except DegenerateInput as exc:
        raise StructureViolation(f"no exact eigenframe: {exc}") from exc
    return jx, np.full(r, lam, dtype=object), np.array(basis, dtype=object).reshape(r, R.m).T


def _projector_scale(j: np.ndarray, r: int):
    """lam = trace j / r if the exact j of rank r > 0 is lam != 0 times an
    orthogonal projection (j^2 == lam j), else None."""
    lam = Fraction(np.trace(j)) / r
    if lam == 0 or np.any(np.dot(j, j) - j * lam):
        return None
    return lam


def block_structure(R: CurvatureTensor, x, y) -> BlockStructureReport:
    """Build the commuting-pair block frame at (x, y) and report residuals.

    Preconditions: x, y unit, orthogonal, and J(x) y = 0.  The residuals
    cover J(y)x = 0, J(x)J(y) = 0, J(y)^2 + J(x)^2 - 4 J(x,y)^2 = 0, the
    intertwining identities, and the three block-matrix identities on the
    constructed frame.  All residuals vanish exactly on rank-one
    Jacobi-Tsankov tensors.  The frames E, F and G are matrix columns, and
    each operator's block residual is the largest of its three on E, F, G.
    """
    mode = R.mode
    x = _coerce_vector(x, R)
    y = _coerce_vector(y, R)
    jx, lambdas, e = _precheck_pair(R, x, y, mode)
    jy = jacobi(R, y)
    jxy = jacobi_polarized(R, x, y)
    f = np.dot(jxy, e) * ((Fraction(2) if mode.exact else 2.0) / lambdas)
    frame = np.concatenate([e, f], axis=1)
    ortho_dev = max_abs(np.dot(frame.T, frame) - eye(frame.shape[1], mode))
    if not negligible(ortho_dev, mode):
        raise StructureViolation(
            "the e/f frame is not orthonormal; the input is not Jacobi-Tsankov"
        )
    g_basis = orthocomplement_basis(list(frame.T), mode) if frame.size else list(eye(R.m, mode))

    residuals = {
        "jy_x": max_abs(np.dot(jy, x)),
        "jx_jy": max_abs(np.dot(jx, jy)),
        "square_identity": max_abs(np.dot(jy, jy) + np.dot(jx, jx) - 4 * np.dot(jxy, jxy)),
        "intertwine": max(
            max_abs(np.dot(jxy, jx) - np.dot(jy, jxy)),
            max_abs(np.dot(jx, jxy) - np.dot(jxy, jy)),
        ),
        "frame_orthonormal": ortho_dev,
    }
    g = np.array(g_basis, dtype=e.dtype).reshape(-1, R.m).T
    half = lambdas * (Fraction(1, 2) if mode.exact else 0.5)
    for key, op, on_e, on_f in (
        ("block_jx", jx, e * lambdas, 0),
        ("block_jy", jy, 0, f * lambdas),
        ("block_jxy", jxy, f * half, e * half),
    ):
        residuals[key] = max(
            max_abs(np.dot(op, e) - on_e), max_abs(np.dot(op, f) - on_f), max_abs(np.dot(op, g))
        )

    return BlockStructureReport(lambdas.tolist(), list(e.T), list(f.T), g_basis, residuals)
