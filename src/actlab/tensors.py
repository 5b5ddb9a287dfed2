"""Algebraic curvature tensors on a finite-dimensional inner product space.

A curvature tensor is the dense array of components
``R[i][j][k][l] = R(e_i, e_j, e_k, e_l)`` in a fixed orthonormal frame, with
the classical symmetries

    R(x,y,z,w) =  R(z,w,x,y) = -R(y,x,z,w),
    R(x,y,z,w) + R(y,z,x,w) + R(z,x,y,w) = 0.

This module provides the constructors (constant sectional curvature, the
form built from a skew complex structure, Gauss tensors of symmetric forms,
seeded random sums of Gauss tensors, linear combinations), the symmetry
validator, and the curvature operator action.  Exact tensors and exact
complex structures store integer numerators over one denominator, and their
constructors, builders and validators compute on those numerators directly
(see ``CurvatureTensor`` and ``ComplexStructure``).  All values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np

from .errors import (
    DegenerateInput,
    IncompatibleTensors,
    InvalidComplexStructure,
    InvalidDimension,
    InvalidOperator,
    InvalidShape,
)
from .scalars import (
    RATIONAL,
    SLICE_ENTRIES,
    ScalarMode,
    exact_cast,
    float_array,
    float_mode,
    fraction_array,
    integer_array,
    integer_array_max,
    is_selfadjoint,
    matrix,
    max_abs,
    mode_of,
    negligible,
    read_only,
    seeded_rng,
    vector,
    zeros,
)

__all__ = [
    "CurvatureTensor",
    "ComplexStructure",
    "ValidationReport",
    "validate",
    "r0",
    "r_theta",
    "from_form",
    "random_act",
    "combine",
    "apply",
    "rotate",
    "from_metric_components",
    "standard_complex_structure",
    "random_signed_permutation",
    "conjugate_structure",
]

SYMMETRY_NAMES = ("pair_exchange", "antisym_12", "antisym_34", "bianchi")


@dataclass(eq=False)
class CurvatureTensor:
    """Dense rank-4 curvature tensor in an orthonormal frame.

    The components are ``values / denominator``: float64 values over 1, or
    exact integer numerators (int64, Python ints from 2^62 on) over the lcm
    of the component denominators, as ``scalars.integer_array`` clears any
    exact values given.  ``components`` builds the ``Fraction`` array on
    each access, for API callers; the library works on the numerators.

    The tensor owns its array: the array passed in is taken over, not
    copied, and ``values`` is a read-only view of it.  max|values| is
    computed once, at construction (in the same pass that picks the exact
    dtype), as ``max_value``; ``max_abs``, ``is_zero`` and the exact tier
    bounds read it.  Treat instances as immutable: every operation returns
    new values.
    """

    m: int
    values: np.ndarray
    mode: ScalarMode
    denominator: int = 1

    def __post_init__(self):
        _require_dimension(self.m, 2, "curvature tensors")
        values = np.asarray(self.values)
        if values.shape != (self.m,) * 4:
            raise InvalidShape(f"an m = {self.m} tensor needs shape {(self.m,) * 4}, got {values.shape}")
        if self.mode.exact:
            values, self.denominator, self.max_value = integer_array_max(values, self.denominator)
        else:
            self.max_value = max_abs(values)
            if not self.max_value < np.inf:  # NaN propagates through max_abs
                raise DegenerateInput(f"float tensor values must be finite, got max |R| = {self.max_value}")
        self.values = values.view()
        self.values.flags.writeable = False

    @property
    def components(self) -> np.ndarray:
        return fraction_array(self.values, self.denominator) if self.mode.exact else self.values

    def max_abs(self):
        return Fraction(self.max_value, self.denominator) if self.mode.exact else self.max_value

    def is_zero(self) -> bool:
        """Exactly zero in both modes: the zero test has no scale to compare against."""
        return bool(self.max_value == 0)

    def to_float(self) -> "CurvatureTensor":
        if not self.mode.exact:
            return self
        return CurvatureTensor(self.m, float_array(self.values, self.denominator), float_mode(self.mode.tol))

    def float_components(self) -> np.ndarray:
        return self.to_float().values


def _require_dimension(m: int, least: int, what: str, error=InvalidDimension):
    """Refuse m < least with ``error``: the one dimension check, which constructors
    run before they allocate anything of size m."""
    if m < least:
        raise error(f"{what} need dimension m >= {least}")


def _contract(subscripts: str, R: CurvatureTensor, *vectors) -> np.ndarray:
    """``np.einsum(subscripts, *vectors, R.components)``; exact tensors contract the
    cleared numerators (each entry a sum of m^s products, s summed indices) into Fractions,
    and a float result with a NaN or infinite entry is ``DegenerateInput``."""
    if not R.mode.exact:
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.einsum(subscripts, *(np.asarray(v, float) for v in vectors), R.values)
        if not np.isfinite(out).all():
            raise DegenerateInput("a float contraction passes the float range, or a vector entry is not finite")
        return out
    inputs, output = subscripts.split("->")
    cleared = [integer_array(v) for v in vectors]
    bound = R.m ** len(set(inputs) - set(output) - {","}) * max(R.max_value, 1)
    for n, _ in cleared:
        bound *= max(int(max_abs(n)), 1)
    v = exact_cast(R.values, bound)
    out = np.einsum(subscripts, *(n.astype(v.dtype) for n, _ in cleared), v)
    return fraction_array(out, R.denominator * prod(d for _, d in cleared))


@dataclass
class ValidationReport:
    """Per-symmetry maximum violations of a raw component array."""

    m: int
    mode: ScalarMode
    violations: dict
    worst_index: dict
    threshold: object
    accepted: bool

    def lines(self) -> list[str]:
        out = [f"symmetry={name} max_violation={self.violations[name]}" for name in SYMMETRY_NAMES]
        out.append(f"accepted={'true' if self.accepted else 'false'}")
        return out


def _as_tensor(raw, mode: ScalarMode) -> CurvatureTensor:
    if isinstance(raw, CurvatureTensor):
        if raw.mode.exact == mode.exact:
            return raw
        raw = raw.float_components()  # float values for either target mode
    a = np.asarray(raw, dtype=object if mode.exact else float)
    if a.ndim != 4 or len(set(a.shape)) != 1:
        raise InvalidShape(f"expected an m^4 array, got shape {a.shape}")
    m = a.shape[0]
    if m < 2:
        raise InvalidShape("curvature tensors need dimension m >= 2")
    return CurvatureTensor(m, a, mode)


def validate(raw, mode: ScalarMode) -> ValidationReport:
    """Check the four tensor symmetries, reporting the worst violation of each.

    Accepts iff every violation is ``negligible`` at scale max|R|: exactly
    zero in rational mode, at most tol * max|R| in float mode.  Exact
    deviations of at most 3 max|N| are taken on the numerators.
    """
    R = _as_tensor(raw, mode)
    a = exact_cast(R.values, 3 * R.max_value) if mode.exact else R.values
    deviations = {
        "pair_exchange": a - a.transpose((2, 3, 0, 1)),
        "antisym_12": a + a.transpose((1, 0, 2, 3)),
        "antisym_34": a + a.transpose((0, 1, 3, 2)),
        # Bianchi: R[i,j,k,l] + R[j,k,i,l] + R[k,i,j,l]
        "bianchi": a + a.transpose((2, 0, 1, 3)) + a.transpose((1, 2, 0, 3)),
    }
    violations, worst = {}, {}
    for name, dev in deviations.items():
        absdev = np.abs(dev)
        top = absdev.max()
        violations[name] = Fraction(int(top), R.denominator) if mode.exact else top
        worst[name] = tuple(int(i) for i in np.unravel_index(int(absdev.argmax()), dev.shape))
    scale = R.max_abs()
    threshold = Fraction(0) if mode.exact else mode.tol * float(scale)
    accepted = all(negligible(v, mode, scale) for v in violations.values())
    return ValidationReport(R.m, mode, violations, worst, threshold, accepted)


def _gauss_components(phi: np.ndarray) -> np.ndarray:
    """R(x,y,z,w) = phi(x,w) phi(y,z) - phi(x,z) phi(y,w) from a symmetric form."""
    return _antisymmetrised(np.multiply.outer(phi, phi))


def _antisymmetrised(o: np.ndarray) -> np.ndarray:
    """R[i,j,k,l] = o[i,l,j,k] - o[i,k,j,l]: the Gauss tensor of phi for o = phi (x) phi,
    and, being linear in o, the sum of the Gauss tensors of the forms that o sums."""
    return o.transpose((0, 2, 3, 1)) - o.transpose((0, 2, 1, 3))


@lru_cache(maxsize=None)
def _r0_pattern(m: int):
    """The flat positions of (i, j, j, i) and (i, j, i, j), i != j, where R0 is 1 and -1:
    ``(plus, minus)``, built once per m and read-only (``r0`` and the c R0 fit share them)."""
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    return read_only(((i * m + j) * m + j) * m + i, ((i * m + j) * m + i) * m + j)


def r0(m: int, c, mode: ScalarMode = RATIONAL) -> CurvatureTensor:
    """The tensor c * R0 of constant sectional curvature c.

    Components: R[i][j][k][l] = c * (d_jk d_il - d_ik d_jl), so the only
    nonzero entries are c at (i, j, j, i) and -c at (i, j, i, j), i != j,
    scattered into zeros (``_r0_pattern``): c's numerator over its denominator
    when exact, else the float products 1.0 c, -1.0 c and 0.0 c that the
    Gauss tensor of the identity times c holds, signed zeros included.
    """
    _require_dimension(m, 2, "curvature tensors")
    c = mode.scalar(c)
    plus, minus = _r0_pattern(m)
    if mode.exact:
        n = c.numerator
        comps = exact_cast(np.zeros(m**4, dtype=np.int64), max(abs(n), 1))
        comps[plus], comps[minus] = n, -n
        return CurvatureTensor(m, comps.reshape((m,) * 4), mode, c.denominator)
    comps = np.full(m**4, 0.0 * c)
    comps[plus], comps[minus] = 1.0 * c, -1.0 * c
    return CurvatureTensor(m, comps.reshape((m,) * 4), mode)


class ComplexStructure:
    """A skew endomorphism with theta^2 = -identity (exists iff m is even).

    Stored as ``CurvatureTensor`` is: theta is ``values / denominator``,
    float64 values over 1, or exact integer numerators T (int64, Python ints
    from 2^62 on) over the reduced lcm t of the entry denominators, as
    ``scalars.integer_array`` clears the exact values given.  ``theta``
    builds the ``Fraction`` matrix on each access, for API callers; the
    library works on T.  The mode defaults to the one the dtype of
    ``theta`` implies; a float structure takes no denominator.  Exact
    structures are validated on the numerators: T + T^T = 0 and
    T T + t^2 I = 0.
    """

    def __init__(self, theta, mode: ScalarMode | None = None, denominator: int = 1):
        theta = np.asarray(theta)
        if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise InvalidComplexStructure(f"theta must be square, got shape {theta.shape}")
        self.mode = mode if mode is not None else mode_of(theta)
        if self.mode.exact:
            th, t = integer_array(theta, denominator)
        elif denominator != 1:
            raise InvalidComplexStructure(f"float complex structures take no denominator, got {denominator}")
        else:
            th, t = matrix(theta, self.mode), 1
        m = th.shape[0]
        if m % 2:
            raise InvalidComplexStructure("complex structures exist only in even dimensions")
        _require_dimension(m, 2, "complex structures", InvalidComplexStructure)
        # theta^2 = -I fixes the scale of theta, so both deviations compare at scale 1
        if self.mode.exact:
            n = exact_cast(th, m * int(max_abs(th)) ** 2 + t * t)
            skew = Fraction(int(max_abs(n + n.T)), t)
            square = Fraction(int(max_abs(np.dot(n, n) + np.eye(m, dtype=n.dtype) * (t * t))), t * t)
        else:
            skew = max_abs(th + th.T)
            square = max_abs(np.dot(th, th) + np.eye(m))
        if not (negligible(skew, self.mode) and negligible(square, self.mode)):
            raise InvalidComplexStructure(
                f"theta violates its invariants (skew deviation {skew}, square deviation {square})"
            )
        self.values, self.denominator, self.m = th, t, m

    @property
    def theta(self) -> np.ndarray:
        return fraction_array(self.values, self.denominator) if self.mode.exact else self.values

    def __repr__(self):
        return f"ComplexStructure(theta={self.theta!r}, mode={self.mode!r})"


def standard_complex_structure(m: int, mode: ScalarMode = RATIONAL) -> ComplexStructure:
    """Block-diagonal structure sending e1 -> e2, e2 -> -e1, e3 -> e4, ..."""
    if m % 2:
        raise InvalidComplexStructure("complex structures exist only in even dimensions")
    _require_dimension(m, 2, "complex structures", InvalidComplexStructure)
    th = np.zeros((m, m), dtype=np.int64 if mode.exact else float)
    even = np.arange(0, m, 2)
    th[even, even + 1] = -1
    th[even + 1, even] = 1
    return ComplexStructure(th, mode)


def random_signed_permutation(m: int, seed: int, mode: ScalarMode = RATIONAL) -> np.ndarray:
    """Seeded orthogonal matrix with entries in {0, +-1}."""
    _require_dimension(m, 0, "signed permutations")
    rng = seeded_rng(seed)
    perm = rng.permutation(m)
    signs = rng.integers(0, 2, size=m) * 2 - 1
    q = zeros((m, m), mode)
    for i in range(m):
        q[int(perm[i]), i] = mode.scalar(int(signs[i]))
    return q


def conjugate_structure(cs: ComplexStructure, q: np.ndarray) -> ComplexStructure:
    """The structure q theta q^T for orthogonal q.

    Exact q = Q / s conjugates the numerators, Q T Q^T over s^2 t, whose
    entries are at most m^2 max|Q|^2 max|T|.
    """
    if np.shape(q) != (cs.m, cs.m):
        raise IncompatibleTensors("rotation matrix does not match the structure dimension")
    if not cs.mode.exact:
        q = matrix(q, cs.mode)
        return ComplexStructure(np.dot(np.dot(q, cs.values), q.T), cs.mode)
    q, s = integer_array(q)
    bound = cs.m**2 * max(int(max_abs(q)), 1) ** 2 * max(int(max_abs(cs.values)), 1)
    q, th = exact_cast(q, bound), exact_cast(cs.values, bound)
    return ComplexStructure(np.dot(np.dot(q, th), q.T), cs.mode, s * s * cs.denominator)


def r_theta(cs: ComplexStructure, c) -> CurvatureTensor:
    """The tensor c * R_Theta built from a complex structure.

    R_Theta(x,y)z = <Th y, z> Th x - <Th x, z> Th y - 2 <Th x, y> Th z, so in
    components R[i][j][k][l] = c * (Th_kj Th_li - Th_ki Th_lj - 2 Th_ji Th_lk).
    Its Jacobi operator at unit x is the rank-one map 3c <., Th x> Th x.
    Exact numerators come from the stored Th = T / t: from m = 12 on, on
    ``_r_theta_pattern`` when T has one nonzero a row (a signed permutation of
    the standard one), else, as for a dense T or any float Th, whose signed
    zeros a zero fill would lose, from ``_r_theta_blocks``.
    """
    values, den = _r_theta_values(cs, cs.mode.scalar(c))
    return CurvatureTensor(cs.m, values, cs.mode, den)


def _r_theta_values(cs: ComplexStructure, c):
    """``(numerators, denominator)`` of c R_Theta, c a scalar of ``cs.mode``, unreduced: exact
    numerators over c's denominator times t^2, from ``_r_theta_pattern``, else ``_r_theta_blocks``."""
    if (pattern := _r_theta_pattern(cs, c)) is not None:
        positions, nums, den = pattern
        values = np.zeros((cs.m,) * 4, nums.dtype)
        values.reshape(-1)[positions] = nums
        return values, den
    blocks, den, dtype = _r_theta_blocks(cs, c)
    values = np.empty((cs.m,) * 4, dtype)
    for rows, block in blocks:
        values[rows] = block
    return values, den


def _r_theta_pattern(cs: ComplexStructure, c):
    """``(positions, numerators, denominator)`` of ``_r_theta_values`` for an exact T with m
    nonzeros and m^4 > ``SLICE_ENTRIES`` (m >= 12; in one block the blocked build costs fewer numpy
    calls), else None: the flat positions its terms reach, each once, and their summed
    numerators, in the dtype of ``_r_theta_blocks``.  Row i of t = Th^T holds one v_i, at column
    pi(i), an involution with no fixed point, as T is invertible and skew.  The terms t1, t2, t3 of
    ``_r_theta_blocks`` are v_i v_j c at (i, j, pi(j), pi(i)), -v_i v_j c at (i, j, pi(i), pi(j))
    and -2 v_i v_k c at (i, pi(i), k, pi(k)), each flat position a part in i plus one in j (k),
    and meet only where t1 + t2 = 0 at j = i and t3 at k = i, pi(i) adds to t1, t2 at j = pi(i)."""
    m, th = cs.m, cs.values
    if not cs.mode.exact or m**4 <= SLICE_ENTRIES or np.count_nonzero(th) != m:
        return None
    th = exact_cast(th, 4 * int(max_abs(th)) ** 2 * max(abs(c.numerator), 1))
    r, pi = np.nonzero(th.T)
    head = r * m**3 + np.multiply.outer((1, m, m * m), pi)
    tail = np.multiply.outer((m * m, m * m, m), r) + np.multiply.outer((m, 1, 1), pi)
    vv = np.multiply.outer(th[pi, r], th[pi, r] * c.numerator)
    nums = np.stack([vv, -vv, -2 * vv])
    nums[0, r, pi] += nums[2, r, r]
    nums[1, r, pi] += nums[2, r, pi]
    keep = np.ones((3, m, m), dtype=bool)
    keep[:, r, r] = keep[2, r, pi] = False
    return (head[:, :, None] + tail[:, None, :])[keep], nums[keep], c.denominator * cs.denominator**2


def _r_theta_blocks(cs: ComplexStructure, c):
    """``(blocks, denominator, dtype)`` of ``_r_theta_values``: ``blocks`` yields ``(rows, block)``
    for consecutive row slices, each block one reused buffer of at most ``SLICE_ENTRIES`` entries
    (one row, m^3 entries, from m = 26 on).
    With t = Th^T and O[i,x,y,z] = t[i,x] t[y,z], one outer product per block, t1 = Th_kj Th_li,
    t2 = Th_ki Th_lj and t3 = Th_ji Th_lk are O[i,l,j,k], O[i,k,j,l] and O[i,j,k,l], and each
    entry is ((t1 - t2) - 2 t3) c in that order: the formula's bits, signed zeros included, for
    float Th and for the exact T, dense or with m < 12, that have no ``_r_theta_pattern``."""
    th, scale, den = cs.values, c, 1
    if cs.mode.exact:  # each bracket is at most 4 max|T|^2
        th = exact_cast(th, 4 * int(max_abs(th)) ** 2 * max(abs(c.numerator), 1))
        scale, den = c.numerator, c.denominator * cs.denominator**2
    m, t = cs.m, th.T
    step = min(m, max(1, SLICE_ENTRIES // m**3))

    def blocks():
        o, out = np.empty((step, m, m, m), t.dtype), np.empty((step, m, m, m), t.dtype)
        for i in range(0, m, step):
            n = min(step, m - i)
            ob, block = o[:n], out[:n]
            np.multiply.outer(t[i : i + n], t, out=ob)
            np.subtract(ob.transpose((0, 2, 3, 1)), ob.transpose((0, 2, 1, 3)), out=block)
            ob *= 2
            block -= ob
            block *= scale
            yield slice(i, i + n), block

    return blocks(), den, t.dtype


def from_form(phi, mode: ScalarMode | None = None) -> CurvatureTensor:
    """Gauss-equation tensor of a symmetric form (shape operator role)."""
    raw = np.asarray(phi)
    if mode is None:
        mode = mode_of(raw)
    p = matrix(raw, mode)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InvalidShape(f"expected a square matrix, got shape {p.shape}")
    if mode.exact:  # symmetric iff its integer numerators are
        n, s = integer_array(p)
        symmetric = np.array_equal(n, n.T)
    else:
        symmetric = is_selfadjoint(p, mode)
    if not symmetric:
        raise InvalidOperator("the form must be symmetric")
    if not mode.exact:
        return CurvatureTensor(p.shape[0], _gauss_components(p), mode)
    n = exact_cast(n, 2 * int(max_abs(n)) ** 2)
    return CurvatureTensor(p.shape[0], _gauss_components(n), mode, s * s)


def random_act(m: int, k: int, seed: int, mode: ScalarMode = RATIONAL) -> CurvatureTensor:
    """Seeded random curvature tensor: a signed sum of k Gauss tensors.

    Sums of Gauss tensors satisfy the tensor symmetries by construction and
    span the whole space of algebraic curvature tensors.

    In rational mode each generator phi = a + a^T has integer entries in
    [-4, 4], so every Gauss tensor entry is at most 2 * 4^2 = 32 and the sum
    of k of them at most 32 k, far below 2^53 for any k a generator array
    can hold.  So G = sum_k s_k phi_k (x) phi_k is one (m^2, k) x (k, m^2)
    float64 product, exact as every integer below 2^53 is, and the sum is G
    antisymmetrised once: the tensor's int64 numerator array, over
    denominator 1.  The float sum keeps its generator-by-generator order,
    which fixes its bits.
    """
    if k < 1:
        raise InvalidDimension("need at least one generator")
    _require_dimension(m, 2, "curvature tensors")
    rng = seeded_rng(seed)
    if mode.exact:
        forms, signs = np.empty((k, m * m)), np.empty(k)
        for g in range(k):  # a, then its sign: the draws of one generator
            a = rng.integers(-2, 3, size=(m, m))
            forms[g] = (a + a.T).reshape(-1)
            signs[g] = rng.integers(0, 2) * 2 - 1
        total = _antisymmetrised(((forms.T * signs) @ forms).reshape((m,) * 4))
        return CurvatureTensor(m, total.astype(np.int64), mode)
    total = zeros((m,) * 4, mode)
    for _ in range(k):
        a = rng.standard_normal((m, m))
        phi = np.asarray((a + a.T) / 2.0)
        sign = mode.scalar(int(rng.integers(0, 2) * 2 - 1))
        total = total + _gauss_components(phi) * sign
    return CurvatureTensor(m, total, mode)


def _check_same_frame(tensors, what="tensors"):
    ms = {t.m for t in tensors}
    kinds = {t.mode.kind for t in tensors}
    if len(ms) != 1 or len(kinds) != 1:
        raise IncompatibleTensors(f"{what} must share dimension and scalar mode")


def combine(terms) -> CurvatureTensor:
    """Componentwise linear combination sum_i c_i * R_i.

    Exact terms become f_i N_i over d = lcm(den(c_i / d_i)), bounded by sum |f_i| max|N_i|.
    On exact tensors a Python float c_i counts at its exact binary value:
    ``5/7`` is ``Fraction(5/7)``, a denominator of 2^53, whose numerators
    push the witness search onto Python ints.  Pass ``Fraction(5, 7)``.
    """
    terms = list(terms)
    if not terms:
        raise IncompatibleTensors("need at least one term")
    tensors = [t for _, t in terms]
    _check_same_frame(tensors)
    mode, m = tensors[0].mode, tensors[0].m
    if not mode.exact:
        total = zeros((m,) * 4, mode)
        for c, t in terms:
            total = total + t.values * mode.scalar(c)
        return CurvatureTensor(m, total, mode)
    scales = [mode.scalar(c) / t.denominator for c, t in terms]
    d = lcm(*(s.denominator for s in scales))
    factors = [s.numerator * (d // s.denominator) for s in scales]
    bound = sum(max(abs(f), 1) * max(t.max_value, 1) for f, t in zip(factors, tensors))
    total = sum(exact_cast(t.values, bound) * f for f, t in zip(factors, tensors))
    return CurvatureTensor(m, total, mode, d)


def _coerce_vector(x, tensor: CurvatureTensor) -> np.ndarray:
    v = vector(x, tensor.mode)
    if len(v) != tensor.m:
        raise IncompatibleTensors(f"vector has dimension {len(v)}, tensor has {tensor.m}")
    return v


def apply(R: CurvatureTensor, x, y, z) -> np.ndarray:
    """Curvature operator action: the vector dual to w -> R(x,y,z,w)."""
    x, y, z = (_coerce_vector(v, R) for v in (x, y, z))
    return _contract("i,j,k,ijka->a", R, x, y, z)


def rotate(R: CurvatureTensor, q) -> CurvatureTensor:
    """Pull the tensor back along an orthogonal change of frame.

    Returns R' with R'(x,y,z,w) = R(q^T x, q^T y, q^T z, q^T w); conjugating
    the structure of r_theta by q produces exactly this rotation.  Exact
    numerators take four factors of at most m max|Q| from q = Q / t.
    """
    q = matrix(q, R.mode)
    if q.shape != (R.m, R.m):
        raise IncompatibleTensors("rotation matrix does not match the tensor dimension")
    comps, denominator = R.values, 1
    if R.mode.exact:
        q, t = integer_array(q)
        comps = exact_cast(comps, max(R.max_value, 1) * (R.m * max(int(max_abs(q)), 1)) ** 4)
        q, denominator = q.astype(comps.dtype), R.denominator * t**4
    for axis in range(4):
        comps = np.tensordot(q, comps, axes=([1], [axis]))
        comps = np.moveaxis(comps, 0, axis)
    return CurvatureTensor(R.m, comps, R.mode, denominator)


def from_metric_components(raw, gram, tol: float = 1e-9) -> CurvatureTensor:
    """Ingest components given in a frame with SPD inner product ``gram``.

    A Cholesky congruence maps the frame to an orthonormal one (new basis
    u_a = sum_i B[i,a] v_i with B = L^-T, so B^T gram B = identity) and the
    components are pulled back accordingly.  The square roots make this a
    float-mode operation.
    """
    g = np.asarray(gram, dtype=float)
    a = np.asarray(raw, dtype=float)
    if a.ndim != 4 or len(set(a.shape)) != 1 or g.shape != (a.shape[0],) * 2:
        raise InvalidShape("need an m^4 component array and an m x m Gram matrix")
    if not is_selfadjoint(g, float_mode(tol)):
        raise InvalidOperator("the Gram matrix must be symmetric")
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise InvalidOperator("the Gram matrix must be positive definite") from exc
    b = np.linalg.inv(chol).T
    return rotate(CurvatureTensor(a.shape[0], a, float_mode(tol)), b.T)
