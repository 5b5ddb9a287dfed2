"""The tensor file format.

Files are JSON with keys ``m`` (2 to ``MAX_M`` = 32, checked before anything
is allocated), ``scalar`` ("rational" | "float"), ``storage`` ("sparse" |
"dense") and ``entries``.  Sparse entries are objects ``{"i":, "j":, "k":,
"l":, "v":}`` with 0-based integer indices; the loader completes each orbit
under the tensor symmetries and rejects conflicting values, and the saver
writes (i, j, k, l) with ``i < j``, ``k < l`` and ``(i, j) <= (k, l)``, one
per orbit, skipping entries the symmetries force to zero.  Dense entries are
a flat row-major array of length m^4.  Values are decimal or "p/q" strings
or JSON integers (rational, lossless; a JSON float such as 0.1 is refused,
as it would load at its binary value) or JSON numbers (float): finite, not
booleans, with a decimal exponent of at most ``MAX_EXPONENT`` in magnitude;
a rational value's numerator and denominator have at most ``MAX_EXPONENT``
digits, so that every loaded value prints.  Both directions work on integer
numerators, cleared from the parsed values only.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .errors import BianchiViolation, ConflictingEntry, DegenerateInput, FormatError
from .scalars import DEFAULT_TOL, RATIONAL, ScalarMode, float_mode, integer_array, negligible
from .tensors import CurvatureTensor, validate

__all__ = ["MAX_M", "MAX_EXPONENT", "tensor_to_doc", "tensor_from_doc", "save_tensor", "load_tensor"]

MAX_M = 32  # largest dimension a tensor file may declare
MAX_EXPONENT = 4300  # Python's default integer-digit limit, which already stops longer literals
_EXPONENT = re.compile(r"[eE][+-]?[0_]*([1-9][\d_]*)")  # significant digits of a decimal exponent


def _parse_value(raw, mode: ScalarMode):
    if isinstance(raw, bool):
        raise FormatError(f"value {raw!r} is not a number")
    if isinstance(raw, float) and not math.isfinite(raw):  # JSON NaN, Infinity, 1e400
        raise FormatError(f"value {raw!r} is not finite")
    if isinstance(raw, float) and mode.exact:
        raise FormatError(f'rational value {raw!r} is a JSON float; the string "{raw!r}" loads exactly')
    exponent = _EXPONENT.search(raw) if isinstance(raw, str) else None
    if exponent and int(exponent[1].replace("_", "")[:5]) > MAX_EXPONENT:  # any 5 digits exceed it
        raise FormatError(f"value {raw!r} has a decimal exponent beyond {MAX_EXPONENT}")
    try:
        value = mode.scalar(raw)
    except DegenerateInput as exc:
        raise FormatError(f"cannot parse value {raw!r}: {exc}") from exc
    if mode.exact:
        # 10^MAX_EXPONENT, the least integer Python cannot print by default, is
        # above 2^(3 MAX_EXPONENT), so only longer values pay for the power
        big = max(abs(value.numerator), value.denominator)
        if big.bit_length() > 3 * MAX_EXPONENT and big >= 10**MAX_EXPONENT:
            raise FormatError(f"value {raw!r} has a numerator or denominator of more than {MAX_EXPONENT} digits")
    return value


def _orbit_images(i, j, k, l, m):
    """Signed orbit of an index under the tensor symmetries, as row-major flat index -> sign.

    The sign is 0 when the symmetries force the value to be zero, which
    happens exactly when ``i == j`` or ``k == l``.
    """
    ij, ji, kl, lk, n = i * m + j, j * m + i, k * m + l, l * m + k, m * m
    if i == j or k == l:
        return {ij * n + kl: 0}
    return {
        ij * n + kl: 1, kl * n + ij: 1, ij * n + lk: -1, lk * n + ij: -1,
        ji * n + kl: -1, kl * n + ji: -1, ji * n + lk: 1, lk * n + ji: 1,
    }


def _format_values(R: CurvatureTensor, nums: np.ndarray) -> list:
    """``str(Fraction(n, d))`` of exact numerators without building the Fractions; floats as they are."""
    if not R.mode.exact:
        return nums.tolist()
    d = R.denominator
    try:
        return [str(n // g) if (g := math.gcd(n, d)) == d else f"{n // g}/{d // g}" for n in nums.tolist()]
    except ValueError as exc:  # a computed tensor can pass Python's integer-digit limit
        raise FormatError(f"cannot write value: {exc}") from exc


def tensor_to_doc(R: CurvatureTensor, storage: str = "sparse") -> dict:
    if storage not in ("sparse", "dense"):
        raise FormatError(f"unknown storage {storage!r}")
    doc = {"m": R.m, "scalar": "rational" if R.mode.exact else "float", "storage": storage}
    if storage == "dense":
        doc["entries"] = _format_values(R, R.values.reshape(-1))
        return doc
    idx = np.argwhere(R.values)  # nonzero entries in row-major order
    i, j, k, l = idx.T
    idx = idx[(i < j) & (k < l) & ((i < k) | (i == k) & (j <= l))]  # least of its orbit, not forced to zero
    values = _format_values(R, R.values[tuple(idx.T)])
    doc["entries"] = [dict(zip("ijkl", t), v=v) for t, v in zip(idx.tolist(), values)]
    return doc


def save_tensor(R: CurvatureTensor, path, storage: str = "sparse"):
    doc = tensor_to_doc(R, storage)  # before the file opens, so a value that cannot be written leaves none
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _values_conflict(a, b, mode: ScalarMode) -> bool:
    return not negligible(a - b, mode, max(abs(a), abs(b)))


def _place(m: int, mode: ScalarMode, parsed: list, flat, pick, sign) -> CurvatureTensor:
    """The tensor whose row-major entry ``flat[n]`` is ``sign[n] * parsed[pick[n]]``, all others
    zero; exact values are cleared of their denominators once, before they are placed."""
    nums, d = integer_array(np.array(parsed, dtype=object)) if mode.exact else (np.array(parsed, dtype=float), 1)
    values = np.zeros(m**4, dtype=nums.dtype)
    values[flat] = sign * nums[pick]
    return CurvatureTensor(m, values.reshape((m,) * 4), mode, d)


def tensor_from_doc(doc: dict, tol: float = DEFAULT_TOL, enforce: bool = True):
    """Build a tensor from a parsed file; returns (tensor, validation report).

    With ``enforce`` the documented loader errors are raised: symmetry
    conflicts as ConflictingEntry, Bianchi failures as BianchiViolation.
    Without it the report carries the verdict (used by the validate command).
    """
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    for key in ("m", "scalar", "storage", "entries"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}")
    m = doc["m"]
    if not isinstance(m, int) or not 2 <= m <= MAX_M:
        raise FormatError(f"m must be an integer between 2 and {MAX_M}")
    if doc["scalar"] not in ("rational", "float"):
        raise FormatError(f"unknown scalar kind {doc['scalar']!r}")
    mode = RATIONAL if doc["scalar"] == "rational" else float_mode(tol)
    storage = doc["storage"]
    entries = doc["entries"]
    if storage == "dense":
        if not isinstance(entries, list) or len(entries) != m**4:
            raise FormatError(f"dense storage needs exactly m^4 = {m**4} entries")
        parsed = [_parse_value(v, mode) for v in entries]
        flat = np.arange(m**4)
        tensor = _place(m, mode, parsed, flat, flat, 1)
    elif storage == "sparse":
        if not isinstance(entries, list):
            raise FormatError("sparse storage needs a list of entries")
        parsed, sign, pick = [], {}, {}  # flat index -> its sign, and the entry it comes from
        for n, ent in enumerate(entries):
            if not isinstance(ent, dict) or not all(key in ent for key in "ijklv"):
                raise FormatError(f"entry {n} must be an object with keys i, j, k, l, v")
            idx = tuple(ent[key] for key in "ijkl")
            if not all(type(t) is int and 0 <= t < m for t in idx):  # JSON true and false are not indices
                raise FormatError(f"entry {n} has indices out of range for m={m}")
            v = _parse_value(ent["v"], mode)
            images = _orbit_images(*idx, m)
            if v != 0 and 0 in images.values():
                raise ConflictingEntry(idx, "the symmetries force this entry to be zero")
            for t, sgn in images.items():
                if t in pick and _values_conflict(old := sign[t] * parsed[pick[t]], sgn * v, mode):
                    raise ConflictingEntry(map(int, np.unravel_index(t, (m,) * 4)), f"{old} vs {sgn * v}")
                sign[t], pick[t] = sgn, n
            parsed.append(v)
        flat, signs, picks = (np.fromiter(it, np.intp, len(pick)) for it in (pick, sign.values(), pick.values()))
        tensor = _place(m, mode, parsed, flat, picks, signs)
    else:
        raise FormatError(f"unknown storage {storage!r}")
    report = validate(tensor, mode)
    if enforce and not report.accepted:
        worst = max(
            (name for name in report.violations if name != "bianchi"),
            key=lambda name: report.violations[name],
        )
        if not negligible(report.violations[worst], mode, tensor.max_abs()):
            raise ConflictingEntry(report.worst_index[worst], f"{worst} symmetry violated")
        raise BianchiViolation(report.violations["bianchi"], report.worst_index["bianchi"])
    return tensor, report


def load_tensor(path, tol: float = DEFAULT_TOL) -> CurvatureTensor:
    """Load and validate a tensor file (the documented external format)."""
    tensor, _ = tensor_from_doc(_load_doc(path), tol, enforce=True)
    return tensor


def _load_doc(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise FormatError(exc.msg, line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # integer literals past 4300 digits, deep nesting
        raise FormatError(f"cannot read JSON: {exc}") from exc
