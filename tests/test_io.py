"""The tensor file format on integer numerators, against the Fraction-array references.

``tensor_to_doc_reference`` and ``tensor_from_doc_reference`` below are the
saver and loader that ``actlab.io`` replaced: the saver built the
``Fraction`` components and kept an entry when it was the least image of its
orbit, and the loader filled an m^4 ``Fraction`` array before clearing it.
Documents must be equal byte for byte, and loaded tensors, validation
reports and errors must be equal too.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from actlab import (
    FLOAT,
    RATIONAL,
    BianchiViolation,
    ConflictingEntry,
    CurvatureTensor,
    FormatError,
    classify,
    combine,
    conjugate_structure,
    from_form,
    from_metric_components,
    load_tensor,
    r0,
    r_theta,
    random_act,
    rotate,
    save_tensor,
    standard_complex_structure,
    validate,
)
from actlab.cli import format_scalar, main
from actlab.io import MAX_M, _orbit_images, _values_conflict, tensor_from_doc, tensor_to_doc
from actlab.scalars import DEFAULT_TOL, ScalarMode, float_mode, negligible, zeros

from conftest import cayley_rotation

F = Fraction


# ---------------------------------------------------------------------------
# references: the Fraction-array saver and loader that io.py replaced
# ---------------------------------------------------------------------------


def parse_value_reference(raw, mode: ScalarMode):
    if isinstance(raw, float) and not math.isfinite(raw):
        raise FormatError(f"value {raw!r} is not finite")
    if isinstance(raw, float) and mode.exact:
        raise FormatError(f'rational value {raw!r} is a JSON float; the string "{raw!r}" loads exactly')
    try:  # the conversion itself, so the texts do not rest on the error class of mode.scalar
        return Fraction(raw) if mode.exact else float(Fraction(raw) if isinstance(raw, str) else raw)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise FormatError(f"cannot parse value {raw!r}: {exc}") from exc


def orbit_images_reference(i, j, k, l):
    images = {}
    for t1, s1 in (((i, j, k, l), 1), ((j, i, k, l), -1)):
        for t2, s2 in ((t1, s1), ((t1[0], t1[1], t1[3], t1[2]), -s1)):
            for t3, s3 in ((t2, s2), ((t2[2], t2[3], t2[0], t2[1]), s2)):
                if t3 in images and images[t3] != s3:
                    return None
                images[t3] = s3
    return images


def tensor_to_doc_reference(R, storage="sparse"):
    if storage not in ("sparse", "dense"):
        raise FormatError(f"unknown storage {storage!r}")
    exact = R.mode.exact
    doc = {"m": R.m, "scalar": "rational" if exact else "float", "storage": storage}
    comps = R.components
    if storage == "dense":
        doc["entries"] = [format_scalar(v) if exact else float(v) for v in comps.reshape(-1)]
        return doc
    entries = []
    for i, j, k, l in np.argwhere(R.values).tolist():
        images = orbit_images_reference(i, j, k, l)
        if min(images) != (i, j, k, l):
            continue
        v = comps[i, j, k, l]
        entries.append({"i": i, "j": j, "k": k, "l": l, "v": format_scalar(v) if exact else float(v)})
    doc["entries"] = entries
    return doc


def tensor_from_doc_reference(doc, tol=DEFAULT_TOL, enforce=True):
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
        flat = [parse_value_reference(v, mode) for v in entries]
        comps = np.array(flat, dtype=object if mode.exact else float).reshape((m,) * 4)
    elif storage == "sparse":
        if not isinstance(entries, list):
            raise FormatError("sparse storage needs a list of entries")
        acc = {}
        for n, ent in enumerate(entries):
            if not isinstance(ent, dict) or not all(key in ent for key in "ijklv"):
                raise FormatError(f"entry {n} must be an object with keys i, j, k, l, v")
            idx = tuple(ent[key] for key in "ijkl")
            if not all(isinstance(t, int) and 0 <= t < m for t in idx):
                raise FormatError(f"entry {n} has indices out of range for m={m}")
            v = parse_value_reference(ent["v"], mode)
            images = orbit_images_reference(*idx)
            if images is None:
                if v != 0:
                    raise ConflictingEntry(idx, "the symmetries force this entry to be zero")
                images = {idx: 1}
            for t, sgn in images.items():
                val = sgn * v
                if t in acc and _values_conflict(acc[t], val, mode):
                    raise ConflictingEntry(t, f"{acc[t]} vs {val}")
                acc[t] = val
        comps = zeros((m,) * 4, mode)
        for t, val in acc.items():
            comps[t] = val
    else:
        raise FormatError(f"unknown storage {storage!r}")
    tensor = CurvatureTensor(m, comps, mode)
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


# ---------------------------------------------------------------------------
# the oracle corpus
# ---------------------------------------------------------------------------


def oracle_corpus():
    """Exact and float tensors at m 2-10 and one at m=16, with big numerators and denominators."""
    out = []
    for m in range(2, 11):
        out.append(r0(m, F(-7, 3)))
        out.append(random_act(m, 3, 40 + m))
        a = np.random.default_rng(m).integers(-2, 3, size=(m, m))
        out.append(from_form([[F(int(a[i, j] + a[j, i]), 2) for j in range(m)] for i in range(m)], RATIONAL))
        out.append(combine([(F(2, 5), r0(m, 1)), (F(1, 3), random_act(m, 2, m))]))
        out.append(combine([(F(3, 2**70), r0(m, 1)), (2**64, random_act(m, 2, m))]))  # past 2^62
        out.append(random_act(m, 3, m).to_float())
        out.append(r0(m, 1e-7, FLOAT))
        if m % 2 == 0 and m <= 8:
            cs = conjugate_structure(standard_complex_structure(m), cayley_rotation(m, m, span=1))
            out.append(combine([(F(1, 7), r0(m, 1)), (F(3, 2), r_theta(cs, 1))]))
    out.append(combine([(0, r0(4, 1))]))  # the zero tensor
    out.append(combine([(0, r0(3, 1.0, FLOAT))]))
    out.append(combine([(F(1, 7), r0(16, 1)), (F(3, 2), r_theta(standard_complex_structure(16), 1))]))
    return out


CORPUS = oracle_corpus()
IDS = [f"m{R.m}-{'exact' if R.mode.exact else 'float'}-{n}" for n, R in enumerate(CORPUS)]


def report_fields(report):
    return (report.m, report.mode, report.violations, report.worst_index, report.threshold, report.accepted)


@pytest.mark.parametrize("storage", ["sparse", "dense"])
@pytest.mark.parametrize("R", CORPUS, ids=IDS)
def test_matches_reference(R, storage):
    doc = tensor_to_doc(R, storage)
    want_doc = tensor_to_doc_reference(R, storage)
    assert json.dumps(doc, indent=1) == json.dumps(want_doc, indent=1)
    got, report = tensor_from_doc(doc, enforce=False)
    want, want_report = tensor_from_doc_reference(want_doc, enforce=False)
    assert got.values.dtype == want.values.dtype
    assert got.values.tolist() == want.values.tolist()
    assert all(type(a) is type(b) for a, b in zip(got.values.ravel().tolist(), want.values.ravel().tolist()))
    assert (got.denominator, got.mode) == (want.denominator, want.mode)
    assert report_fields(report) == report_fields(want_report)


def sparse(m, *entries, scalar="rational"):
    return {
        "m": m,
        "scalar": scalar,
        "storage": "sparse",
        "entries": [dict(zip("ijklv", e)) for e in entries],
    }


BAD_DOCS = [
    [1, 2],
    {"m": 3, "scalar": "rational", "storage": "sparse"},
    {"m": 1, "scalar": "rational", "storage": "sparse", "entries": []},
    {"m": 33, "scalar": "rational", "storage": "dense", "entries": []},
    {"m": 3, "scalar": "complex", "storage": "sparse", "entries": []},
    {"m": 3, "scalar": "rational", "storage": "packed", "entries": []},
    {"m": 3, "scalar": "rational", "storage": "dense", "entries": [0]},
    {"m": 3, "scalar": "rational", "storage": "sparse", "entries": {}},
    sparse(3, (0, 1, 1, 0)),
    sparse(3, (0, 1, 1, 3, "1")),
    sparse(3, (0, 1, 1, 0, "1/0")),
    sparse(3, (0, 1, 1, 0, "x")),
    sparse(3, (0, 1, 1, 0, float("nan")), scalar="float"),
    sparse(3, (0, 1, 1, 0, 0.1)),  # a JSON float in a rational file
    {"m": 3, "scalar": "rational", "storage": "dense", "entries": [0.0] * 81},
    sparse(3, (0, 1, 1, 0, "1"), (1, 0, 1, 0, "1")),  # conflicting
    sparse(3, (0, 1, 1, 0, "1/2"), (0, 1, 1, 0, "2/3")),
    sparse(3, (0, 1, 1, 0, 1.0), (1, 0, 0, 1, 1.5), scalar="float"),
    sparse(3, (0, 0, 1, 0, "1")),  # forced to zero
    sparse(4, (0, 1, 2, 3, "1")),  # Bianchi
    sparse(4, (0, 1, 2, 3, 1.0), scalar="float"),
    {"m": 3, "scalar": "rational", "storage": "dense", "entries": ["1"] + ["0"] * 80},  # antisymmetry
]


@pytest.mark.parametrize("doc", BAD_DOCS, ids=[f"bad{n}" for n in range(len(BAD_DOCS))])
def test_errors_match_reference(doc):
    with pytest.raises(Exception) as want:
        tensor_from_doc_reference(doc)
    with pytest.raises(type(want.value)) as got:
        tensor_from_doc(doc)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_orbit_images_match_reference():
    m = 4
    flat = {u: int(np.ravel_multi_index(u, (m,) * 4)) for u in itertools.product(range(m), repeat=4)}
    for t in flat:
        want = orbit_images_reference(*t)
        want = [(flat[t], 0)] if want is None else [(flat[u], s) for u, s in want.items()]
        assert list(_orbit_images(*t, m).items()) == want


def test_sparse_exact_load_builds_few_fractions(tmp_path):
    R = combine([(F(2, 5), r0(12, 1)), (F(1, 3), r_theta(standard_complex_structure(12), 1))])
    path = tmp_path / "t.json"
    save_tensor(R, path)
    assert len(json.loads(path.read_text())["entries"]) == 111
    new = vars(Fraction)["__new__"]
    count = 0

    def spy(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = spy
    try:
        loaded = load_tensor(str(path))
    finally:
        Fraction.__new__ = new
    assert count < 12**4 // 4  # the Fraction-array loader built more than m^4
    assert (loaded.values == R.values).all() and loaded.denominator == R.denominator


# ---------------------------------------------------------------------------
# hostile values fail fast, with one error line
# ---------------------------------------------------------------------------


def validate_error(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FormatError: ") and captured.err.count("\n") == 1


def one_entry(v):
    return json.dumps(sparse(3, (0, 1, 1, 0, v)))


class TestHostileValues:
    def test_integer_literal_past_digit_limit(self, tmp_path, capsys):
        validate_error(tmp_path, capsys, one_entry(0).replace('"v": 0', '"v": ' + "7" * 5000))

    def test_deep_nesting(self, tmp_path, capsys):
        validate_error(tmp_path, capsys, "[" * 200_000 + "]" * 200_000)

    @pytest.mark.parametrize("v", ["1e1000000", "1e-1000000", "-2.5E+1_000_000", "1e4301"])
    def test_decimal_exponent_past_limit(self, tmp_path, capsys, v):
        validate_error(tmp_path, capsys, one_entry(v))
        assert main(["gen", "--type", "r0", "--m", "3", f"--c={v}", "-o", str(tmp_path / "g.json")]) == 1
        assert "error: FormatError: " in capsys.readouterr().err

    def test_decimal_exponent_at_limit_loads(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(sparse(3, (0, 1, 1, 0, "1e-4299"))))
        assert load_tensor(str(path)).denominator == 10**4299

    @pytest.mark.parametrize("v", ["1e4300", "1e-4300", "-12345e4296"])
    def test_value_past_digit_limit(self, tmp_path, capsys, v):
        # inside the exponent limit, but 4301 digits long, so it could not be printed
        validate_error(tmp_path, capsys, one_entry(v))
        assert main(["gen", "--type", "r0", "--m", "3", f"--c={v}", "-o", str(tmp_path / "g.json")]) == 1
        assert "error: FormatError: " in capsys.readouterr().err

    def test_computed_value_past_digit_limit_fails_to_save(self, tmp_path, capsys):
        # c has 4300 digits, and the entries of c R_Theta reach 2c
        out = tmp_path / "g.json"
        assert main(["gen", "--type", "rtheta", "--m", "4", "--c=9e4299", "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: FormatError: ")
        assert not out.exists()

    @pytest.mark.parametrize("ent", [(False, True, True, False, True), (0, 1, 1, 0, True)])
    def test_booleans(self, tmp_path, capsys, ent):
        validate_error(tmp_path, capsys, json.dumps(sparse(3, ent)))

    def test_json_float_in_rational_file(self, tmp_path, capsys):
        # 0.1 would load as 3602879701896397/2^55; JSON integers stay exact
        validate_error(tmp_path, capsys, one_entry(0.1))
        path = tmp_path / "integer.json"
        path.write_text(one_entry(-3))
        R = load_tensor(path)
        assert R.mode.exact and R.values[0, 1, 1, 0] == -3 and R.denominator == 1


# ---------------------------------------------------------------------------
# float tensors with residue where the symmetries force zero
# ---------------------------------------------------------------------------


def residue_tensors():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    a = np.random.default_rng(0).standard_normal((4, 4))
    return [
        rotate(r_theta(standard_complex_structure(4, FLOAT), 1.0), q),
        from_metric_components(r0(4, 1.0, FLOAT).values, a @ a.T + 4 * np.eye(4)),
    ]


@pytest.mark.parametrize("R", residue_tensors(), ids=["rotated-rtheta", "metric"])
def test_float_residue_round_trip(tmp_path, R):
    assert any(i == j or k == l for i, j, k, l in np.argwhere(R.values).tolist())  # forced to zero
    path = tmp_path / "r.json"
    save_tensor(R, path)
    loaded = load_tensor(str(path))
    assert np.abs(loaded.values - R.values).max() <= R.mode.tol * R.max_abs()
    want, got = classify(R), classify(loaded)
    assert got.tag == want.tag
    assert (got.c is None) == (want.c is None)
    if want.c is not None:
        assert abs(got.c - want.c) <= 1e-12
