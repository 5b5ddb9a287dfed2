"""Tensor file format (orbit completion, roundtrips) and the CLI contract."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from actlab import (
    BianchiViolation,
    ConflictingEntry,
    FormatError,
    combine,
    conjugate_structure,
    load_tensor,
    r0,
    r_theta,
    random_act,
    save_tensor,
    standard_complex_structure,
)
from actlab import cli, io
from actlab.cli import main
from actlab.io import tensor_from_doc, tensor_to_doc

from conftest import cayley_rotation


def write_doc(tmp_path, doc, name="t.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestFileFormat:
    def test_single_entry_orbit_completion(self, tmp_path):
        doc = {
            "m": 3,
            "scalar": "rational",
            "storage": "sparse",
            "entries": [{"i": 0, "j": 1, "k": 1, "l": 0, "v": "1"}],
        }
        t = load_tensor(write_doc(tmp_path, doc))
        assert t.components[0, 1, 1, 0] == 1
        assert t.components[1, 0, 1, 0] == -1
        assert t.components[0, 1, 0, 1] == -1
        assert t.components[1, 0, 0, 1] == 1
        nonzero = sum(
            1
            for i in range(3)
            for j in range(3)
            for k in range(3)
            for l in range(3)
            if t.components[i, j, k, l] != 0
        )
        assert nonzero == 4  # the given entry plus its 3 orbit images

    def test_conflicting_entries_rejected(self, tmp_path):
        doc = {
            "m": 3,
            "scalar": "rational",
            "storage": "sparse",
            "entries": [
                {"i": 0, "j": 1, "k": 1, "l": 0, "v": "1"},
                {"i": 1, "j": 0, "k": 1, "l": 0, "v": "1"},
            ],
        }
        with pytest.raises(ConflictingEntry):
            load_tensor(write_doc(tmp_path, doc))

    def test_self_conflicting_index_must_be_zero(self, tmp_path):
        doc = {
            "m": 3,
            "scalar": "rational",
            "storage": "sparse",
            "entries": [{"i": 0, "j": 0, "k": 1, "l": 0, "v": "1"}],
        }
        with pytest.raises(ConflictingEntry):
            load_tensor(write_doc(tmp_path, doc))

    def test_bianchi_violation_detected(self, tmp_path):
        doc = {
            "m": 4,
            "scalar": "rational",
            "storage": "sparse",
            "entries": [{"i": 0, "j": 1, "k": 2, "l": 3, "v": "1"}],
        }
        with pytest.raises(BianchiViolation):
            load_tensor(write_doc(tmp_path, doc))

    def test_format_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FormatError):
            load_tensor(str(bad))
        with pytest.raises(FormatError):
            load_tensor(write_doc(tmp_path, {"m": 3, "scalar": "rational", "storage": "dense", "entries": [0]}))
        with pytest.raises(FormatError):
            load_tensor(write_doc(tmp_path, {"m": 1, "scalar": "rational", "storage": "sparse", "entries": []}))
        with pytest.raises(FormatError):
            load_tensor(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, tmp_path, storage, bad):
        # json writes these as the non-standard tokens NaN and Infinity
        doc = tensor_to_doc(r0(3, 1).to_float(), storage)
        if storage == "dense":
            doc["entries"][5] = bad
        else:
            doc["entries"][0]["v"] = bad
        with pytest.raises(FormatError, match="not finite"):
            load_tensor(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_dimension_capped_before_allocating(self, tmp_path, storage, monkeypatch):
        class Allocated(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(io, "_place", refuse)
        doc = {"m": 33, "scalar": "rational", "storage": storage, "entries": []}
        with pytest.raises(FormatError, match="between 2 and 32"):
            load_tensor(write_doc(tmp_path, doc))
        if storage == "sparse":  # the cap admits m = 32, which reaches the allocation
            with pytest.raises(Allocated):
                load_tensor(write_doc(tmp_path, dict(doc, m=32)))

    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_rational_roundtrip_lossless(self, tmp_path, storage):
        R = combine(
            [
                (Fraction(5, 3), r0(4, 1)),
                (Fraction(-2, 7), r_theta(standard_complex_structure(4), 1)),
            ]
        )
        path = tmp_path / f"{storage}.json"
        save_tensor(R, path, storage)
        loaded = load_tensor(str(path))
        assert loaded.mode.exact
        assert (loaded.components == R.components).all()

    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_float_roundtrip(self, tmp_path, storage):
        R = random_act(3, 2, seed=4).to_float()
        path = tmp_path / f"f{storage}.json"
        save_tensor(R, path, storage)
        loaded = load_tensor(str(path))
        assert not loaded.mode.exact
        assert np.array_equal(loaded.components, R.components)

    def test_rtheta_dump_reload_exact(self, tmp_path):
        R = r_theta(standard_complex_structure(4), 2)
        path = tmp_path / "rt.json"
        save_tensor(R, path, "sparse")
        again = load_tensor(str(path))
        assert (again.components == R.components).all()

    def test_doc_validation_report_mode(self):
        doc = tensor_to_doc(r0(3, 2), "dense")
        doc["entries"][1] = "1"  # breaks antisymmetry
        _, report = tensor_from_doc(doc, enforce=False)
        assert not report.accepted


class TestCliCommands:
    def test_gen_r0_classify(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "r0", "--m", "4", "--c", "5", "-o", out]) == 0
        code = main(["classify", out])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert "tag=ConstantCurvature" in lines
        assert "c=5" in lines
        assert "residual=0" in lines

    def test_gen_rtheta_tsankov_exact(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "rtheta", "--m", "4", "--c", "2", "-o", out]) == 0
        code = main(["tsankov", out, "--method", "exact"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert "holds=true" in lines
        assert "method=ExactDivisibility" in lines

    def test_gen_combo_classify_not_tsankov(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "combo", "--m", "4", "-o", out]) == 0
        code = main(["classify", out])
        text = capsys.readouterr().out
        assert code == 1
        assert "tag=NotTsankov" in text
        norm = next(l.split("=", 1)[1] for l in text.splitlines() if l.startswith("comm_norm="))
        assert Fraction(norm) >= Fraction(3, 2)
        assert any(l.startswith("witness_x=") for l in text.splitlines())

    @pytest.mark.parametrize("command", ["tsankov", "classify"])
    def test_output_past_digit_limit_is_a_format_error(self, tmp_path, capsys, command):
        # every entry loads (about 2200 digits), but the witness norm is
        # quadratic in R and passes Python's 4300-digit limit
        out = str(tmp_path / "t.json")
        save_tensor(combine([(10**2200, random_act(4, 2, seed=1))]), out)
        assert main([command, out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: FormatError: ") and captured.err.count("\n") == 1
        assert captured.out == ""  # no key=value lines before the failing value

    @pytest.mark.parametrize("command", [["jacobi", "--x", "1,0,0"], ["report"], ["osserman"]])
    def test_values_past_the_float_range_are_degenerate_input(self, tmp_path, capsys, command):
        # the file is legal and decides exactly, but its float spectra cannot hold 1e400
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "r0", "--m", "3", "--c", "1e400", "-o", out]) == 0
        capsys.readouterr()
        assert main([command[0], out, *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: DegenerateInput: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert main(["classify", out]) == 0
        assert "residual=0" in capsys.readouterr().out.splitlines()

    def test_float_jacobi_past_the_float_range_is_degenerate_input(self, tmp_path, capsys):
        # the float file is legal, but J(x) overflows; eigvalsh used to end in a LinAlgError traceback
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "r0", "--m", "3", "--c", "1e300", "--mode", "float", "-o", out]) == 0
        capsys.readouterr()
        assert main(["jacobi", out, "--x", "1e10,0,0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: DegenerateInput: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command", [["classify"], ["tsankov"], ["tsankov", "--method", "sampled"], ["osserman"], ["report"]]
    )
    def test_negative_seeds_are_usage_errors(self, tmp_path, capsys, command):
        # a negative seed used to reach numpy's default_rng and end in its ValueError traceback
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "random", "--m", "3", "-o", out]) == 0
        capsys.readouterr()
        assert main([command[0], out, *command[1:], "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must be a non-negative integer, got '-1'" in captured.err
        neg = tmp_path / "neg.json"
        assert main(["gen", "--type", "random", "--m", "3", "--seed", "-1", "-o", str(neg)]) == 2
        assert not neg.exists() and capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command, least",
        [(["tsankov"], 1), (["tsankov", "--method", "sampled"], 1), (["report"], 1), (["osserman"], 2)],
    )
    @pytest.mark.parametrize("below", [True, False])
    def test_samples_below_their_least_are_usage_errors(self, tmp_path, capsys, command, least, below):
        # a --samples below its least value used to reach the library and exit 1 with DegenerateInput
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "random", "--m", "3", "-o", out]) == 0
        capsys.readouterr()
        raw = str(least - 1) if below else "abc"
        assert main([command[0], out, *command[1:], "--samples", raw]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"actlab {command[0]}: error: argument --samples: samples must be an integer >= {least}, got '{raw}'"
        ]

    @pytest.mark.parametrize("raw", ["0", "-2", "abc"])
    def test_k_below_one_is_a_usage_error(self, tmp_path, capsys, raw):
        # --k 0 used to reach random_act and exit 1 with InvalidDimension
        out = tmp_path / "k.json"
        assert main(["gen", "--type", "random", "--m", "3", "--k", raw, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"actlab gen: error: argument --k: k must be an integer >= 1, got '{raw}'"
        ]
        assert main(["gen", "--type", "random", "--m", "3", "--k", "1", "-o", str(out)]) == 0

    def test_validate_command(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        main(["gen", "--type", "random", "--m", "3", "--seed", "5", "-o", out])
        assert main(["validate", out]) == 0
        text = capsys.readouterr().out
        assert "symmetry=bianchi max_violation=0" in text
        assert "accepted=true" in text

    def test_validate_rejects_broken_dense(self, tmp_path, capsys):
        doc = tensor_to_doc(r0(3, 1), "dense")
        doc["entries"][0] = "7"  # R[0,0,0,0] must vanish by antisymmetry
        path = write_doc(tmp_path, doc)
        assert main(["validate", path]) == 1
        assert "accepted=false" in capsys.readouterr().out

    def test_jacobi_command(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        main(["gen", "--type", "rtheta", "--m", "4", "--c", "1", "-o", out])
        assert main(["jacobi", out, "--x", "1,0,0,0"]) == 0
        text = capsys.readouterr().out
        assert "jacobi_row_1=0,3,0,0" in text
        assert "spectrum=" in text

    def test_osserman_command(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        main(["gen", "--type", "r0", "--m", "4", "--c", "2", "-o", out])
        assert main(["osserman", out, "--samples", "20", "--seed", "1"]) == 0
        assert "is_osserman=true" in capsys.readouterr().out

    def test_report_command_csv(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        main(["gen", "--type", "rtheta", "--m", "4", "--c", "1", "-o", out])
        assert main(["report", out, "--samples", "5", "--seed", "2"]) == 0
        text = capsys.readouterr().out
        assert "rank_hist_1=5" in text
        assert "sample,rank,w_dim,eig0,eig1,eig2,eig3" in text
        assert text.count("\n1,1,2,") == 1  # sample line with rank 1, w dim 2

    def test_gauss_generator_diag(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "gauss", "--m", "3", "--diag", "2,2,2", "-o", out]) == 0
        code = main(["classify", out])
        text = capsys.readouterr().out
        assert code == 0 and "tag=ConstantCurvature" in text and "c=4" in text

    def test_gauss_generator_phi_file(self, tmp_path, capsys):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"phi": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]}))
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "gauss", "--m", "3", "--phi", str(phi), "-o", out]) == 0
        code = main(["classify", out])
        capsys.readouterr()
        assert code == 1  # distinct diagonal: not commutation-closed

    def test_gauss_generator_phi_file_without_phi_key(self, tmp_path, capsys):
        phi = tmp_path / "phi.json"
        phi.write_text("{}")
        out = str(tmp_path / "t.json")
        assert main(["gen", "--type", "gauss", "--m", "3", "--phi", str(phi), "-o", out]) == 1
        assert capsys.readouterr().err.startswith("error: FormatError: ")

    def test_gauss_generator_phi_rows_not_lists(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        bad = ([1, 2], {"phi": 5}, {"phi": [["1", "0"], ["0"]]}, [["1", "x"], ["0", "1"]], [["1"]])
        for rows in bad:
            phi = tmp_path / "phi.json"
            phi.write_text(json.dumps(rows))
            assert main(["gen", "--type", "gauss", "--m", "2", "--phi", str(phi), "-o", out]) == 1
            assert capsys.readouterr().err.startswith("error: FormatError: ")

    @pytest.mark.parametrize("kind", ["r0", "rtheta", "gauss", "random", "combo"])
    def test_gen_dimension_capped_before_building(self, tmp_path, capsys, monkeypatch, kind):
        class Built(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Built

        for name in ("r0", "r_theta", "standard_complex_structure", "from_form", "random_act", "combine"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "t.json"
        for m in (1, 33):
            diag = ["--diag", ",".join(["1"] * m)] if kind == "gauss" else []
            assert main(["gen", "--type", kind, "--m", str(m), *diag, "-o", str(out)]) == 1
            captured = capsys.readouterr()
            assert "wrote=" not in captured.out
            assert captured.err.startswith("error: FormatError: m must be an integer between 2 and 32")
            assert not out.exists()

    def test_zero_tensor_classifies_with_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "z.json")
        assert main(["gen", "--type", "combo", "--m", "4", "--c", "0", "--c2", "0", "-o", out]) == 0
        assert main(["classify", out]) == 0
        assert "tag=Zero" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_module_entry_point_runs_the_command(self, tmp_path):
        import actlab

        src = str(Path(actlab.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "actlab.cli", "validate", "missing.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert any(line.startswith("error: FormatError: ") for line in proc.stderr.splitlines())

    def test_error_exit_code_and_name(self, tmp_path, capsys):
        doc = {
            "m": 3,
            "scalar": "rational",
            "storage": "sparse",
            "entries": [
                {"i": 0, "j": 1, "k": 1, "l": 0, "v": "1"},
                {"i": 1, "j": 0, "k": 1, "l": 0, "v": "1"},
            ],
        }
        path = write_doc(tmp_path, doc)
        assert main(["classify", path]) == 1
        err = capsys.readouterr().err
        assert "ConflictingEntry" in err

    def test_byte_identical_output(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        main(["gen", "--type", "combo", "--m", "4", "-o", out])
        capsys.readouterr()
        main(["classify", out, "--seed", "11"])
        first = capsys.readouterr().out
        main(["classify", out, "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second
        main(["report", out, "--samples", "6", "--seed", "3"])
        r1 = capsys.readouterr().out
        main(["report", out, "--samples", "6", "--seed", "3"])
        r2 = capsys.readouterr().out
        assert r1 == r2

    def test_classify_output_pinned_on_cayley_rotated_rtheta(self, tmp_path, capsys):
        # exact c R_Theta whose Theta has denominators, from a Cayley rotation
        cs = conjugate_structure(standard_complex_structure(8), cayley_rotation(8, 4))
        path = str(tmp_path / "rt8.json")
        save_tensor(r_theta(cs, Fraction(-7, 3)), path)
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "tag=ComplexForm",
            "c=-7/3",
            "theta_row_0=0,-497977/857486,173085/857486,494607/857486,-145786/428743,"
            "-268139/857486,112926/428743,34586/428743",
            "theta_row_1=497977/857486,0,268857/857486,62145/857486,-47017/857486,"
            "166076/428743,-11984/61249,260034/428743",
            "theta_row_2=-173085/857486,-268857/857486,0,109960/428743,102013/122498,"
            "238015/857486,51930/428743,42752/428743",
            "theta_row_3=-494607/857486,-62145/857486,-109960/428743,0,-349351/857486,"
            "487855/857486,38650/428743,134532/428743",
            "theta_row_4=145786/428743,47017/857486,-102013/122498,349351/857486,0,"
            "-6949/857486,-63034/428743,5998/428743",
            "theta_row_5=268139/857486,-166076/428743,-238015/857486,-487855/857486,"
            "6949/857486,0,250412/428743,43394/428743",
            "theta_row_6=-112926/428743,11984/61249,-51930/428743,-38650/428743,"
            "63034/428743,-250412/428743,0,305223/428743",
            "theta_row_7=-34586/428743,-260034/428743,-42752/428743,-134532/428743,"
            "-5998/428743,-43394/428743,-305223/428743,0",
            "residual=0",
        ]

    def test_act_tol_env(self, tmp_path, capsys, monkeypatch):
        # a float tensor with a tiny symmetry defect passes under a loose
        # tolerance and fails under a tight one
        R = r0(3, 1).to_float()
        comps = R.components.copy()
        comps[0, 1, 1, 0] += 1e-7
        doc = {
            "m": 3,
            "scalar": "float",
            "storage": "dense",
            "entries": [float(v) for v in comps.reshape(-1)],
        }
        path = write_doc(tmp_path, doc)
        monkeypatch.setenv("ACT_TOL", "1e-3")
        assert main(["validate", path]) == 0
        capsys.readouterr()
        monkeypatch.setenv("ACT_TOL", "1e-12")
        assert main(["validate", path]) == 1
        capsys.readouterr()
        for bad in ("not-a-number", "0", "-1", "nan", "inf"):
            monkeypatch.setenv("ACT_TOL", bad)
            assert main(["validate", path]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ACT_TOL ")
