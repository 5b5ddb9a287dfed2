"""The ``actlab`` command.

Subcommands: gen, validate, jacobi, tsankov, classify, osserman, report.
Each reads or writes tensor files through :mod:`actlab.io`, which owns the
file format, and prints ``key=value`` lines.  Exit codes: 0 on success /
property holds, 1 on computational errors or negative decisions, 2 on
usage errors.  A command's lines reach stdout only once it returns, so a
command that fails prints none.  The environment variable ACT_TOL overrides
the default float tolerance; it must be a positive finite number.  Run as
``actlab`` or ``python -m actlab.cli``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from io import StringIO

import numpy as np

from .classify import classify, osserman_check, structure_report
from .errors import ActError, FormatError
from .io import MAX_M, _load_doc, _parse_value, load_tensor, save_tensor, tensor_from_doc
from .jacobi import jacobi
from .scalars import DEFAULT_TOL, RATIONAL, ScalarMode, float_array, float_mode, zeros
from .tensors import combine, from_form, r0, r_theta, random_act, standard_complex_structure
from .tsankov import tsankov_test

__all__ = ["save_tensor", "load_tensor", "main", "console_main"]


def format_scalar(v) -> str:
    try:
        if isinstance(v, Fraction):
            return str(v)
        if isinstance(v, (int, np.integer)):
            return str(int(v))
    except ValueError as exc:  # a computed value can pass Python's integer-digit limit
        raise FormatError(f"cannot print value: {exc}") from exc
    return repr(float(v))


def format_vector(vec) -> str:
    return ",".join(format_scalar(v) for v in vec)


def _parse_vector_arg(raw: str, mode: ScalarMode, m: int):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != m:
        raise FormatError(f"--x needs {m} comma-separated components, got {len(parts)}")
    return [_parse_value(p, mode) for p in parts]


def _cmd_gen(args, tol):
    if not 2 <= args.m <= MAX_M:  # the file cap, checked before m^4 entries are built
        raise FormatError(f"m must be an integer between 2 and {MAX_M}")
    mode = RATIONAL if args.mode == "rational" else float_mode(tol)
    c = _parse_value(args.c, mode)
    if args.type == "r0":
        tensor = r0(args.m, c, mode)
    elif args.type == "rtheta":
        tensor = r_theta(standard_complex_structure(args.m, mode), c)
    elif args.type == "gauss":
        if args.diag:
            diag = [_parse_value(p, mode) for p in args.diag.split(",")]
            if len(diag) != args.m:
                raise FormatError(f"--diag needs {args.m} entries")
            phi = zeros((args.m, args.m), mode)
            np.fill_diagonal(phi, diag)
        elif args.phi:
            doc = _load_doc(args.phi)
            rows = doc.get("phi") if isinstance(doc, dict) else doc
            if not (isinstance(rows, list) and len(rows) == args.m) or any(
                not isinstance(row, list) or len(row) != args.m for row in rows
            ):
                raise FormatError(f"--phi needs {args.m} rows of {args.m} entries")
            phi = np.array(
                [[_parse_value(v, mode) for v in row] for row in rows],
                dtype=object if mode.exact else float,
            )
        else:
            raise FormatError("gauss needs --phi FILE or --diag LIST")
        tensor = from_form(phi, mode)
    elif args.type == "random":
        tensor = random_act(args.m, args.k, args.seed, mode)
    elif args.type == "combo":
        c2 = _parse_value(args.c2, mode)
        tensor = combine(
            [(c, r0(args.m, 1, mode)), (c2, r_theta(standard_complex_structure(args.m, mode), 1))]
        )
    else:  # pragma: no cover - argparse restricts choices
        raise FormatError(f"unknown generator type {args.type!r}")
    save_tensor(tensor, args.output, args.storage)
    print(f"wrote={args.output}")
    return 0


def _cmd_validate(args, tol):
    doc = _load_doc(args.file)
    _, report = tensor_from_doc(doc, tol, enforce=False)
    for line in report.lines():
        print(line)
    return 0 if report.accepted else 1


def _cmd_jacobi(args, tol):
    tensor = load_tensor(args.file, tol)
    x = _parse_vector_arg(args.x, tensor.mode, tensor.m)
    j = jacobi(tensor, x)
    for i in range(tensor.m):
        print(f"jacobi_row_{i}={format_vector(j[i, :])}")
    spectrum = np.linalg.eigvalsh(float_array(j))
    print(f"spectrum={format_vector(spectrum)}")
    return 0


def _print_witness(witness):
    if witness is not None:
        print(f"witness_x={format_vector(witness.x)}")
        print(f"witness_y={format_vector(witness.y)}")
        print(f"comm_norm={format_scalar(witness.commutator_norm)}")


def _cmd_tsankov(args, tol):
    tensor = load_tensor(args.file, tol)
    verdict = tsankov_test(tensor, args.method, n_samples=args.samples, seed=args.seed)
    print(f"holds={'true' if verdict.holds else 'false'}")
    print(f"method={verdict.method}")
    _print_witness(verdict.witness)
    return 0 if verdict.holds else 1


def _cmd_classify(args, tol):
    tensor = load_tensor(args.file, tol)
    result = classify(tensor, seed=args.seed)
    print(f"tag={result.tag}")
    if result.c is not None:
        print(f"c={format_scalar(result.c)}")
    if result.theta is not None:
        for i, row in enumerate(result.theta.theta):
            print(f"theta_row_{i}={format_vector(row)}")
    if result.residual is not None:
        print(f"residual={format_scalar(result.residual)}")
    _print_witness(result.witness)
    return 0 if result.tag in ("Zero", "ConstantCurvature", "ComplexForm") else 1


def _cmd_osserman(args, tol):
    tensor = load_tensor(args.file, tol)
    report = osserman_check(tensor, n_samples=args.samples, seed=args.seed)
    print(f"is_osserman={'true' if report.is_osserman else 'false'}")
    print(f"spectrum={format_vector(report.reference_spectrum)}")
    print(f"max_deviation={repr(report.max_deviation)}")
    print(f"n_samples={report.n_samples}")
    return 0


def _cmd_report(args, tol):
    tensor = load_tensor(args.file, tol)
    report = structure_report(tensor, n_samples=args.samples, seed=args.seed)
    print(f"n_samples={report.n_samples}")
    print(f"tsankov={'true' if report.tsankov_holds else 'false'}")
    if report.two_eigenvalue_ok is None:
        print("two_eigenvalue_check=skipped")
    else:
        print(f"two_eigenvalue_check={'pass' if report.two_eigenvalue_ok else 'fail'}")
    for rank in sorted(report.rank_histogram):
        print(f"rank_hist_{rank}={report.rank_histogram[rank]}")
    header = ["sample", "rank", "w_dim"] + [f"eig{i}" for i in range(tensor.m)]
    print(",".join(header))
    for idx, (rank, wdim, spec) in enumerate(zip(report.ranks, report.w_dims, report.spectra)):
        row = [str(idx), str(rank), str(wdim)] + [repr(v) for v in spec]
        print(",".join(row))
    return 0


def _at_least(least: int, name: str, raw: str) -> int:
    """An integer option ``name`` of at least ``least``, else a usage error (exit 2)."""
    try:
        value = int(raw)
    except ValueError:
        value = least - 1
    if value < least:
        rule = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actlab",
        description="Generate, validate, and classify algebraic curvature tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed, samples = partial(_at_least, 0, "seed"), partial(_at_least, 1, "samples")

    gen = sub.add_parser("gen", help="write a tensor file")
    gen.add_argument("--type", required=True, choices=["r0", "rtheta", "gauss", "random", "combo"])
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--c", default="1", help="curvature scale (combo: the r0 coefficient)")
    gen.add_argument("--c2", default="1", help="combo only: the rtheta coefficient")
    gen.add_argument("--k", type=partial(_at_least, 1, "k"), default=3, help="random only: number of generators")
    gen.add_argument("--seed", type=seed, default=0)
    gen.add_argument("--phi", help="gauss only: JSON file with the symmetric form")
    gen.add_argument("--diag", help="gauss only: comma-separated diagonal")
    gen.add_argument("--mode", choices=["rational", "float"], default="rational")
    gen.add_argument("--storage", choices=["sparse", "dense"], default="sparse")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    val = sub.add_parser("validate", help="check the tensor symmetries")
    val.add_argument("file")
    val.set_defaults(func=_cmd_validate)

    jac = sub.add_parser("jacobi", help="print J(x) and its spectrum")
    jac.add_argument("file")
    jac.add_argument("--x", required=True, help="comma-separated components")
    jac.set_defaults(func=_cmd_jacobi)

    tsk = sub.add_parser("tsankov", help="decide commutation on orthogonal pairs")
    tsk.add_argument("file")
    tsk.add_argument("--method", choices=["exact", "sampled"], default="exact")
    tsk.add_argument("--samples", type=samples, default=200)
    tsk.add_argument("--seed", type=seed, default=0)
    tsk.set_defaults(func=_cmd_tsankov)

    cls = sub.add_parser("classify", help="run the full classification")
    cls.add_argument("file")
    cls.add_argument("--seed", type=seed, default=0)
    cls.set_defaults(func=_cmd_classify)

    oss = sub.add_parser("osserman", help="check spectrum constancy on the unit sphere")
    oss.add_argument("file")
    oss.add_argument("--samples", type=partial(_at_least, 2, "samples"), default=200)
    oss.add_argument("--seed", type=seed, default=0)
    oss.set_defaults(func=_cmd_osserman)

    rep = sub.add_parser("report", help="rank/spectrum diagnostics plus CSV")
    rep.add_argument("file")
    rep.add_argument("--samples", type=samples, default=50)
    rep.add_argument("--seed", type=seed, default=0)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    tol, raw = DEFAULT_TOL, os.environ.get("ACT_TOL")
    if raw:
        try:
            tol = float(raw)
        except ValueError:
            tol = 0.0
        if not 0 < tol < np.inf:
            print(f"error: ACT_TOL is not a positive finite number: {raw!r}", file=sys.stderr)
            return 2
    out = StringIO()  # a command that fails part way prints no key=value lines
    try:
        with redirect_stdout(out):
            code = args.func(args, tol)
    except ActError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return code


def console_main():  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
