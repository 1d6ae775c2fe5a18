"""Command-line entry point.

Subcommands: validate, reconstruct, check, dual, rmatrix, group, dims, gen.
Reports are deterministic JSON by default (--text for a human format); exit
codes are 0 (pass), 1 (check failure), 2 (input error), 3 (internal
inconsistency).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


# The library calls of the handlers.  Each imports its module when it is
# called, so a subcommand loads only the modules it runs, and each is an
# attribute of this module, which a caller can wrap (the traced run of
# perfbench/ does).


def parse_bundle(*args, **kwargs):
    from .bundle import parse_bundle as _parse_bundle
    return _parse_bundle(*args, **kwargs)


def serialize_bundle(*args, **kwargs):
    from .bundle import serialize_bundle as _serialize_bundle
    return _serialize_bundle(*args, **kwargs)


def validate_bundle(*args, **kwargs):
    from .bundle import validate_bundle as _validate_bundle
    return _validate_bundle(*args, **kwargs)


def reconstruct(*args, **kwargs):
    from .aqg import reconstruct as _reconstruct
    return _reconstruct(*args, **kwargs)


def verify_axioms(*args, **kwargs):
    from .aqg import verify_axioms as _verify_axioms
    return _verify_axioms(*args, **kwargs)


def modular_data(*args, **kwargs):
    from .aqg import modular_data as _modular_data
    return _modular_data(*args, **kwargs)


def dual_hopf(*args, **kwargs):
    from .dual import dual_hopf as _dual_hopf
    return _dual_hopf(*args, **kwargs)


def universal_corep(*args, **kwargs):
    from .dual import universal_corep as _universal_corep
    return _universal_corep(*args, **kwargs)


def verify_universal(*args, **kwargs):
    from .dual import verify_universal as _verify_universal
    return _verify_universal(*args, **kwargs)


def grouplikes(*args, **kwargs):
    from .group import grouplikes as _grouplikes
    return _grouplikes(*args, **kwargs)


def cocommutative_check(*args, **kwargs):
    from .group import cocommutative_check as _cocommutative_check
    return _cocommutative_check(*args, **kwargs)


def braiding_to_r(*args, **kwargs):
    from .braid import braiding_to_r as _braiding_to_r
    return _braiding_to_r(*args, **kwargs)


def verify_quasitriangular(*args, **kwargs):
    from .braid import verify_quasitriangular as _verify_quasitriangular
    return _verify_quasitriangular(*args, **kwargs)


def triangularity(*args, **kwargs):
    from .braid import triangularity as _triangularity
    return _triangularity(*args, **kwargs)


def gen_finite_group(*args, **kwargs):
    from .examples import gen_finite_group as _gen_finite_group
    return _gen_finite_group(*args, **kwargs)


def gen_pointed(*args, **kwargs):
    from .examples import gen_pointed as _gen_pointed
    return _gen_pointed(*args, **kwargs)


def gen_suq2(*args, **kwargs):
    from .examples import gen_suq2 as _gen_suq2
    return _gen_suq2(*args, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aqgrec",
        description="Reconstruct and verify discrete quantum groups from "
        "semisimple tensor-category data.",
    )
    p.add_argument("--version", action="version", version=f"aqgrec {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("bundle", help="path to a category bundle JSON file")
        sp.add_argument("-o", "--output", default=None,
                        help="write the report/output to this path")
        sp.add_argument("--text", action="store_true",
                        help="human-readable report instead of JSON")
        sp.add_argument("--abs-tol", type=float, default=1e-9)
        sp.add_argument("--rel-tol", type=float, default=1e-9)
        sp.add_argument("--samples", type=int, default=16)
        sp.add_argument("--seed", type=int, default=42)

    common(sub.add_parser("validate", help="validate a bundle"))
    common(sub.add_parser("reconstruct", help="reconstruct and export the "
                          "quantum group structure"))
    common(sub.add_parser("check", help="reconstruct and verify all axioms"))
    common(sub.add_parser("dual", help="dual Hopf algebra and universal "
                          "corepresentation (closed bundles)"))
    common(sub.add_parser("rmatrix", help="R-matrix from the braiding with "
                          "the quasitriangularity suite"))
    common(sub.add_parser("group", help="intrinsic group recovery"))
    common(sub.add_parser("dims", help="labels with Hilbert and quantum "
                          "dimensions"))

    g = sub.add_parser("gen", help="generate a golden bundle")
    g.add_argument("family", choices=["zn", "s3", "d4", "q8", "pointed", "suq2"])
    g.add_argument("-o", "--output", default=None,
                   help="write the bundle to this path instead of stdout")
    g.add_argument("--n", type=int, default=3, help="order for zn/pointed")
    g.add_argument("--t", type=int, default=0, help="bicharacter exponent")
    g.add_argument("--q", type=float, default=0.5, help="deformation parameter")
    g.add_argument("--L", type=int, default=4, help="truncation level")
    return p


def _emit(payload: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _report_payload(rep, text: bool) -> str:
    return rep.to_text() if text else rep.to_json()


def _json_payload(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _cmd_validate(args, tol, b) -> int:
    rep = validate_bundle(b, tol)
    _emit(_report_payload(rep, args.text), args.output)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_reconstruct(args, tol, b) -> int:
    q = reconstruct(b, tol)
    _emit(_json_payload(q.export()), args.output)
    return EXIT_PASS


def _cmd_check(args, tol, b) -> int:
    q = reconstruct(b, tol)
    rep = verify_axioms(q, tol, n_samples=args.samples, seed=args.seed)
    modular_data(q, tol)  # raises InconsistentSolve on failure
    rep.add("modular-data", "delta = f^-2, KMS, scaling constant", 0.0, True)
    _emit(_report_payload(rep, args.text), args.output)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_dual(args, tol, b) -> int:
    q = reconstruct(b, tol)
    T, Td, rep = dual_hopf(q, tol)
    U = universal_corep(T)
    rep.extend(verify_universal(U, T, Td, tol))
    _emit(_report_payload(rep, args.text), args.output)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_rmatrix(args, tol, b) -> int:
    q = reconstruct(b, tol)
    R = braiding_to_r(q)
    rep = verify_quasitriangular(q, R, tol)
    is_tri, tri_res = triangularity(q, R, tol)
    payload = rep.to_dict()
    payload["triangular"] = bool(is_tri)
    payload["triangular_residual"] = float(tri_res)
    if args.text:
        _emit(rep.to_text() + f"\ntriangular: {is_tri} "
              f"(residual {tri_res:.3e})", args.output)
    else:
        _emit(_json_payload(payload), args.output)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_group(args, tol, b) -> int:
    q = reconstruct(b, tol)
    group, T, _, rep = grouplikes(q, tol, seed=args.seed)
    cocomm, crep = cocommutative_check(q, T, group, rep, tol)
    rep.extend(crep)
    payload = rep.to_dict()
    payload["group"] = group.export()
    payload["cocommutative"] = bool(cocomm)
    if args.text:
        _emit(rep.to_text() + f"\norder: {group.order}\n"
              f"cocommutative: {cocomm}", args.output)
    else:
        _emit(_json_payload(payload), args.output)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_dims(args, tol, b) -> int:
    q = reconstruct(b, tol)
    rows = [
        {
            "label": i,
            "hilbert_dim": q.d(i),
            "quantum_dim": q.haar_weights[i],
        }
        for i in q.labels
    ]
    if args.text:
        lines = [f"{r['label']}\t{r['hilbert_dim']}\t{r['quantum_dim']:.10g}"
                 for r in rows]
        _emit("label\tdim\tquantum_dim\n" + "\n".join(lines), args.output)
    else:
        _emit(_json_payload({"labels": rows}), args.output)
    return EXIT_PASS


def _cmd_gen(args) -> int:
    from .examples import builtin_group

    fam = args.family
    if fam == "zn":
        b = gen_finite_group(builtin_group(f"z{args.n}"))
    elif fam in ("s3", "d4", "q8"):
        b = gen_finite_group(builtin_group(fam))
    elif fam == "pointed":
        b = gen_pointed(args.n, args.t)
    else:
        b = gen_suq2(args.q, args.L)
    _emit(serialize_bundle(b), args.output)
    return EXIT_PASS


_HANDLERS = {
    "validate": _cmd_validate,
    "reconstruct": _cmd_reconstruct,
    "check": _cmd_check,
    "dual": _cmd_dual,
    "rmatrix": _cmd_rmatrix,
    "group": _cmd_group,
    "dims": _cmd_dims,
}


def _run(args) -> int:
    if args.command == "gen":
        return _cmd_gen(args)
    # the document stage and the refusals, decided from its closed and
    # braiding fields, load no numpy
    from .document import load_document, require_braiding, require_group, require_tables

    with open(args.bundle) as fh:
        doc = load_document(fh.read())
    if args.command == "dual":
        require_tables(doc.closed)
    elif args.command == "group":
        require_group(doc.closed)
    elif args.command == "rmatrix":
        require_braiding(doc.braiding)
    from .linalg import Tolerance

    try:
        tol = Tolerance(absolute=args.abs_tol, relative=args.rel_tol)
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    b = parse_bundle(doc)
    del doc  # b holds all it needs of it
    return _HANDLERS[args.command](args, tol, b)


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # imported once the arguments parse, so that --version and --help load
    # no module of the package, and no numpy
    from .errors import (
        BadPresentation,
        BundleSyntaxError,
        ConjInconsistent,
        GradingError,
        InconsistentSolve,
        InvalidBundle,
        MissingBraiding,
        NotFinite,
        ShapeError,
    )

    try:
        return _run(args)
    except (OSError, BundleSyntaxError, ShapeError, GradingError, BadPresentation, NotFinite,
            MissingBraiding, ConjInconsistent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # numpy's message gives the size asked for
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT
    except InvalidBundle as exc:
        print(f"error: bundle failed validation", file=sys.stderr)
        for c in exc.report.failures():
            print(f"  failed: {c.name} at {c.location} "
                  f"(residual {c.residual:.3e})", file=sys.stderr)
        return EXIT_FAIL
    except InconsistentSolve as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
