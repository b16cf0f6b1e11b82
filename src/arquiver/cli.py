"""Command-line surface.

Exit codes: 0 success or affirmative verdict; 1 negative verdict to a
boolean question; 2 input error or failed internal invariant; 3 resource
limit.  Diagnostics go to stderr, reports to stdout or --out.
"""

import argparse
import sys

from .algebra import build_basis, parse_presentation
from .cuts import DEFAULT_CAP, certify_tilted, cut_analysis, enumerate_cuts, quotient_by_cut
from .errors import (
    ArquiverError,
    CapExceeded,
    InputSyntaxError,
    LimitExceeded,
    NotFiniteDimensional,
)
from .formats import (
    algebra_summary,
    ar_quiver_report,
    emit_algebra_file,
    export_dot,
    is_algebra_file,
    parse_translation_quiver,
    render_report,
    split_vertex_list,
)
from .knitting import DEFAULT_MAX_DIM, DEFAULT_MAX_VERTICES, knit

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputSyntaxError(f"cannot read {path}: {exc}") from None


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputSyntaxError(f"cannot write {path}: {exc}") from None


def _emit(text, out_path):
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def _load_algebra(path):
    return build_basis(parse_presentation(_read(path)))


def _load_quiver(path, max_vertices, max_dim):
    """Either knit an algebra file or import a translation-quiver file."""
    text = _read(path)
    if is_algebra_file(text):
        alg = build_basis(parse_presentation(text))
        return knit(alg, max_vertices=max_vertices, max_dim=max_dim)
    return parse_translation_quiver(text)


def _vertex_names(arq, text):
    """The vertex names of a ``--modules`` list, split by ``split_vertex_list``."""
    names = split_vertex_list(text)
    unknown = [n for n in names if n not in arq.vertices]
    if unknown:
        raise InputSyntaxError(f"unknown module names: {', '.join(unknown)}")
    return names


def _positive_int(text):
    """Argument type of the caps and limits: 0 or less would refuse everything."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return n


def _limits(parser):
    """The knit limits every command that builds an AR quiver takes."""
    parser.add_argument("--max-vertices", type=_positive_int, default=DEFAULT_MAX_VERTICES)
    parser.add_argument("--max-dim", type=_positive_int, default=DEFAULT_MAX_DIM)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="arquiver",
        description="Auslander-Reiten quivers, cuts, and tilted-algebra certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="algebra file operations")
    alg_sub = p_algebra.add_subparsers(dest="subcommand", required=True)
    p_check = alg_sub.add_parser("check", help="parse and build the quotient basis")
    p_check.add_argument("file")

    p_ar = sub.add_parser("ar", help="Auslander-Reiten quiver operations")
    ar_sub = p_ar.add_subparsers(dest="subcommand", required=True)
    p_build = ar_sub.add_parser("build", help="knit the AR quiver")
    p_build.add_argument("file")
    _limits(p_build)
    p_build.add_argument("--out")
    p_dot = ar_sub.add_parser("dot", help="export the AR quiver as DOT")
    p_dot.add_argument("file")
    p_dot.add_argument("--out", required=True)
    _limits(p_dot)

    p_cut = sub.add_parser("cut", help="cut analysis")
    cut_sub = p_cut.add_subparsers(dest="subcommand", required=True)
    p_ccheck = cut_sub.add_parser("check", help="analyze one vertex subset")
    p_ccheck.add_argument("file")
    p_ccheck.add_argument("--modules", required=True, help="comma-separated vertex names")
    _limits(p_ccheck)
    p_cenum = cut_sub.add_parser("enumerate", help="enumerate all cuts")
    p_cenum.add_argument("file")
    p_cenum.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    _limits(p_cenum)

    p_tilted = sub.add_parser("tilted", help="tiltedness certification")
    tilted_sub = p_tilted.add_subparsers(dest="subcommand", required=True)
    p_cert = tilted_sub.add_parser("certify", help="decide tiltedness")
    p_cert.add_argument("file")
    p_cert.add_argument(
        "--cap", type=_positive_int, default=DEFAULT_CAP, help="node cap of the walk over hom-vanishing cuts"
    )
    _limits(p_cert)

    p_quot = sub.add_parser("quotient", help="tilted quotient by a cut")
    p_quot.add_argument("file")
    p_quot.add_argument("--modules", required=True)
    p_quot.add_argument("--emit-algebra", dest="emit_algebra")
    _limits(p_quot)
    return parser


def _run(args):
    if args.command == "algebra" and args.subcommand == "check":
        alg = _load_algebra(args.file)
        _emit(render_report(algebra_summary(alg)), None)
        return EXIT_OK

    if args.command == "ar" and args.subcommand == "build":
        alg = _load_algebra(args.file)
        try:
            arq = knit(alg, max_vertices=args.max_vertices, max_dim=args.max_dim)
        except LimitExceeded as exc:
            if exc.partial is not None:
                report = ar_quiver_report(exc.partial, alg)
                report["partial"] = True
                _emit(render_report(report), args.out)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_LIMIT
        _emit(render_report(ar_quiver_report(arq, alg)), args.out)
        return EXIT_OK

    if args.command == "ar" and args.subcommand == "dot":
        arq = _load_quiver(args.file, args.max_vertices, args.max_dim)
        _emit(export_dot(arq), args.out)
        return EXIT_OK

    if args.command == "cut" and args.subcommand == "check":
        arq = _load_quiver(args.file, args.max_vertices, args.max_dim)
        names = _vertex_names(arq, args.modules)
        analysis = cut_analysis(arq, names)
        _emit(render_report(analysis), None)
        return EXIT_OK if analysis["is_cut"] else EXIT_NEGATIVE

    if args.command == "cut" and args.subcommand == "enumerate":
        arq = _load_quiver(args.file, args.max_vertices, args.max_dim)
        cuts = enumerate_cuts(arq, cap=args.cap)
        report = {"count": len(cuts), "cuts": [sorted(c) for c in cuts]}
        _emit(render_report(report), None)
        return EXIT_OK

    if args.command == "tilted" and args.subcommand == "certify":
        alg = _load_algebra(args.file)
        cert = certify_tilted(
            alg, max_vertices=args.max_vertices, max_dim=args.max_dim, cap=args.cap
        )
        _emit(render_report(cert.to_json()), None)
        if cert.verdict == "CERTIFIED_TILTED":
            return EXIT_OK
        if cert.verdict == "REFUTED_BY_ENUMERATION":
            return EXIT_NEGATIVE
        return EXIT_LIMIT

    if args.command == "quotient":
        alg = _load_algebra(args.file)
        arq = knit(alg, max_vertices=args.max_vertices, max_dim=args.max_dim)
        names = _vertex_names(arq, args.modules)
        result = quotient_by_cut(alg, arq, names)
        if args.emit_algebra:
            _write(args.emit_algebra, emit_algebra_file(result.presentation))
        _emit(render_report(result.to_json()), None)
        return EXIT_OK

    raise InputSyntaxError(f"unhandled command {args.command}")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (NotFiniteDimensional, LimitExceeded, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ArquiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
