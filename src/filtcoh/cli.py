"""Command-line surface.

Verbs dispatch onto the library operations in OP_TO_VERB, each row naming a
function its verb calls; ``pages --einfty`` and ``poly`` read page dimensions
through ``page_dims``, at the page where the spectral sequence stops.
``pages`` and ``oracle`` pass ``--max-k`` to ``spectral`` unchanged, which
resolves the default page count and refuses one past its budget.
Library-only, reached from no verb: ``page``, ``einfty``, ``differential`` and
``page_oracle`` (spectral), ``induced_page_map``, ``compose``, ``map_sum`` and
``identity_map`` (chain_maps), ``poincare_laurent`` and
``decomposition_search_colex`` (obstruction). Reports go to stdout as JSON (TSV for page
dumps), diagnostics and warnings to stderr. Exit codes: 0 success / empty
violations, 1 violations or "none" verdicts, 2 bad input (usage errors and
every ``InputError``: malformed files, arguments out of range, unmet
preconditions, exceeded budgets), 3 internal errors (a failed consistency
check or any other exception, a ``ValueError`` from inside the engine
included, reported as one "internal error:" line on stderr), 141 when the
reader of stdout is gone (``main`` only; nothing is printed). Complex files
are read from a path or from stdin when the path is "-".

Importing this module loads only ``complexes`` and ``gf2`` of the engine,
which every verb that reads a complex needs; each command imports the
engine modules it calls, so a process pays only for the modules of its verb.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .complexes import (
    ComplexFormatError,
    FilteredComplex,
    InputError,
    as_fraction,
    associated_graded,
    format_fraction,
    load_json,
    parse_complex,
    serialize_complex,
    validate,
    warnings as complex_warnings,
)

if TYPE_CHECKING:
    from . import maslov, obstruction

# coverage audit: operation -> the verb whose command calls it (tests run
# every verb with each operation spied and assert the call)
OP_TO_VERB = {
    "parse_complex": "validate",
    "validate": "validate",
    "associated_graded": "cohom",
    "integer_graded_cohomology": "cohom",
    "zsigma_cohomology": "hf",
    "hf_filtration": "hf",
    "page_rows": "pages",
    "pages_tsv": "pages",
    "k_stable": "kl",
    "oracle_comparison": "oracle",
    "page_dims": "poly",
    "check_page_recursion": "recursion",
    "rank_balance": "recursion",
    "decomposition_search": "decomp",
    "alternating_binomial_sum": "binom",
    "audin_decide": "audin",
    "maslov_loop_index": "maslov",
    "kunneth_index": "maslov",
    "monotone_constants": "maslov",
    "window_lift": "maslov",
    "compatibility_check": "maslov",
    "verify_cochain_map": "mapcheck",
    "verify_homotopy": "mapcheck",
    "iso_on_pages": "mapcheck",
    "torus_complex": "gen",
    "quantum_perturbed_torus": "gen",
}

def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ComplexFormatError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ComplexFormatError(str(exc)) from exc


def _load(path: str) -> FilteredComplex:
    c = parse_complex(_read_text(path))
    for w in complex_warnings(c):
        print(f"warning: {w}", file=sys.stderr)
    return c


def _load_valid(path: str) -> FilteredComplex:
    c = _load(path)
    problems = validate(c)
    if problems:
        raise ComplexFormatError(
            "complex fails validation: " + "; ".join(v.rule for v in problems)
        )
    return c


def _emit(data) -> None:
    # Exact results (binomial sums) can exceed Python's int-to-str digit
    # limit; lift it for the dump only, so that parsing input keeps its guard.
    # Interpreters older than 3.10.7 have no limit and no setter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(data, indent=2, sort_keys=True)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text)


def _cmd_validate(args) -> int:
    c = _load(args.complex)
    problems = validate(c)
    _emit({"violations": [v.as_dict() for v in problems]})
    return 1 if problems else 0


def _cmd_cohom(args) -> int:
    from . import cohomology

    c = _load_valid(args.complex)
    out = cohomology.integer_graded_cohomology(c).as_dict()
    if args.pieces:
        out["pieces"] = [
            {"n": n, "generators": list(piece.generators), "rank_d0": mat.rank()}
            for n, piece, mat in associated_graded(c)
        ]
    _emit(out)
    return 0


def _cmd_hf(args) -> int:
    from . import cohomology

    c = _load_valid(args.complex)
    hf = cohomology.zsigma_cohomology(c)
    filt = cohomology.hf_filtration(c)
    _emit({"hf": hf.as_dict(), **filt.as_dict()})
    return 0


def _cmd_pages(args) -> int:
    from . import spectral

    if args.einfty and (args.max_k is not None or args.tsv):
        raise InputError("pages --einfty takes neither --max-k nor --tsv")
    c = _load_valid(args.complex)
    if args.einfty:
        limit = spectral.page_dims(c, math.inf)
        _emit({
            "k": spectral.stabilization_bound(c),
            "cells": [[n, n % c.sigma_maslov, d] for n, d in sorted(limit.items())],
        })
        return 0
    if args.tsv:
        sys.stdout.write(spectral.pages_tsv(c, args.max_k))
        return 0
    fields = ("k", "n", "j", "dim", "rank_dk")
    _emit({"pages": [dict(zip(fields, row)) for row in spectral.page_rows(c, args.max_k)]})
    return 0


def _cmd_kl(args) -> int:
    from . import spectral

    c = _load_valid(args.complex)
    _emit({"k_stable": spectral.k_stable(c)})
    return 0


def _cmd_oracle(args) -> int:
    from . import spectral

    c = _load_valid(args.complex)
    mismatches = []
    checked = 0
    for k, fast, slow, rank_fast, rank_slow in spectral.oracle_comparison(c, args.max_k):
        checked += 1
        if fast != slow:
            mismatches.append({"k": k, "kind": "dims", "page": _cells(fast), "oracle": _cells(slow)})
        if rank_fast != rank_slow:
            mismatches.append({"k": k, "kind": "ranks", "page": _cells(rank_fast), "oracle": _cells(rank_slow)})
    _emit({"pages_checked": checked, "mismatches": mismatches})
    return 1 if mismatches else 0


def _cells(d: dict) -> list:
    return [[n, j, v] for (n, j), v in sorted(d.items())]


def _cmd_poly(args) -> int:
    from . import obstruction, spectral

    c = _load_valid(args.complex)
    poly = obstruction.LaurentPoly(spectral.page_dims(c, args.k))
    _emit({"k": args.k, "poly": poly.terms(), "pretty": str(poly)})
    return 0


def _cmd_recursion(args) -> int:
    from . import obstruction

    c = _load_valid(args.complex)
    if args.balance:
        try:
            ok = obstruction.rank_balance(c)
        except obstruction.PreconditionError as exc:
            print(f"precondition failure: {exc}", file=sys.stderr)
            return 2
        _emit({"rank_balance": ok})
        return 0 if ok else 1
    problems = obstruction.check_page_recursion(c)
    _emit({"violations": [v.as_dict() for v in problems]})
    return 1 if problems else 0


def _decomp_target(args) -> obstruction.LaurentPoly:
    """The target of --m (at least 0), or of --target: a JSON list of
    [exponent, coefficient] integer pairs with distinct exponents."""
    from . import obstruction

    if args.target is None:
        if args.m < 0:
            raise InputError("--m must be >= 0")
        return obstruction.LaurentPoly.binomial_power(args.m)
    terms = load_json(args.target)
    if not isinstance(terms, list) or not all(
        isinstance(t, list) and len(t) == 2 and all(type(x) is int for x in t) for t in terms
    ):
        raise InputError("--target must be a JSON list of [exponent, coefficient] integer pairs")
    if len({e for e, _ in terms}) != len(terms):
        raise InputError("--target lists an exponent twice")
    return obstruction.LaurentPoly(dict(terms))


def _cmd_decomp(args) -> int:
    from . import obstruction

    target = _decomp_target(args)
    result = obstruction.decomposition_search(target, args.sigma, args.k)
    out = {
        "target": target.terms(),
        "Sigma": args.sigma,
        "k": args.k,
        "nodes": result.nodes,
        "status": "witness" if result.found else "none",
    }
    if result.found:
        out["witness"] = [q.terms() for q in result.witness]
        out["verified"] = result.verify()
    elif result.certificate is not None:
        out["certificate"] = {"exponents": list(result.certificate)}
    _emit(out)
    return 0 if result.found else 1


def _cmd_binom(args) -> int:
    from . import obstruction

    value = obstruction.alternating_binomial_sum(args.m, args.N)
    _emit({"m": args.m, "N": args.N, "value": value})
    return 0


def _cmd_audin(args) -> int:
    from . import obstruction

    report = obstruction.audin_decide(args.m)
    if args.table:
        print(report.table())
    else:
        _emit(report.as_dict())
        print(report.table(), file=sys.stderr)
    return 0


def _load_path_file(path: str) -> maslov.LagrangianPath:
    from . import maslov

    data = load_json(_read_text(path))
    if not (
        isinstance(data, dict) and set(data) == {"m", "closed", "samples"}
        and type(data["m"]) is int and type(data["closed"]) is bool and isinstance(data["samples"], list)
    ):
        raise ComplexFormatError('path file must be {"m": int, "closed": bool, "samples": [...]}')
    for k, sample in enumerate(data["samples"]):
        # bool is an int subclass, and numpy would also read "1" and null
        if not (isinstance(sample, list) and all(
            isinstance(row, list) and all(type(x) in (int, float) for x in row) for row in sample
        )):
            raise ComplexFormatError(f"path file sample #{k} must be a list of lists of numbers")
    return maslov.LagrangianPath.from_samples(data["m"], data["samples"], data["closed"])


def _load_classes(path: str) -> maslov.DiskClassData:
    from . import maslov

    data = load_json(_read_text(path))
    if not (
        isinstance(data, dict) and set(data) == {"classes"} and isinstance(data["classes"], list)
        and all(isinstance(x, list) and len(x) == 2 and type(x[1]) is int for x in data["classes"])
    ):
        raise ComplexFormatError('disk class file must be {"classes": [["p/q", int], ...]}')
    return maslov.DiskClassData.from_pairs([tuple(x) for x in data["classes"]])


def _cmd_maslov(args) -> int:
    from . import maslov

    if args.action == "index":
        path = _load_path_file(args.file)
        _emit({"index": maslov.maslov_loop_index(path)})
        return 0
    if args.action == "kunneth":
        p1 = _load_path_file(args.file)
        p2 = _load_path_file(args.second)
        left = maslov.maslov_loop_index(p1)
        right = maslov.maslov_loop_index(p2)
        _emit({"index": maslov.kunneth_index(p1, p2), "left": left, "right": right})
        return 0
    if args.action == "monotone":
        data = _load_classes(args.file)
        result = maslov.monotone_constants(data)
        if isinstance(result, maslov.NotMonotone):
            _emit({
                "monotone": False,
                "witness": [[format_fraction(om), mu] for om, mu in result.witness],
            })
            return 1
        _emit({
            "monotone": True,
            "sigma": format_fraction(result.sigma),
            "Sigma": result.sigma_maslov,
            "lambda": format_fraction(result.lam),
        })
        return 0
    if args.action == "lift":
        lifted, shift = maslov.window_lift(
            as_fraction(args.a, "a"), as_fraction(args.r, "r"), as_fraction(args.sigma, "sigma")
        )
        _emit({"action": format_fraction(lifted), "shift": shift})
        return 0
    # compat, the last action the parser accepts
    data = _load_classes(args.file)
    ok = maslov.compatibility_check(data, args.index, as_fraction(args.a, "action"))
    _emit({"compatible": ok})
    return 0 if ok else 1


def _cmd_mapcheck(args) -> int:
    from . import chain_maps

    source = _load_valid(args.source)
    # one load when both ends are the same file (or both read stdin)
    target = source if args.target == args.source else _load_valid(args.target)
    f = chain_maps.parse_map(_read_text(args.map), source, target)
    problems = chain_maps.verify_cochain_map(f)
    out = {"violations": [v.as_dict() for v in problems]}
    if args.homotopy is not None:
        g = chain_maps.parse_map(_read_text(args.other), source, target)
        h = chain_maps.parse_map(_read_text(args.homotopy), source, target, degree=-1)
        out["homotopy_violations"] = [
            v.as_dict() for v in chain_maps.verify_homotopy(f, g, h)
        ]
    if args.pages and not problems:
        out["iso_on_pages"] = {str(k): iso for k, iso in chain_maps.iso_on_pages(f).items()}
    failures = problems or out.get("homotopy_violations")
    _emit(out)
    return 1 if failures else 0


def _cmd_gen(args) -> int:
    from . import morse

    spec = morse.TorusSpec(
        m=args.m,
        lam=as_fraction(args.lam, "lambda"),
        sigma_maslov=args.sigma_maslov,
        r=as_fraction(args.r, "r"),
    )
    if args.quantum is not None:
        matching = morse.parse_matching(load_json(_read_text(args.quantum)), args.m)
        c = morse.quantum_perturbed_torus(spec, matching)
    else:
        c = morse.torus_complex(spec)
    sys.stdout.write(serialize_complex(c))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged and starts every call from a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="filtcoh",
        description="integer-graded filtered cochain complexes over GF(2): "
        "cohomology, spectral sequences, Maslov arithmetic, obstruction calculus",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_complex_arg(p):
        p.add_argument("complex", nargs="?", default="-", help="complex file (default: stdin)")

    p = sub.add_parser("validate", help="check all complex invariants")
    add_complex_arg(p)

    p = sub.add_parser("cohom", help="integer-graded cohomology of the shift-0 differential")
    add_complex_arg(p)
    p.add_argument("--pieces", action="store_true", help="also dump the associated graded pieces")

    p = sub.add_parser("hf", help="Z_Sigma-graded cohomology and its action filtration")
    add_complex_arg(p)

    p = sub.add_parser("pages", help="spectral sequence pages")
    add_complex_arg(p)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--tsv", action="store_true", help="emit the TSV page dump")
    p.add_argument("--einfty", action="store_true", help="emit the limit page only")

    p = sub.add_parser("kl", help="stabilization index k(L)")
    add_complex_arg(p)

    p = sub.add_parser("oracle", help="compare page recursion against the subquotient oracle")
    add_complex_arg(p)
    p.add_argument("--max-k", type=int, default=None)

    p = sub.add_parser("poly", help="Poincare-Laurent polynomial of a page")
    add_complex_arg(p)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("recursion", help="page-polynomial recursion identity / rank balance")
    add_complex_arg(p)
    p.add_argument("--balance", action="store_true", help="run the signed rank-balance check")

    p = sub.add_parser("decomp", help="search for (1+t^(i*Sigma+1)) decompositions")
    p.add_argument("--m", type=int, help="use target (1+t)^m")
    p.add_argument("--target", help="explicit target as JSON [[exp, coeff], ...]")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("binom", help="truncated alternating binomial sum")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("audin", help="even-period exclusion report for the m-torus")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--table", action="store_true", help="print the table instead of JSON")

    p = sub.add_parser("maslov", help="Maslov index arithmetic")
    ms = p.add_subparsers(dest="action", required=True)
    q = ms.add_parser("index", help="loop index of a sampled Lagrangian path")
    q.add_argument("file")
    q = ms.add_parser("kunneth", help="product loop index of two paths")
    q.add_argument("file")
    q.add_argument("second")
    q = ms.add_parser("monotone", help="periods and monotonicity constant from disk classes")
    q.add_argument("file")
    q = ms.add_parser("lift", help="lift an action value into the window (r, r+sigma)")
    q.add_argument("--a", required=True)
    q.add_argument("--r", required=True)
    q.add_argument("--sigma", required=True)
    q = ms.add_parser("compat", help="action/index deck-transformation compatibility")
    q.add_argument("file")
    q.add_argument("--index", type=int, required=True)
    q.add_argument("--a", required=True)

    p = sub.add_parser("mapcheck", help="verify cochain maps, homotopies, induced page maps")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map")
    p.add_argument("--homotopy", help="homotopy map file (degree -1)")
    p.add_argument("--other", help="second cochain map file for homotopy checks")
    p.add_argument("--pages", action="store_true", help="report iso flags on all pages")

    p = sub.add_parser("gen", help="emit fixture complexes")
    p.add_argument("what", choices=["torus"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="1/2")
    p.add_argument("--sigma-maslov", type=int, default=2)
    p.add_argument("--r", default="0")
    p.add_argument("--quantum", help="matching file for the quantum-perturbed variant")

    return parser


_DISPATCH = {
    "validate": _cmd_validate,
    "cohom": _cmd_cohom,
    "hf": _cmd_hf,
    "pages": _cmd_pages,
    "kl": _cmd_kl,
    "oracle": _cmd_oracle,
    "poly": _cmd_poly,
    "recursion": _cmd_recursion,
    "decomp": _cmd_decomp,
    "binom": _cmd_binom,
    "audin": _cmd_audin,
    "maslov": _cmd_maslov,
    "mapcheck": _cmd_mapcheck,
    "gen": _cmd_gen,
}

VERBS = tuple(_DISPATCH)


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.verb == "decomp" and (args.m is None) == (args.target is None):
        print("decomp: give exactly one of --m or --target", file=sys.stderr)
        return 2
    if args.verb == "mapcheck" and (args.homotopy is None) != (getattr(args, "other", None) is None):
        print("mapcheck: --homotopy and --other go together", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.verb](args)
    except BrokenPipeError:
        raise  # the reader of stdout is gone, which main() reports
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InternalError, or a bug that raised anything else
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


# Exit code when the reader of stdout is gone: 128 + SIGPIPE, what a shell
# reports for a writer killed by that signal.
EXIT_BROKEN_PIPE = 141


def main() -> None:
    try:
        code = run(sys.argv[1:])
        # a write still buffered would otherwise fail at interpreter shutdown
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at shutdown has nowhere
        # to fail (the SIGPIPE note in the docs of the signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
