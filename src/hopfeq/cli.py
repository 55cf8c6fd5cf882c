"""Command line front end.

Subcommands: check (equation verdicts), frt (B(R) presentation, completion,
dimension, tables), verify (the unconditional chi identities), enumerate
(exact pruned search over a prime field). Exit codes: 0 ok, 2 malformed
input, 3 field parse failure, 4 precondition violated (a non-solution
without --force, a completion past its step limit, a quotient of an algebra
not known to be finite-dimensional), 5 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys

from . import bialgebras, frt, kernels, tensorops
from .fields import FieldError, parse_field, parse_integer
from .fixtures import FIXTURE_NAMES, MAX_FIXTURE_N, FixtureError, build_fixture
from .freealgebra import render_word
from .frt import NotCommutativeSolutionError, NotHopfSolutionError
from .rewriting import CompletionError, NotFiniteDimensionalError
from .tensorops import CapExceededError, TensorOp

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIELD = 3
EXIT_PRECONDITION = 4
EXIT_CAP = 5


class CliInputError(Exception):
    pass


def _json_int(digits):
    """A JSON int; past int()'s digit limit, its digits as text, which the
    reader of the value refuses in its own terms: an entry as a scalar
    (exit 3), n as a dimension (exit 2)."""
    try:
        return int(digits)
    except ValueError:
        return digits


def _load_operator(args) -> TensorOp:
    if args.fixture and args.matrix:
        raise CliInputError("give either --fixture or a matrix file, not both")
    if args.fixture:
        field = parse_field(args.field)
        return build_fixture(args.fixture, field)
    if args.matrix:
        try:
            with open(args.matrix) as fh:
                doc = json.load(fh, parse_int=_json_int)
        except OSError as exc:
            raise CliInputError(f"cannot read {args.matrix}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliInputError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:  # the decoder recurses once per nested array
            raise CliInputError("not valid JSON: nested too deeply") from exc
        n = doc.get("n") if isinstance(doc, dict) else None
        if isinstance(n, int) and n > MAX_FIXTURE_N:  # bounded before any entry is read
            raise CliInputError(f"matrix document n must be <= {MAX_FIXTURE_N}, got {n}")
        try:
            return TensorOp.from_json(doc)
        except FieldError:
            raise
        except Exception as exc:
            raise CliInputError(f"bad matrix document: {exc}") from exc
    raise CliInputError("need --fixture <id> or a matrix file")


def _print_bools(pairs):
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k:<{width}}  {'true' if v else 'false'}")


def _generator_names(n, rs):
    """Paper lettering x=c11, y=c22, z=c12 when n=2 and c21 rewrites to 0."""
    names = [f"c[{i + 1},{j + 1}]" for i in range(n) for j in range(n)]
    if n == 2 and any(r.lhs == (2,) and r.tail.is_zero() for r in rs.rules):
        names = ["x", "z", "c[2,1]", "y"]
    return names


def cmd_check(args):
    R = _load_operator(args)
    report = tensorops.solution_report(R)
    if args.json:
        print(json.dumps({"input": R.to_json(), "report": report}, indent=2))
    else:
        _print_bools(list(report.items()))
    return EXIT_OK


def cmd_frt(args):
    if args.max_deg < 1:
        raise CliInputError(f"--max-deg must be >= 1, got {args.max_deg}")
    R = _load_operator(args)
    built = frt.build(R, args.commutative, args.force, args.max_deg)
    pres, rs, report, quotient = built.presentation, built.system, built.dimension, built.quotient
    names = _generator_names(R.n, rs)

    doc = {
        "presentation": pres.to_json(),
        "rewrite_system": rs.to_json(),
        "dimension": dataclasses.asdict(report),
    }
    if built.annihilates_module is not None:
        doc["annihilates_module"] = built.annihilates_module
    if quotient is not None:
        doc["basis"] = quotient.basis_labels
        if args.tables:
            doc["tables"] = quotient.to_json()

    if args.json:
        print(json.dumps(doc, indent=2))
        return EXIT_OK

    print(f"generators: n = {R.n} ({R.n * R.n} comatrix symbols)")
    if built.annihilates_module is not None:
        print(f"warning: not a Hopf solution; chi relations annihilate V: "
              f"{'true' if built.annihilates_module else 'false'}")
    print(f"relations ({len(pres.relations)}, paper index order"
          f"{', commutators adjoined' if pres.commutative_closure else ''}):")
    for k, r in enumerate(pres.relations):
        origin = pres.chi_origin[k] if k < len(pres.chi_origin) else None
        tag = f"chi{tuple(x + 1 for x in origin)}: " if origin is not None else "[comm] "
        print(f"  {tag}{r.render(names)}")
    print(f"completion: {rs.status} (max degree {rs.max_degree}), {len(rs.rules)} rules")
    for r in rs.rules:
        print(f"  {r.render(names)}")
    if report.is_finite():
        print(f"dimension: finite, {report.count}")
    else:
        print(f"dimension: lower bound {report.count} at word length {report.word_length_cap}")
    print(f"irreducible words by degree: {report.hilbert_prefix}")
    if quotient is not None:
        basis = [render_word(w, names) for w in quotient.basis_words]
        print(f"basis: {{{', '.join(basis)}}}")
        if args.tables:
            _print_tables(quotient, basis)
    return EXIT_OK


def _print_tables(B, basis):
    f = B.field
    rng = range(B.dim)

    def text(pairs):  # (scalar, label) pairs as a sum; zero scalars dropped
        parts = [label if (cs := f.render(c)) == "1" else f"{cs}*{label}"
                 for c, label in pairs if c]
        return " + ".join(parts) if parts else "0"

    print("multiplication:")
    for i in rng:
        for j in rng:
            print(f"  {basis[i]} . {basis[j]} = {text(zip(B.mult[i][j], basis))}")
    print("comultiplication:")
    for i in rng:
        terms = ((B.comult[i][u][v], f"{basis[u]}(x){basis[v]}") for u in rng for v in rng)
        print(f"  Delta({basis[i]}) = {text(terms)}")
    print("counit:")
    for i in rng:
        print(f"  eps({basis[i]}) = {f.render(B.counit[i])}")


def _verify_one(R):
    return {
        "delta_chi": frt.verify_delta_chi(R),
        "eps_chi_zero": frt.eps_chi_zero(R),
        "defect_identity": frt.verify_defect_identity(R),
        "commutator_identity": frt.verify_commutator_identity(R),
    }


def cmd_verify(args):
    if args.random is not None and args.random < 1:
        raise CliInputError(f"--random must be >= 1, got {args.random}")
    if args.n < 1:
        raise CliInputError(f"--n must be >= 1, got {args.n}")
    if args.n > MAX_FIXTURE_N:
        raise CliInputError(f"--n must be <= {MAX_FIXTURE_N}, got {args.n}")
    if args.random:
        field = parse_field(args.field)
        rng = random.Random(args.seed)
        results = []
        for _ in range(args.random):
            R = tensorops.random_tensorop(args.n, field, rng)
            results.append(_verify_one(R))
        agg = {k: all(r[k] for r in results) for k in results[0]}
        if args.json:
            print(json.dumps({"samples": args.random, "seed": args.seed,
                              "all_hold": agg}, indent=2))
        else:
            print(f"random samples: {args.random} (n={args.n}, field={args.field}, "
                  f"seed={args.seed})")
            _print_bools(list(agg.items()))
        return EXIT_OK
    R = _load_operator(args)
    report = _verify_one(R)
    if args.json:
        print(json.dumps({"report": report}, indent=2))
    else:
        _print_bools(list(report.items()))
    return EXIT_OK


def cmd_enumerate(args):
    if args.cap < 1:
        raise CliInputError(f"--cap must be >= 1, got {args.cap}")
    field = parse_field(args.field)
    solutions = tensorops.enumerate_solutions(args.n, field, which=args.eq, cap=args.cap)
    holds = [kernels.holds_mod(args.n, field.p, name)
             for name in ("commutative", "cocommutative")]
    table = {}
    for R in solutions:
        flat = R.flat()
        key = (*(h(flat) for h in holds), tensorops.is_bijective(R))
        table[key] = table.get(key, 0) + 1
    if args.json:
        doc = {
            "n": args.n,
            "field": args.field,
            "equation": args.eq,
            "count": len(solutions),
            "classification": [
                {"commutative": k[0], "cocommutative": k[1], "bijective": k[2],
                 "count": v}
                for k, v in sorted(table.items())
            ],
        }
        if args.dump:
            doc["solutions"] = [R.to_json() for R in solutions]
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"solutions of {args.eq} over {args.field}, n={args.n}: {len(solutions)}")
    print("commutative  cocommutative  bijective  count")
    for k in sorted(table):
        print(f"{str(k[0]):<12} {str(k[1]):<14} {str(k[2]):<10} {table[k]}")
    if args.dump:
        for R in solutions:
            print(json.dumps(R.to_json()))
    return EXIT_OK


def _add_input_args(p):
    p.add_argument("matrix", nargs="?", help="matrix JSON file")
    p.add_argument("--fixture", help="fixture id, e.g. char2 or r_q:1")
    p.add_argument("--field", default="q", help="field descriptor: q | fp:<p>")


def build_parser():
    root = argparse.ArgumentParser(
        prog="hopfeq",
        description="Exact decision procedures for the Hopf/pentagon/QYBE equations "
                    "and the FRT-type bialgebra construction B(R).",
        epilog="fixtures: " + ", ".join(FIXTURE_NAMES),
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="equation verdicts for an operator")
    _add_input_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("frt", help="B(R) presentation, completion and dimension")
    _add_input_args(p)
    p.add_argument("--commutative", action="store_true", help="build the commutative variant")
    p.add_argument("--max-deg", type=parse_integer, default=8)
    p.add_argument("--force", action="store_true", help="build even for non-solutions")
    p.add_argument("--tables", action="store_true", help="print quotient structure tables")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_frt)

    p = sub.add_parser("verify", help="the unconditional chi identities")
    _add_input_args(p)
    p.add_argument("--random", type=parse_integer, metavar="N", help="run on N random operators")
    p.add_argument("--n", type=parse_integer, default=2)
    p.add_argument("--seed", type=parse_integer, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="all solutions over F_p, by exact pruned search")
    p.add_argument("--n", type=parse_integer, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--eq", default="hopf", choices=sorted(kernels.EQUATIONS))
    p.add_argument("--cap", type=parse_integer, default=2**24)
    p.add_argument("--dump", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)
    return root


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FieldError as exc:
        print(f"field error: {exc}", file=sys.stderr)
        return EXIT_FIELD
    except (NotHopfSolutionError, NotCommutativeSolutionError,
            bialgebras.MissingAntipodeError, NotFiniteDimensionalError,
            CompletionError) as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (CliInputError, FixtureError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
