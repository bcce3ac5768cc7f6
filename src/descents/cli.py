"""Command-line surface: multiply, verify, table, graph.

Exit codes: 0 success (verification PASS), 1 verification FAIL,
2 usage or parse errors, 141 (128 + SIGPIPE) when the reader closes
standard output early.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .algebra import (
    STRUCTURE_SCHEMA_VERSION,
    oracle_agrees,
    solomon_multiply,
    structure_constants,
    structure_records,
    write_structure_csv,
)
from .combinatorics import (
    Composition,
    GeneratorSubset,
    all_compositions,
    all_generator_subsets,
    composition_to_subset,
    contingency_tables,
    graph_of_subset,
    ordered_presentation,
    subset_to_composition,
    to_dot,
)
from .cosets import (
    LEMMA_DEGREE_DEFAULT,
    PARABOLIC_DEGREE_DEFAULT,
    verify_subset_pair,
)
from .perms import BASIS_DEGREE_MAX, ORACLE_DEGREE_DEFAULT, check_degree

#: Exhaustive oracle sweeps stop here; larger degrees are sampled.
ORACLE_EXHAUSTIVE_MAX = 6
ORACLE_SAMPLE_PAIRS = 200


def _check_bound(args, what: str, default: int) -> None:
    # --max-n sets the bound; the error names what, a run above default warns
    try:
        check_degree(args.n, args.max_n, default, option="--max-n")
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    if args.n > default:
        print(f"warning: degree {args.n} is above the default {what} bound "
              f"({default}); continuing because of --max-n", file=sys.stderr)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_multiply(args) -> int:
    kappa = Composition.from_text(args.kappa)
    nu = Composition.from_text(args.nu)
    if kappa.n != args.n or nu.n != args.n:
        raise ValueError(
            f"compositions must sum to n={args.n}: "
            f"got {kappa.to_text()} and {nu.to_text()}")
    check_degree(args.n, args.max_n, BASIS_DEGREE_MAX, option="--max-n")
    product = solomon_multiply(kappa, nu, max_degree=args.max_n)

    matrices = []
    if args.show_matrices:
        matrices = list(contingency_tables(nu, kappa, max_degree=args.max_n))

    oracle_ok = None
    if args.oracle:
        _check_bound(args, "oracle", ORACLE_DEGREE_DEFAULT)
        oracle_ok = oracle_agrees(kappa, nu, max_degree=args.n)

    if args.format == "structured":
        record = {
            "schema_version": STRUCTURE_SCHEMA_VERSION,
            "kind": "descent-algebra-product",
            "n": args.n,
            "kappa": kappa.to_text(),
            "nu": nu.to_text(),
            "terms": [{"eta": eta.to_text(), "coefficient": c}
                      for eta, c in product.sorted_terms()],
        }
        if args.show_matrices:
            record["matrices"] = [
                {"entries": [list(row) for row in m],
                 "reading_word": m.reading_word().to_text()}
                for m in matrices]
        if oracle_ok is not None:
            record["oracle"] = "PASS" if oracle_ok else "FAIL"
        _emit_json(record)
    else:
        for m in matrices:
            print(f"{m.to_text()} -> {m.reading_word().to_text()}")
        print(str(product))
        if oracle_ok is not None:
            print(f"oracle check: {'PASS' if oracle_ok else 'FAIL'}")
    return 0 if oracle_ok in (None, True) else 1


#: verify's scopes and their default degree bounds, in output order.
_SCOPES = (("lemma", LEMMA_DEGREE_DEFAULT), ("oracle", ORACLE_DEGREE_DEFAULT),
           ("parabolic", PARABOLIC_DEGREE_DEFAULT))


def _verify_pair_scope(n: int, parabolic: bool) -> dict:
    subsets = all_generator_subsets(n)
    stats = {"pairs": len(subsets) ** 2, "witnesses": 0, "failures": 0}
    for j in subsets:
        for k in subsets:
            r = verify_subset_pair(j, k, parabolic=parabolic, max_degree=n)
            stats["witnesses"] += r.witnesses
            stats["failures"] += r.failure_count
    if parabolic:
        del stats["witnesses"]
    return stats


def _verify_oracle_scope(n: int, seed: int) -> dict:
    comps = all_compositions(n)
    if n <= ORACLE_EXHAUSTIVE_MAX:
        pairs = [(kappa, nu) for kappa in comps for nu in comps]
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        pairs = [(rng.choice(comps), rng.choice(comps))
                 for _ in range(ORACLE_SAMPLE_PAIRS)]
        mode = f"sampled, seed={seed}"
    failures = sum(1 for kappa, nu in pairs
                   if not oracle_agrees(kappa, nu, max_degree=n))
    return {"pairs": len(pairs), "mode": mode, "failures": failures}


def cmd_verify(args) -> int:
    n = args.n
    run_all = args.all or not any(getattr(args, s) for s, _ in _SCOPES)
    # every selected bound is checked before any scope runs
    selected = []
    for scope, bound in _SCOPES:
        if not (run_all or getattr(args, scope)):
            continue
        if run_all and scope == "parabolic" and n > bound:
            selected.append((scope, {"reason": f"n>{bound}"}))
            continue
        _check_bound(args, scope, bound)
        selected.append((scope, None))

    results = []
    for scope, stats in selected:
        status = "SKIP"
        if stats is None:
            stats = (_verify_oracle_scope(n, args.seed) if scope == "oracle"
                     else _verify_pair_scope(n, scope == "parabolic"))
            status = "FAIL" if stats["failures"] else "PASS"
        results.append((scope, status, stats))
    overall = "FAIL" if any(s == "FAIL" for _, s, _ in results) else "PASS"

    if args.format == "structured":
        _emit_json({
            "schema_version": STRUCTURE_SCHEMA_VERSION,
            "kind": "descent-algebra-verification",
            "n": n,
            "scopes": [{"scope": scope, "status": status, **stats}
                       for scope, status, stats in results],
            "overall": overall,
        })
    else:
        for scope, status, stats in results:
            detail = ", ".join(f"{k}={v}" for k, v in stats.items())
            print(f"{scope}: {status} ({detail})")
        print(f"overall: {overall}")
    return 0 if overall == "PASS" else 1


def cmd_table(args) -> int:
    check_degree(args.n, args.max_n, BASIS_DEGREE_MAX, option="--max-n")
    rows = structure_constants(args.n, max_degree=args.max_n)
    if args.format == "csv":
        write_structure_csv(rows, sys.stdout)
    elif args.format == "structured":
        _emit_json(structure_records(args.n, rows))
    else:
        for kappa, nu, product in rows:
            print(f"B({kappa.to_text()}) * B({nu.to_text()}) = {product}")
    return 0


def cmd_graph(args) -> int:
    if args.kappa is not None:
        kappa = Composition.from_text(args.kappa)
        if kappa.n != args.n:
            raise ValueError(
                f"composition must sum to n={args.n}: got {kappa.to_text()}")
        subset = composition_to_subset(kappa)
    else:
        subset = GeneratorSubset.from_text(args.n, args.subset)
    graph = graph_of_subset(subset)
    if args.dot:
        sys.stdout.write(to_dot(graph))
        return 0
    presentation = ordered_presentation(graph)
    edges = " ".join(f"{{{u},{v}}}" for u, v in graph.edges)
    print(f"n: {args.n}")
    print(f"subset: {{{subset.to_text()}}}")
    print(f"edges: {edges if edges else '(none)'}")
    print(f"ordered presentation: {presentation.to_text()}")
    print(f"composition: {subset_to_composition(subset).to_text()}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse's own writer swallows OSError; a closed pipe must reach main
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="descents",
        description="Descent algebra of the symmetric group: products, "
                    "verification, tables, graphs.")
    # read by multiply, verify and table; graph reads neither
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "csv", "structured"],
                        default="text",
                        help="output format (default: text)")
    common.add_argument("--max-n", type=int, default=None, metavar="N",
                        help="set the degree bound; verify and multiply "
                             "--oracle warn above the default")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiply", parents=[common],
                       help="product of two basis elements")
    p.add_argument("n", type=int)
    p.add_argument("kappa", help='left composition, e.g. "2,1"')
    p.add_argument("nu", help='right composition, e.g. "1,2"')
    p.add_argument("--show-matrices", action="store_true",
                   help="also print each margin matrix and its reading word")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the group-algebra product")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("verify", parents=[common],
                       help="run verification sweeps at degree n")
    p.add_argument("n", type=int)
    p.add_argument("--all", action="store_true",
                   help="all scopes (default when no scope is given)")
    p.add_argument("--lemma", action="store_true",
                   help="presentation/reading-word/bijection/product checks")
    p.add_argument("--oracle", action="store_true",
                   help="basis products against the group-algebra oracle")
    p.add_argument("--parabolic", action="store_true",
                   help="conjugated Young subgroup checks")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled verification (default: 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", parents=[common],
                       help="all basis products at degree n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("graph",
                       help="graph, presentation and composition of a subset")
    p.add_argument("n", type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--subset", metavar="S",
                       help='generator indices, e.g. "2,3,7" ("" for empty)')
    group.add_argument("--kappa", metavar="K",
                       help='composition of n, e.g. "1,3,1,1,2,1"')
    p.add_argument("--dot", action="store_true",
                   help="emit Graphviz DOT with component clusters")
    p.set_defaults(func=cmd_graph)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        finally:  # --help writes to stdout, then raises SystemExit
            sys.stdout.flush()
        if args.n < 1:
            raise ValueError("n must be at least 1")
        if args.command in ("multiply", "verify") and args.format == "csv":
            raise ValueError(f"{args.command} does not support --format csv")
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the rest goes to devnull, so the exit flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
