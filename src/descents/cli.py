"""Command-line surface: multiply, verify, table, graph.

Exit codes: 0 success (verification PASS), 1 verification FAIL,
2 usage or parse errors.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .algebra import (
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


def _warn_bound(what: str, n: int, default: int) -> None:
    print(f"warning: degree {n} is above the default {what} bound "
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
        limit = ORACLE_DEGREE_DEFAULT
        if args.max_n is not None and args.max_n > limit:
            limit = args.max_n
            if args.n > ORACLE_DEGREE_DEFAULT:
                _warn_bound("oracle", args.n, ORACLE_DEGREE_DEFAULT)
        check_degree(args.n, limit, ORACLE_DEGREE_DEFAULT, option="--max-n")
        oracle_ok = oracle_agrees(kappa, nu, max_degree=limit)

    if args.format == "structured":
        record = {
            "schema_version": 1,
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
    elif args.format == "text":
        for m in matrices:
            print(f"{m.to_text()} -> {m.reading_word().to_text()}")
        print(str(product))
        if oracle_ok is not None:
            print(f"oracle check: {'PASS' if oracle_ok else 'FAIL'}")
    else:
        raise ValueError(f"multiply does not support --format {args.format}")
    return 0 if oracle_ok in (None, True) else 1


def _verify_pair_scope(n: int, parabolic: bool) -> tuple[bool, dict]:
    subsets = all_generator_subsets(n)
    reports = [verify_subset_pair(j, k, parabolic=parabolic, max_degree=n)
               for j in subsets for k in subsets]
    failures = sum(r.failure_count for r in reports)
    stats = {"pairs": len(reports)}
    if not parabolic:
        stats["witnesses"] = sum(r.witnesses for r in reports)
    stats["failures"] = failures
    return failures == 0, stats


def _verify_oracle_scope(n: int, seed: int) -> tuple[bool, dict]:
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
    return failures == 0, {"pairs": len(pairs), "mode": mode,
                           "failures": failures}


def cmd_verify(args) -> int:
    scopes = [name for name, on in
              (("lemma", args.lemma), ("oracle", args.oracle),
               ("parabolic", args.parabolic)) if on]
    run_all = args.all or not scopes
    if run_all:
        scopes = ["lemma", "oracle", "parabolic"]

    bounds = {"lemma": LEMMA_DEGREE_DEFAULT,
              "oracle": ORACLE_DEGREE_DEFAULT,
              "parabolic": PARABOLIC_DEGREE_DEFAULT}
    selected = []
    for scope in scopes:
        if args.n > bounds[scope]:
            if run_all and scope == "parabolic":
                selected.append((scope, "skip"))
                continue
            if args.max_n is None or args.max_n < args.n:
                raise ValueError(
                    f"degree {args.n} above the {scope} bound "
                    f"{bounds[scope]}; pass --max-n {args.n} to override, "
                    "or pick a narrower scope")
            _warn_bound(scope, args.n, bounds[scope])
        selected.append((scope, "run"))

    results = []
    ok = True
    for scope, action in selected:
        if action == "skip":
            results.append((scope, None, {"reason":
                                          f"n>{bounds[scope]}"}))
            continue
        if scope == "oracle":
            passed, stats = _verify_oracle_scope(args.n, args.seed)
        else:
            passed, stats = _verify_pair_scope(args.n,
                                               parabolic=scope == "parabolic")
        ok = ok and passed
        results.append((scope, passed, stats))

    if args.format == "structured":
        _emit_json({
            "schema_version": 1,
            "kind": "descent-algebra-verification",
            "n": args.n,
            "scopes": [
                {"scope": scope,
                 "status": ("SKIP" if passed is None
                            else "PASS" if passed else "FAIL"),
                 **stats}
                for scope, passed, stats in results],
            "overall": "PASS" if ok else "FAIL",
        })
    elif args.format == "text":
        for scope, passed, stats in results:
            status = ("SKIP" if passed is None
                      else "PASS" if passed else "FAIL")
            detail = ", ".join(f"{k}={v}" for k, v in stats.items())
            print(f"{scope}: {status} ({detail})")
        print(f"overall: {'PASS' if ok else 'FAIL'}")
    else:
        raise ValueError(f"verify does not support --format {args.format}")
    return 0 if ok else 1


def cmd_table(args) -> int:
    check_degree(args.n, args.max_n, BASIS_DEGREE_MAX, option="--max-n")
    rows = structure_constants(args.n, max_degree=args.max_n)
    if args.format == "csv":
        write_structure_csv(rows, sys.stdout)
    elif args.format == "structured":
        _emit_json(structure_records(args.n, rows))
    elif args.format == "text":
        for kappa, nu, product in rows:
            print(f"B({kappa.to_text()}) * B({nu.to_text()}) = {product}")
    else:
        raise ValueError(f"table does not support --format {args.format}")
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
    edges = " ".join(f"{{{u},{v}}}" for u, v in graph.sorted_edges())
    print(f"n: {args.n}")
    print(f"subset: {{{subset.to_text()}}}")
    print(f"edges: {edges if edges else '(none)'}")
    print(f"ordered presentation: {presentation.to_text()}")
    print(f"composition: {subset_to_composition(subset).to_text()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descents",
        description="Descent algebra of the symmetric group: products, "
                    "verification, tables, graphs.")
    # read by multiply, verify and table; graph reads neither
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "csv", "structured"],
                        default="text",
                        help="output format (default: text)")
    common.add_argument("--max-n", type=int, default=None, metavar="N",
                        help="raise a default degree bound; verify and "
                             "multiply --oracle warn above the default")

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
                   help="presentation/reading-word/bijection checks")
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
    args = parser.parse_args(argv)
    if args.n < 1:
        print("error: n must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
