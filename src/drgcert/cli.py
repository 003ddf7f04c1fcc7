"""Command-line interface.

Subcommands: build, eigensystem, widths, certify, search, verify-theorem,
selftest.  Each command passes its result objects as they are, dataclass
reports through `dataclasses.asdict`, to `exact.canonical_json`, which prints
them on stdout with sorted keys and every rational value as an exact
"num/den" string; identical command plus seed gives byte-identical output
except for wall-time fields.  `search` builds its maximizer list from each
label's canonical text, each vertex of the maxima encoded once, and
`exact.canonical_object` joins it to the other values' texts.

`eigensystem`, and `certify` without --subset, read no vertex and build no
graph: they take the family's closed-form array from `graphs.family_array`,
which runs the builder's own refusals and vertex cap first.  `build`,
`widths`, `certify --subset`, `search` and `selftest` build the graph and
check by BFS that its array is the closed-form one (`_verified_array`),
from which the eigensystem is taken; `verify-theorem` builds its own.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 tier exceeded.
"""
from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import DrgError, ParameterError, TierLimitExceeded
from .exact import canonical_json, canonical_object, q_binomial
from .graphs import (
    DEFAULT_VERTEX_CAP,
    build_bilinear,
    build_grassmann,
    build_hamming,
    build_johnson,
    build_twisted_grassmann,
    check_distance_regular,
    distance_census,
    family_array,
    graph_cache_text,
    representatives,
)
from .lp_cert import certify_subset, expected_bound, hamming_certificate, solve_certificate
from .scheme import (
    eigensystem_cache_key,
    eigensystem_doc,
    eigensystem_from_array,
    eigensystem_to_json,
)
from .subsets import VertexSubset, inner_distribution, read_subset, width_and_dual_width
from . import ekr_search

FAMILY_PARAMS = {
    "johnson": ("v", "d"),
    "hamming": ("d", "q"),
    "grassmann": ("q", "v", "d"),
    "bilinear": ("q", "d", "e"),
    "twisted": ("q", "d"),
}

BUILDERS = {
    "johnson": build_johnson,
    "hamming": build_hamming,
    "grassmann": build_grassmann,
    "bilinear": build_bilinear,
    "twisted": build_twisted_grassmann,
}


def _family_and_params(args):
    if args.family and args.family_opt and args.family != args.family_opt:
        raise ParameterError(f"family {args.family!r} conflicts with --family {args.family_opt!r}")
    family = args.family_opt or args.family
    if family is None:
        raise ParameterError("a graph family is required (positional or --family)")
    if family not in FAMILY_PARAMS:
        raise ParameterError(
            f"unknown family {family!r}; choose from {sorted(FAMILY_PARAMS)}"
        )
    params = {}
    for name in FAMILY_PARAMS[family]:
        value = getattr(args, name, None)
        if value is None:
            raise ParameterError(f"family {family!r} needs -{name}")
        params[name] = value
    return family, params


def _check_t(params, t) -> None:
    """Refuse t outside 0 < t < d before any build.  params come from
    `family_array`, after the family's own refusals, so d is the diameter
    (min(d, v-d) for J(v,d) and J_q(v,d)) and at least 1."""
    d = params["d"]
    if not 0 < t < d:
        raise ParameterError(f"need 0 < t < d, got t={t}, d={d}")


def _build(family, params, vertex_cap):
    return BUILDERS[family](**params, vertex_cap=vertex_cap)


def _config(args, family=None, params=None):
    return {
        "command": args.command,
        "family": family,
        "params": params,
        "t": getattr(args, "t", None),
        "vertex_cap": getattr(args, "vertex_cap", None),
        "enum_cap": getattr(args, "enum_cap", None),
        "cache": getattr(args, "cache", None),
        "out": getattr(args, "out", None),
        "seed": getattr(args, "seed", None),
        "subset": getattr(args, "subset", None),
    }


def _emit(report: dict, args, encoded: dict | None = None) -> None:
    """Writes --out first, so an unwritable path exits 1 with stdout empty.
    encoded, when given, holds more top-level values, each already in its
    canonical text, and `canonical_object` joins them to the report's."""
    if encoded is None:
        text = canonical_json(report)
    else:
        text = canonical_object({**{k: canonical_json(v) for k, v in report.items()},
                                 **encoded})
    out = getattr(args, "out", None)
    if out is not None:
        Path(out).write_text(text + "\n", encoding="ascii")
    print(text)


def _cache_write(path: Path, content: str) -> None:
    """Write-if-absent; an existing file must be byte-identical.

    The content goes to a temporary file beside the target, which os.replace
    then renames into place, so an interrupted write never leaves a partial
    cache file that a later run would report as differing.
    """
    if path.exists():
        if path.read_bytes() != content.encode("ascii"):
            raise DrgError(f"cache file {path} differs from a fresh computation")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(content, encoding="ascii")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _graph_cache_path(args, family, params) -> Path:
    key = eigensystem_cache_key(family, params)
    return Path(args.cache) / f"{family}-{key}.drg"


def _verified_array(graph, census, arr):
    """arr, the family's closed-form array, once it equals the BFS array of
    graph (DrgError naming both otherwise).  The closed form carries the
    classical parameters, so the eigenvalues come from it."""
    bfs = check_distance_regular(graph, census)
    if bfs != arr:
        raise DrgError(f"{graph.family} {graph.params}: BFS array {{{bfs.b}; {bfs.c}}} differs"
                       f" from the closed-form array {{{arr.b}; {arr.c}}}")
    return arr


def cmd_build(args) -> int:
    family, params = _family_and_params(args)
    graph = _build(family, params, args.vertex_cap)
    census = distance_census(graph, representatives(graph))
    arr = _verified_array(graph, census, family_array(family, params, args.vertex_cap)[1])
    cache_path = _graph_cache_path(args, family, graph.params)
    _cache_write(cache_path, graph_cache_text(graph))
    report = {
        "config": _config(args, family, graph.params),
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "valency": arr.b0,
        "diameter": census.diameter,
        "intersection_array": {"b": list(arr.b), "c": list(arr.c)},
        "cache_file": str(cache_path),
    }
    _emit(report, args)
    return 0


def _eigensystem_for(family, params, vertex_cap, arr=None):
    """Build the graph, check it and find its eigensystem from arr, the
    family's closed-form array (taken from `family_array` after the build
    when not given), once the BFS array equals it.  The census comes from
    one representative per orbit, all that the distance-regularity check
    and the threshold graphs read; a subset's histogram needs none."""
    graph = _build(family, params, vertex_cap)
    if arr is None:
        arr = family_array(family, params, vertex_cap)[1]
    census = distance_census(graph, representatives(graph))
    sys_ = eigensystem_from_array(_verified_array(graph, census, arr), graph.n)
    return graph, census, sys_


def cmd_eigensystem(args) -> int:
    family, params = _family_and_params(args)
    params, arr = family_array(family, params, args.vertex_cap)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    content = eigensystem_to_json(sys_, family, params)
    key = eigensystem_cache_key(family, params)
    cache_path = Path(args.cache) / f"{family}-{key}.eig.json"
    _cache_write(cache_path, content)
    report = {
        "config": _config(args, family, params),
        **eigensystem_doc(sys_),
        "cache_file": str(cache_path),
    }
    _emit(report, args)
    return 0


def cmd_widths(args) -> int:
    family, params = _family_and_params(args)
    if args.subset is None:
        raise ParameterError("widths needs --subset")
    labels = read_subset(args.subset)  # refused before the build
    graph, _, sys_ = _eigensystem_for(family, params, args.vertex_cap)
    subset = VertexSubset.from_labels(graph, labels)
    dist = inner_distribution(subset, sys_)
    report = {
        "config": _config(args, family, graph.params),
        "size": subset.size,
        "e": dist.e,
        "eQ": dist.eq,
        **asdict(width_and_dual_width(dist)),
    }
    _emit(report, args)
    return 0


def cmd_certify(args) -> int:
    family, params = _family_and_params(args)
    if args.t is None:
        raise ParameterError("certify needs -t")
    params, arr = family_array(family, params, args.vertex_cap)
    _check_t(params, args.t)
    # refused before the build
    labels = read_subset(args.subset) if args.subset is not None else None
    if labels is None:
        sys_ = eigensystem_from_array(arr, arr.vertex_count())
    else:
        graph, _, sys_ = _eigensystem_for(family, params, args.vertex_cap, arr)
    cert = solve_certificate(sys_, args.t)
    table_value, hypothesis_met = expected_bound(family, params, args.t)
    report = {
        "family": family,
        "params": params,
        "t": args.t,
        "f": cert.f,
        "feasible": cert.feasible,
        "bound": cert.bound,
        "hypothesis_met": hypothesis_met,
        "table_value": table_value,
        "match": cert.bound == table_value,
        "config": _config(args, family, params),
    }
    if family == "hamming":
        mds_cert = hamming_certificate(params["d"], params["q"], args.t)
        report["mds_route_agrees"] = mds_cert.f == cert.f
    if labels is not None:
        dist = inner_distribution(VertexSubset.from_labels(graph, labels), sys_)
        report["subset_report"] = asdict(certify_subset(dist, cert))
    _emit(report, args)
    if labels is not None and report["subset_report"]["verdict"] == "violated-bug":
        return 2
    return 0


def cmd_search(args) -> int:
    family, params = _family_and_params(args)
    if args.t is None:
        raise ParameterError("search needs -t")
    params, arr = family_array(family, params, args.vertex_cap)
    _check_t(params, args.t)
    graph, census, sys_ = _eigensystem_for(family, params, args.vertex_cap, arr)
    cert, _, result = ekr_search.search(graph, census, sys_, args.t, args.enum_cap)
    # each vertex of the maxima encoded once, the list joined from its texts
    label = graph.vertices
    texts = {i: canonical_json(label[i]) for i in set().union(*result.families)}
    maximizers = "[" + ",".join(
        ["[" + ",".join([texts[i] for i in fam]) + "]" for fam in result.families]
    ) + "]"
    report = {
        "graph": {"family": family, "params": graph.params},
        "t": args.t,
        "threshold": census.diameter - args.t,
        "optimum": result.optimum,
        "bound": cert.bound if cert.feasible else None,
        "tight": cert.feasible and cert.bound == result.optimum,
        "truncated": result.truncated,
        "nodes": result.nodes,
        "seconds": round(result.seconds, 3),
        "config": _config(args, family, graph.params),
    }
    _emit(report, args, {"maximizers": maximizers})
    return 0


def cmd_verify_theorem(args) -> int:
    if args.q is None or args.d is None or args.t is None:
        raise ParameterError("verify-theorem needs -q, -d and -t")
    report = ekr_search.verify_theorem(
        args.q, args.d, args.t,
        search_cap=args.vertex_cap,
        enum_cap=args.enum_cap,
    )
    doc = asdict(report)
    doc.update(
        config=_config(args, "twisted", {"q": args.q, "d": args.d}),
        seconds=round(report.seconds, 3),
        verdict="PASS" if report.passed else "FAIL",
    )
    _emit(doc, args)
    return 0 if report.passed else 2


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    checks = []

    def record(name, ok):
        checks.append({"name": name, "passed": bool(ok)})

    ok = True
    for m in range(9):
        for n in range(m + 1):
            for q in (2, 3):
                if q_binomial(m, n, q) != q_binomial(m, m - n, q):
                    ok = False
                lhs = q_binomial(m, n, q)
                if n >= 1 and m >= 1:
                    rhs = q_binomial(m - 1, n - 1, q) + q ** n * q_binomial(m - 1, n, q)
                    if lhs != rhs:
                        ok = False
    record("q-binomial symmetry and Pascal identity", ok)

    # eigensystem_from_array raises unless PQ = |X| I (so sum m = |X|), and
    # width_and_dual_width unless w + w* >= d: a failure exits 2
    for family, params in (
        ("johnson", {"v": 5, "d": 2}),
        ("hamming", {"d": 3, "q": 2}),
        ("hamming", {"d": 1, "q": 5}),
    ):
        _eigensystem_for(family, params, args.vertex_cap)
    record("eigensystem identities PQ = |X| I", True)

    for family, params in (("johnson", {"v": 5, "d": 2}), ("hamming", {"d": 3, "q": 2})):
        graph, _, sys_ = _eigensystem_for(family, params, args.vertex_cap)
        for _ in range(200):
            idx = rng.sample(range(graph.n), rng.randint(1, graph.n))
            width_and_dual_width(inner_distribution(VertexSubset(graph, idx), sys_))
    record("fundamental inequality on random subsets", True)

    _, _, sys_ = _eigensystem_for("johnson", {"v": 7, "d": 3}, args.vertex_cap)
    cert = solve_certificate(sys_, 1)
    record("classical certificate bound", cert.feasible and cert.bound == 15)

    passed = all(c["passed"] for c in checks)
    _emit({"config": _config(args), "checks": checks, "passed": passed}, args)
    return 0 if passed else 2


def _add_common(p, with_family=True, with_t=False, with_subset=False,
                with_enum=False, cap_default=DEFAULT_VERTEX_CAP):
    if with_family:
        p.add_argument("family", nargs="?", choices=sorted(FAMILY_PARAMS))
        p.add_argument("--family", dest="family_opt", choices=sorted(FAMILY_PARAMS))
        p.add_argument("-q", type=int)
        p.add_argument("-v", type=int)
        p.add_argument("-d", type=int)
        p.add_argument("-e", type=int)
    if with_t:
        p.add_argument("-t", type=int)
    if with_subset:
        p.add_argument("--subset", metavar="FILE")
    if with_enum:
        p.add_argument("--enum-cap", type=int, default=ekr_search.ENUM_CAP)
    p.add_argument("--cache", metavar="DIR", default="drg-cache")
    p.add_argument("--out", metavar="FILE")
    p.add_argument(
        "--vertex-cap", type=int, default=cap_default,
        help="vertex tier: a graph with more vertices is refused before it is "
        "built, so search and verify-theorem never search one",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after: a
    parse keeps no state in it, and each build costs milliseconds."""
    parser = argparse.ArgumentParser(
        prog="drgcert",
        description="Exact scheme eigensystems, dual certificates, and "
        "extremal-family search for distance-regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a graph and cache it")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eigensystem", help="exact P, Q, multiplicities")
    _add_common(p)
    p.set_defaults(func=cmd_eigensystem)

    p = sub.add_parser("widths", help="inner distribution and widths of a subset")
    _add_common(p, with_subset=True)
    p.set_defaults(func=cmd_widths)

    p = sub.add_parser("certify", help="solve and check the dual certificate")
    _add_common(p, with_t=True, with_subset=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", help="exhaustive maximum t-intersecting family search")
    _add_common(p, with_t=True, with_enum=True, cap_default=ekr_search.EXHAUSTIVE_CAP)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-theorem", help="full pipeline on the twisted graph")
    p.add_argument("-q", type=int)
    p.add_argument("-d", type=int)
    p.add_argument("-t", type=int)
    _add_common(p, with_family=False, with_enum=True,
                cap_default=ekr_search.EXHAUSTIVE_CAP)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("selftest", help="fast internal consistency battery")
    _add_common(p, with_family=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # refused before any build; max_clique keeps its own check
        if getattr(args, "enum_cap", 1) < 1:
            raise ParameterError(f"need enum_cap >= 1, got {args.enum_cap}")
        if args.vertex_cap < 1:
            raise ParameterError(f"need vertex_cap >= 1, got {args.vertex_cap}")
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TierLimitExceeded as exc:
        print(f"tier exceeded: {exc}", file=sys.stderr)
        return 3
    except DrgError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
