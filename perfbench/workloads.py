"""Job pools of the drgcert benchmark and the checks on their verdicts.

A job is one user-level verdict.  Its `run` calls the package the way
`drgcert.cli` does, or calls `drgcert.cli.main` in-process; its `check`
raises `CheckFailed` when the verdict disagrees with a closed form or a
pinned value.  Each workload has a fixed pool of instances; the seed only
draws the random vertex subsets (here) and the job order (in `run.py`), so
changing it changes the inputs but not the kind of cost.

Pinned maximizer counts and their closed forms:
  J(v,d), t=1, v > 2d: the v stars.
  J(v,d), t=2, v > 3(d-1): the binom(v,2) stars.
  J(10,5), t=3: the binom(10,5) Ahlswede-Khachatrian families
    {A : |A & S| >= 4}, one for each 5-set S.
  H(d,q), t: the binom(d,t) q^t stars; at t = d-1 these are the d q^(d-1)
    lines.
  H(5,3), t=2: the 90 stars plus the 405 Frankl families {x : x agrees with
    w in >= 3 of 4 fixed coordinates} (5 coordinate sets times 3^4 words w).
  J_q(v,2), t=1: the [v,1]_q stars, plus the [v,3]_q dual stars when v = 4.
  Bil_q(d,e), t=1, d < e: the [d,1]_q q^e families {M : vM = z}.
  twisted(q,d), t: the [2d,t-1]_q descendent families.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from drgcert import cli, ekr_search, graphs, lp_cert, scheme
from drgcert.exact import q_binomial


class CheckFailed(Exception):
    """A verdict disagrees with its closed form or pinned value."""


@dataclass
class Job:
    """One verdict.  `run(workdir)` is timed; `check(result)` is not.  A
    check may return a dict of counts it measured (cache bytes)."""

    name: str
    run: Callable[[Path], object]
    check: Callable[[object], dict | None]
    #: inputs drawn from the seed, exposed for the seed tests
    inputs: object = None


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


# ---------------------------------------------------------------------------
# closed forms the checks compare against


def instance(family: str, params: dict) -> str:
    return f"{family}({','.join(str(v) for v in params.values())})"


def family_flags(family: str, params: dict) -> list[str]:
    return [family] + [f for k, v in params.items() for f in (f"-{k}", str(v))]


def closed_form_array(family: str, p: dict) -> tuple[list[int], list[int]]:
    """Intersection array {b; c} from the textbook formulas."""
    if family == "johnson":
        v, d = p["v"], p["d"]
        return ([(d - i) * (v - d - i) for i in range(d)],
                [i * i for i in range(1, d + 1)])
    if family == "hamming":
        d, q = p["d"], p["q"]
        return [(d - i) * (q - 1) for i in range(d)], list(range(1, d + 1))
    if family in ("grassmann", "twisted"):
        q = p["q"]
        v, d = (p["v"], p["d"]) if family == "grassmann" else (2 * p["d"] + 1, p["d"])
        qi = lambda m: (q ** m - 1) // (q - 1)  # noqa: E731
        return ([q ** (2 * i + 1) * qi(d - i) * qi(v - d - i) for i in range(d)],
                [qi(i) ** 2 for i in range(1, d + 1)])
    if family == "bilinear":
        q, d, e = p["q"], p["d"], p["e"]
        return ([q ** (2 * i) * (q ** (d - i) - 1) * (q ** (e - i) - 1) // (q - 1)
                 for i in range(d)],
                [q ** (i - 1) * (q ** i - 1) // (q - 1) for i in range(1, d + 1)])
    raise ValueError(family)


def valencies(b, c) -> list[int]:
    k = [1]
    for bi, ci in zip(b, c):
        k.append(k[-1] * bi // ci)
    return k


def check_pq(P, Q, n: int) -> None:
    """PQ = |X| I, on exact rationals, independently of the program."""
    size = len(P)
    for i in range(size):
        for j in range(size):
            s = sum(P[i][l] * Q[l][j] for l in range(size))
            expect(s == (n if i == j else 0), f"(PQ)[{i},{j}] = {s}, |X| = {n}")


def johnson_distance(x, y) -> int:
    return len(x) - len(set(x) & set(y))


# ---------------------------------------------------------------------------
# cli jobs


def run_cli(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--cache", str(workdir / "cache")])
    return code, out.getvalue(), err.getvalue()


def snapshot(directory: Path) -> dict[str, bytes]:
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def report_of(args, code: int, out: str, err: str) -> dict:
    expect(code == 0, f"{' '.join(args)} exited with {code}: {err.strip()}")
    doc = json.loads(out.splitlines()[-1])
    doc.pop("seconds", None)  # wall time, the one field that may differ
    return doc


def cli_job(name: str, argv: list[str], check_report, runs: int = 1,
            writes_cache: bool = False, subset=None) -> Job:
    """A cli command.  With runs=2 it runs twice on one cache directory: the
    first run writes the cache, the second must find it byte-identical and
    print the same report."""
    if subset is not None:
        argv = argv + ["--subset", "SUBSET"]

    def run(workdir: Path):
        args = list(argv)
        if subset is not None:
            path = workdir / "subset.json"
            path.write_text(json.dumps(subset), encoding="ascii")
            args[-1] = str(path)
        calls = []
        for _ in range(runs):
            calls.append((run_cli(args, workdir), snapshot(workdir / "cache")))
        return args, calls

    def check(result):
        args, calls = result
        (first, written), (last, verified) = calls[0], calls[-1]
        doc = report_of(args, *first)
        expect(report_of(args, *last) == doc, "second run printed another report")
        expect(verified == written, "cache changed on the verifying run")
        expect(bool(written) == writes_cache,
               f"cache files written: {sorted(written)}, expected {writes_cache}")
        check_report(doc)
        if runs == 2:
            return {
                "cli.cache_bytes_written": sum(map(len, written.values())),
                "cli.cache_bytes_verified": sum(map(len, verified.values())),
            }
        return None

    return Job(name, run, check, inputs=subset)


def search_job(family: str, params: dict, t: int, optimum: int, n_max: int,
               bound: int | None) -> Job:
    """`drgcert search`: optimum, certificate bound and maximizer count.
    `bound` is None where the certificate is infeasible; a feasible bound
    must equal the `expected_bound` table."""
    argv = ["search"] + family_flags(family, params) + ["-t", str(t)]
    table, _ = lp_cert.expected_bound(family, params, t)

    def check_report(doc):
        expect(doc["optimum"] == optimum, f"optimum {doc['optimum']}, pinned {optimum}")
        expect(doc["bound"] == (None if bound is None else frac(bound)),
               f"bound {doc['bound']}, pinned {bound}")
        expect(bound is None or bound == table, f"pinned bound {bound}, table {table}")
        expect(doc["tight"] == (bound is not None), "tightness flag")
        expect(not doc["truncated"], "maximizer list truncated")
        expect(len(doc["maximizers"]) == n_max,
               f"{len(doc['maximizers'])} maximizers, pinned {n_max}")
        expect(all(len(m) == optimum for m in doc["maximizers"]), "maximizer size")

    return cli_job(f"search {instance(family, params)} t={t}", argv, check_report)


def verify_theorem_job(q: int, d: int, t: int, runs: int = 1,
                       vertex_cap: int | None = None) -> Job:
    argv = ["verify-theorem", "-q", str(q), "-d", str(d), "-t", str(t)]
    if vertex_cap is not None:
        argv += ["--vertex-cap", str(vertex_cap)]
    families = q_binomial(2 * d, t - 1, q)
    expected = q_binomial(2 * d + 1 - t, d - t, q)

    def check_report(doc):
        expect(doc["passed"] and doc["verdict"] == "PASS", "theorem not verified")
        expect(doc["optimum"] == expected and doc["bound"] == frac(expected),
               f"optimum {doc['optimum']}, bound {doc['bound']}, expected {expected}")
        expect(doc["n_maximizers"] == doc["n_descendent_families"] == families,
               f"{doc['n_maximizers']} maximizers, expected {families}")

    return cli_job(f"verify-theorem ({q},{d},{t})", argv, check_report, runs)


def build_job(family: str, params: dict) -> Job:
    b, c = closed_form_array(family, params)
    n = sum(valencies(b, c))

    def check_report(doc):
        expect(doc["vertices"] == n, f"{doc['vertices']} vertices, expected {n}")
        expect(doc["edges"] * 2 == n * b[0], f"{doc['edges']} edges, expected {n * b[0] // 2}")
        expect(doc["intersection_array"] == {"b": b, "c": c},
               f"array {doc['intersection_array']}, expected {b}, {c}")

    return cli_job(f"build {instance(family, params)}",
                   ["build"] + family_flags(family, params), check_report,
                   runs=2, writes_cache=True)


def eigensystem_job(family: str, params: dict) -> Job:
    b, c = closed_form_array(family, params)
    k = valencies(b, c)
    n = sum(k)

    def check_report(doc):
        P = [[parse(x) for x in row] for row in doc["P"]]
        Q = [[parse(x) for x in row] for row in doc["Q"]]
        check_pq(P, Q, n)
        expect([parse(x) for x in doc["k"]] == k, "valencies")
        expect(sum(parse(x) for x in doc["m"]) == n, "multiplicities do not sum to |X|")

    return cli_job(f"eigensystem {instance(family, params)}",
                   ["eigensystem"] + family_flags(family, params), check_report,
                   runs=2, writes_cache=True)


def certify_job(family: str, params: dict, t: int, subset=None, verdict=None) -> Job:
    table, _ = lp_cert.expected_bound(family, params, t)

    def check_report(doc):
        expect(doc["feasible"] and doc["match"] and doc["bound"] == frac(table),
               f"bound {doc['bound']}, table {table}")
        if family == "hamming":
            expect(doc["mds_route_agrees"], "MDS route disagrees")
        if subset is not None:
            sub = doc["subset_report"]
            expect(sub["verdict"] == verdict and sub["size"] == frac(len(subset)),
                   f"subset verdict {sub['verdict']}, size {sub['size']}")

    kind = "certify" if subset is None else f"certify --subset {len(subset)}"
    argv = ["certify"] + family_flags(family, params) + ["-t", str(t)]
    return cli_job(f"{kind} {instance(family, params)} t={t}", argv, check_report, runs=2,
                   subset=subset)


def widths_job(v: int, d: int, subset: list) -> Job:
    """`drgcert widths` on J(v,d), against the histogram of the closed-form
    distances d - |x & y|."""
    counts = [0] * (d + 1)
    for x, y in itertools.product(subset, repeat=2):
        counts[johnson_distance(x, y)] += 1
    e = [frac(Fraction(cnt, len(subset))) for cnt in counts]
    width = max(i for i in range(d + 1) if counts[i])

    def check_report(doc):
        expect(doc["size"] == len(subset), "subset size")
        expect(doc["e"] == e, f"inner distribution {doc['e']}, expected {e}")
        expect(doc["width"] == width, f"width {doc['width']}, expected {width}")
        expect(doc["width"] + doc["dual_width"] >= d, "fundamental inequality")

    return cli_job(f"widths {len(subset)} johnson({v},{d})",
                   ["widths"] + family_flags("johnson", J(v, d)), check_report, runs=2,
                   subset=subset)


# ---------------------------------------------------------------------------
# public-function jobs


def krein_job(family: str, params: dict) -> Job:
    """Full-matrix tier: materialized idempotents and the entrywise Krein
    check, which the cli does not expose."""

    def run(workdir):
        g = cli.BUILDERS[family](**params)
        census = graphs.distance_census(g)
        arr = graphs.check_distance_regular(g, census)
        sys_ = scheme.eigensystem_from_array(arr, g.n)
        scheme.krein_cross_check(g, census, sys_)  # raises on any mismatch
        return g.n, sys_

    def check(result):
        n, sys_ = result
        check_pq(sys_.P.rows, sys_.Q.rows, n)

    return Job(f"krein {instance(family, params)}", run, check)


def array_of(family: str, p: dict):
    if family == "hamming":
        return graphs.hamming_intersection_array(p["d"], p["q"])
    if family == "grassmann":
        return graphs.grassmann_intersection_array(p["q"], p["v"], p["d"])
    return graphs.twisted_intersection_array(p["q"], p["d"])


def certify_array_job(family: str, params: dict) -> Job:
    """Parameter tier: eigensystem from the closed-form array and the
    certificate for every t, nothing materialized."""
    b, c = closed_form_array(family, params)
    n = sum(valencies(b, c))
    d = len(b)

    def run(workdir):
        sys_ = scheme.eigensystem_from_array(array_of(family, params), n)
        return sys_, [lp_cert.solve_certificate(sys_, t) for t in range(1, d)]

    def check(result):
        sys_, certs = result
        check_pq(sys_.P.rows, sys_.Q.rows, n)
        for t, cert in enumerate(certs, start=1):
            table, _ = lp_cert.expected_bound(family, params, t)
            expect(cert.feasible and cert.bound == table,
                   f"t={t}: bound {cert.bound}, table {table}")

    return Job(f"certify-all-t {instance(family, params)}", run, check)


def mds_job(d: int, q: int) -> Job:
    """Hamming cross-check: the MDS-route certificate equals the solved one
    for every t."""

    def run(workdir):
        sys_ = scheme.eigensystem_from_array(graphs.hamming_intersection_array(d, q), q ** d)
        return [(lp_cert.solve_certificate(sys_, t), lp_cert.hamming_certificate(d, q, t))
                for t in range(1, d)]

    def check(pairs):
        for t, (solved, mds) in enumerate(pairs, start=1):
            expect(solved.f == mds.f, f"t={t}: the two routes disagree")
            expect(solved.feasible and solved.bound == q ** (d - t), f"t={t}: bound")

    return Job(f"mds-cross-check H({d},{q})", run, check)


def descendent_job(q: int, d: int, t: int) -> Job:
    count = q_binomial(2 * d, t - 1, q)
    size = q_binomial(2 * d + 1 - t, d - t, q)

    def run(workdir):
        arr = graphs.twisted_intersection_array(q, d)
        sys_ = scheme.eigensystem_from_array(arr, arr.vertex_count())
        fams = ekr_search.enumerate_descendent_families(q, d, t)
        return [(f.size, ekr_search.verify_descendent_family(f, q, d, t, sys_)) for f in fams]

    def check(results):
        expect(len(results) == count, f"{len(results)} families, expected {count}")
        for fam_size, (widths, cert) in results:
            expect(fam_size == size and cert.verdict == "tight" and widths.descendent,
                   f"family of size {fam_size}: verdict {cert.verdict}")

    return Job(f"descendent ({q},{d},{t})", run, check)


def x2_subfamily_job(q: int, d: int, t: int, picks: list[int]) -> Job:
    """A seeded subset of a descendent family, certified from its X2
    distance histogram alone: strictly below the bound."""

    def run(workdir):
        fam = ekr_search.enumerate_descendent_families(q, d, t)[0]
        sub = ekr_search.DescendentFamily(fam.u, tuple(fam.members[i] for i in picks))
        return ekr_search.verify_descendent_family(sub, q, d, t)

    def check(result):
        widths, cert = result
        expect(cert.verdict == "strict" and cert.size == len(picks), f"verdict {cert.verdict}")
        expect(widths.width <= d - t and widths.width + widths.dual_width >= d, "widths")

    return Job(f"x2-subfamily {len(picks)} ({q},{d},{t})", run, check, inputs=picks)


# ---------------------------------------------------------------------------
# pools


def J(v, d):
    return {"v": v, "d": d}


def H(d, q):
    return {"d": d, "q": q}


def G(q, v, d):
    return {"q": q, "v": v, "d": d}


def ekr_search_pool(rng: random.Random) -> list[Job]:
    """Branch and bound dominates; graph building and the census are small."""
    return [
        search_job("johnson", J(10, 4), 2, 28, comb(10, 2), 28),
        search_job("johnson", J(11, 4), 2, 36, comb(11, 2), 36),
        search_job("johnson", J(12, 4), 2, 45, comb(12, 2), 45),
        search_job("johnson", J(10, 5), 3, 26, comb(10, 5), None),
        search_job("johnson", J(10, 3), 1, 36, 10, 36),
        search_job("johnson", J(12, 3), 1, 55, 12, 55),
        search_job("hamming", H(5, 3), 2, 27, comb(5, 2) * 9 + 5 * 3 ** 4, None),
        search_job("hamming", H(4, 4), 1, 64, 4 * 4, 64),
        search_job("hamming", H(4, 4), 2, 16, comb(4, 2) * 4 ** 2, 16),
        search_job("hamming", H(4, 4), 3, 4, 4 * 4 ** 3, 4),
        search_job("hamming", H(3, 5), 1, 25, 3 * 5, 25),
        search_job("grassmann", G(2, 6, 2), 1, 31, q_binomial(6, 1, 2), 31),
        search_job("grassmann", G(3, 4, 2), 1, 13, 2 * q_binomial(4, 1, 3), 13),
        search_job("bilinear", {"q": 2, "d": 2, "e": 4}, 1, 16, 3 * 2 ** 4, 16),
        verify_theorem_job(2, 2, 1),
    ]


def drg_build_pool(rng: random.Random) -> list[Job]:
    """Graph materialization, the full-matrix tier, subsets and cli caching;
    search does no work here."""
    j104 = list(itertools.combinations(range(1, 11), 4))
    h44 = list(itertools.product(range(4), repeat=4))
    star_point = rng.randint(1, 10)
    star = [s for s in j104 if star_point in s]
    coords = sorted(rng.sample(range(4), 2))
    values = [rng.randrange(4) for _ in coords]
    h_star = [w for w in h44 if all(w[i] == x for i, x in zip(coords, values))]
    lists = lambda labels: [list(x) for x in labels]  # noqa: E731
    return [
        build_job("johnson", J(10, 4)),
        build_job("hamming", H(5, 3)),
        build_job("twisted", {"q": 2, "d": 2}),
        build_job("grassmann", {"q": 3, "v": 4, "d": 2}),
        eigensystem_job("hamming", H(4, 4)),
        eigensystem_job("bilinear", {"q": 2, "d": 2, "e": 4}),
        eigensystem_job("johnson", J(11, 4)),
        certify_job("grassmann", {"q": 2, "v": 5, "d": 2}, 1),
        widths_job(10, 4, lists(rng.sample(j104, 60))),
        certify_job("johnson", J(10, 4), 1, lists(rng.sample(star, 60)), "strict"),
        certify_job("hamming", H(4, 4), 2, lists(h_star), "tight"),
        krein_job("johnson", J(10, 4)),
        krein_job("hamming", H(4, 4)),
        krein_job("bilinear", {"q": 2, "d": 2, "e": 3}),
        verify_theorem_job(2, 2, 1, runs=2, vertex_cap=2000),
    ]


def param_tier_pool(rng: random.Random) -> list[Job]:
    """Closed-form arrays, exact eigensystems and certificates, descendent
    families from X2 histograms; no graph is materialized."""
    return [
        certify_array_job("hamming", H(4, 4)),
        certify_array_job("hamming", H(7, 7)),
        certify_array_job("hamming", H(10, 10)),
        mds_job(5, 5),
        mds_job(6, 6),
        mds_job(8, 8),
        certify_array_job("grassmann", G(2, 16, 8)),
        certify_array_job("grassmann", G(3, 12, 6)),
        certify_array_job("grassmann", G(5, 8, 4)),
        certify_array_job("grassmann", G(3, 10, 5)),
        certify_array_job("twisted", {"q": 2, "d": 6}),
        certify_array_job("twisted", {"q": 3, "d": 3}),
        descendent_job(2, 3, 2),
        descendent_job(5, 2, 1),
        x2_subfamily_job(2, 3, 1, sorted(rng.sample(range(q_binomial(6, 2, 2)), 160))),
    ]


POOLS = {
    "ekr-search": ekr_search_pool,
    "drg-build": drg_build_pool,
    "param-tier": param_tier_pool,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's fixed pool, with random subsets drawn from `seed`."""
    return POOLS[workload](random.Random(seed))
