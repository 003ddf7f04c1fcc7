"""Dual feasibility certificates and the size bound they prove.

A certificate for threshold t is a vector f with f_0 = 1, f_1 = ... = f_t = 0
whose transform fQ^T vanishes in positions 1..d-t.  Those d-t homogeneous
conditions leave a square linear system in f_{t+1}..f_d, solved exactly; the
certificate is feasible when every solved entry is strictly positive.  For a
feasible f and any subset of width at most d-t,

    |Y| = (eQ)_0 <= sum_j (eQ)_j f_j = (fQ^T)_0,

with equality exactly when the subset is a descendent with w = d-t, w* = t.
A nonnegative f already gives the inequality; strict positivity is what
gives the equality clause.

f is solved from the eigensystem's D*Q, which `SchemeEigensystem` forms
once (an equation scaled by D keeps its solution), by one fraction-free
elimination on its integer rows (`exact.solve_integer_rows`, which
re-substitutes its result).  f stays integers over the determinant through
the normalisation, zero-block, positivity and dual-constraint checks and
the bound, and its Fractions are formed once, for the DualCertificate.
The descendent families of one t share one solve through the one verdict
their eigensystem keeps for their one distance histogram
(`SchemeEigensystem.verdicts`).

For Hamming graphs there is a second, independent route: the (possibly
formal) inner distribution e' of a length-d minimum-distance-(t+1) code of
size q^(d-t) is uniquely determined by the same kind of linear system in the
e-domain, and f = e' . diag(k_0..k_d)^{-1}.  That route builds no
eigensystem: H(d,q) is self-dual, so Q_ij = K_j(i), the Krawtchouk
polynomial, and k_i = C(d,i) (q-1)^i, both integers in closed form; e' is
solved on the Krawtchouk rows in the same way, and f is kept as integers
over det * lcm(k).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Sequence

from .errors import (
    DrgError,
    InfeasibleCertificate,
    ParameterError,
    UnsupportedFamily,
    WidthTooLarge,
)
from .exact import q_binomial, solve_integer_rows
from .scheme import SchemeEigensystem
from .subsets import InnerDistribution, width_and_dual_width


@dataclass(frozen=True)
class DualCertificate:
    t: int
    f: tuple[Fraction, ...]
    bound: Fraction
    feasible: bool
    normalization_ok: bool
    zero_block_ok: bool
    positive_tail: bool
    dual_constraints_ok: bool

    @property
    def proves_bound(self) -> bool:
        """|Y| <= bound for every Y of width <= d-t: normalisation, zero
        block and dual constraints hold and f >= 0.  `feasible` asks f > 0
        on the tail, which the equality clause needs as well."""
        return (self.normalization_ok and self.zero_block_ok
                and self.dual_constraints_ok and min(self.f) >= 0)


@dataclass(frozen=True)
class CertReport:
    size: Fraction
    bound: Fraction
    verdict: str  # strict | tight | violated-bug
    width_is_extremal: bool  # w == d - t
    dual_width_is_extremal: bool  # w* == t
    slack: Fraction
    slack_terms: tuple[Fraction, ...]  # (eQ)_j * f_j


def _finish_certificate(
    fi: Sequence[int], F: int, t: int, D: int, Qi: Sequence[Sequence[int]]
) -> DualCertificate:
    """Feasibility and bound of f = fi / F, F > 0, from Qi = D Q integral.
    (fQ^T)_j is the integer sum sum_i fi_i (D Q_ji) over F D, so every
    check is an integer test, and the Fractions of f and of the bound are
    formed once, here."""
    d = len(Qi) - 1
    norm_ok = fi[0] == F
    zero_ok = not any(fi[1:t + 1])
    pos_ok = all(x > 0 for x in fi[t + 1:])
    dual_ok = not any(sum(map(mul, fi, Qi[j])) for j in range(1, d - t + 1))
    return DualCertificate(
        t=t,
        f=tuple(Fraction(x, F) for x in fi),
        bound=Fraction(sum(map(mul, fi, Qi[0])), F * D),
        feasible=norm_ok and zero_ok and pos_ok and dual_ok,
        normalization_ok=norm_ok,
        zero_block_ok=zero_ok,
        positive_tail=pos_ok,
        dual_constraints_ok=dual_ok,
    )


def _pinned_solution(M: Sequence[Sequence[int]], t: int) -> tuple[int, list[int]]:
    """(F, x) with F > 0 and x integral, where f = x / F has f_0 = 1,
    f_1 = ... = f_t = 0 and (fM^T)_j = 0 for j = 1..d-t.  The tail is
    solved by `solve_integer_rows` on the integer rows of M, and F is the
    absolute value of its determinant; any nonzero multiple of M, such as
    D*Q for Q, gives the same f."""
    eqs = M[1:len(M) - t]
    det, X = solve_integer_rows([[*row[t + 1:], -row[0]] for row in eqs], len(eqs))
    sign = -1 if det < 0 else 1
    return sign * det, [sign * det] + [0] * t + [sign * x for (x,) in X]


def solve_certificate(sys: SchemeEigensystem, t: int) -> DualCertificate:
    """Solve the (d-t) x (d-t) system (fQ^T)_j = 0, j = 1..d-t, for the free
    tail f_{t+1}..f_d, then evaluate feasibility and the bound (fQ^T)_0.

    SingularSystem propagates when the system has no unique solution; an
    infeasible (but unique) f is returned with feasible=False rather than
    raised, since the CLI reports it.
    """
    d = sys.d
    if not 0 < t < d:
        raise ParameterError(f"need 0 < t < d, got t={t}, d={d}")
    F, fi = _pinned_solution(sys.DQ, t)
    return _finish_certificate(fi, F, t, sys.D, sys.DQ)


def krawtchouk_matrix(d: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The rows of Q (= P) of H(d,q) in the natural ordering, Q_ij = K_j(i),
    by the three-term recurrence in integers, from K_-1 = 0 and K_0 = 1:

        (j+1) K_{j+1}(i) = ((q-1)(d-j) + j - qi) K_j(i) - (q-1)(d-j+1) K_{j-1}(i).

    K_{j+1}(i) is an integer, so each division by j+1 is exact; a
    remainder raises DrgError."""
    rows = []
    for i in range(d + 1):
        row, before = [1], 0
        for j in range(d):
            k, rem = divmod(((q - 1) * (d - j) + j - q * i) * row[j]
                            - (q - 1) * (d - j + 1) * before, j + 1)
            if rem:
                raise DrgError(f"K_{j + 1}({i}) of H({d},{q}) is not an integer")
            before = row[j]
            row.append(k)
        rows.append(tuple(row))
    return tuple(rows)


def hamming_certificate(d: int, q: int, t: int) -> DualCertificate:
    """The certificate of H(d,q) by the MDS route: f_i = e'_i / k_i with
    k_i = C(d,i) (q-1)^i, where e' is the unique vector with e'_0 = 1,
    e'_1 = ... = e'_t = 0 and (e'Q)_1 = ... = (e'Q)_{d-t} = 0.  e' is the
    inner distribution of an MDS code when one exists; it is well defined
    regardless, and no positivity is imposed on it."""
    if not 0 < t < d:
        raise ParameterError(f"need 0 < t < d, got t={t}, d={d}")
    if q < 2:
        raise ParameterError(f"need q >= 2, got q={q}")
    K = krawtchouk_matrix(d, q)
    F, eprime = _pinned_solution(tuple(zip(*K)), t)
    k = [comb(d, i) * (q - 1) ** i for i in range(d + 1)]
    L = lcm(*k)  # f = e' / k = (e'_i L / k_i)_i / (F L)
    return _finish_certificate([ei * (L // ki) for ei, ki in zip(eprime, k)], F * L, t, 1, K)


def expected_bound(family: str, params: dict, t: int):
    """Closed-form table value of (fQ^T)_0 and whether the published
    feasibility hypothesis holds at these parameters.

    Returns (value, hypothesis_met).  The solver always runs regardless; the
    hypothesis flag is advisory.
    """
    if family not in ("johnson", "hamming", "grassmann", "bilinear", "twisted"):
        raise UnsupportedFamily(f"no closed-form bound for family {family!r}")
    d = params["d"]
    if not 0 < t < d:
        raise ParameterError(f"need 0 < t < d, got t={t}")
    if family == "johnson":
        v = params["v"]
        return Fraction(comb(v - t, d - t)), v > (t + 1) * (d - t + 1)
    q = params["q"]
    if family == "hamming":
        return Fraction(q ** (d - t)), (t == d - 1) or (q >= d) or (q == d - 1 and t < d - 2)
    if family == "grassmann":
        v = params["v"]
        return Fraction(q_binomial(v - t, d - t, q)), v >= 2 * d
    if family == "bilinear":
        e = params["e"]
        return Fraction(q ** ((d - t) * e)), d <= e
    return Fraction(q_binomial(2 * d + 1 - t, d - t, q)), True  # twisted


def certify_subset(dist: InnerDistribution, cert: DualCertificate) -> CertReport:
    """Apply the certificate to a subset's inner distribution.

    Requires a feasible certificate and subset width <= d - t; w and w*
    come from `width_and_dual_width`, which raises unless w + w* >= d.  The
    verdict is 'tight' exactly when |Y| equals the bound, in which case the
    extremal widths w = d-t, w* = t are confirmed; any inconsistency is
    reported as 'violated-bug' since exact arithmetic rules out honest
    violations.
    """
    if not cert.feasible:
        raise InfeasibleCertificate(
            "certificate tail is not strictly positive; the subset cannot be "
            "certified as tight or strict"
        )
    d = dist.d
    t = cert.t
    widths = width_and_dual_width(dist)
    w, ws = widths.width, widths.dual_width
    if w > d - t:
        raise WidthTooLarge(f"subset width {w} exceeds d - t = {d - t}")
    size = dist.size
    slack_terms = tuple(dist.eq[j] * cert.f[j] for j in range(d + 1))
    slack = sum(slack_terms) - size
    width_ok = w == d - t
    dual_ok = ws == t
    if size < cert.bound:
        verdict = "strict"
    elif size == cert.bound and width_ok and dual_ok and slack == 0:
        verdict = "tight"
    else:
        verdict = "violated-bug"
    return CertReport(
        size=size,
        bound=cert.bound,
        verdict=verdict,
        width_is_extremal=width_ok,
        dual_width_is_extremal=dual_ok,
        slack=slack,
        slack_terms=slack_terms,
    )
