import signal

import pytest

from _oracles import orderings_by_search
from drgcert import scheme
from drgcert.errors import NotQPolynomial
from drgcert.graphs import (
    build_bilinear,
    build_grassmann,
    build_hamming,
    build_johnson,
    build_twisted_grassmann,
    check_distance_regular,
    distance_census,
)
from drgcert.scheme import eigensystem_from_array

_BUILDERS = {
    "johnson": build_johnson,
    "hamming": build_hamming,
    "grassmann": build_grassmann,
    "bilinear": build_bilinear,
    "twisted": build_twisted_grassmann,
}


@pytest.fixture(scope="session")
def built():
    """built(family, *params) -> (graph, census, array, eigensystem), cached
    for the whole test session."""
    cache = {}

    def get(family, *params):
        key = (family, params)
        if key not in cache:
            graph = _BUILDERS[family](*params)
            census = distance_census(graph)
            arr = check_distance_regular(graph, census)
            sys_ = eigensystem_from_array(arr, graph.n)
            cache[key] = (graph, census, arr, sys_)
        return cache[key]

    return get


@pytest.fixture
def deadline():
    """deadline(seconds) makes the calling test fail with TimeoutError once
    that many seconds of wall time have passed, so a search that runs away
    fails the test instead of stalling the suite.  It uses SIGALRM (POSIX,
    main thread), as pytest-timeout is not a test dependency; the alarm is
    cleared and the previous handler restored at teardown."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session", autouse=True)
def orderings_checked_by_search():
    """Every Krein tensor with d <= 6 that the package checks during the
    tests is also searched over all (d)! orderings by the oracle, which must
    find exactly the constructed orderings (larger d are compared by the
    tests that reach them, as the search grows as d!)."""
    real = scheme.verify_q_polynomial

    def checked(kt):
        found = orderings_by_search(kt.values) if kt.d <= 6 else None
        try:
            passing = real(kt)
        except NotQPolynomial:
            assert not found
            raise
        if found is not None:
            assert passing == found
        return passing

    scheme.verify_q_polynomial = checked
    yield
    scheme.verify_q_polynomial = real
