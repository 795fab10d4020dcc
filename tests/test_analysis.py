"""Region partition, gap compounding and the layered cost model."""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effectgov import analysis
from effectgov import (
    DecisionReason,
    Phase,
    Policy,
    PolicyRule,
    TrustLevel,
    decide,
    gap_probability,
    layered_cost,
    regions,
    simulate_monitor,
    standard_registry,
)
from effectgov.analysis import _breach_bound
from effectgov.directives import Directive


def policy_for(*capabilities):
    return Policy([
        PolicyRule(capability=capability, min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({Phase.EXECUTE}))
        for capability in capabilities
    ])


def exact_gap(coverage: float, actions: int):
    """Independent oracle: exact rational arithmetic on the same double."""
    return 1 - Fraction(coverage) ** actions


def test_three_region_partition_concrete():
    report = regions(
        {"email.send", "db.query", "web.browse"},
        policy_for("email.send", "credit_card.scan"),
    )
    assert report.governed == {"email.send"}
    assert report.ungoverned == {"db.query", "web.browse"}
    assert report.theater == {"credit_card.scan"}
    assert not report.coterminous


def test_matching_boundaries_are_coterminous():
    report = regions({"email.send", "db.query"}, policy_for("email.send", "db.query"))
    assert report.coterminous
    assert report.ungoverned == frozenset()
    assert report.theater == frozenset()


def test_empty_boundaries_vacuously_coterminous():
    report = regions(frozenset(), policy_for())
    assert report.coterminous
    assert report.governed == frozenset()


capsets = st.frozensets(st.sampled_from(["a.a", "b.b", "c.c", "d.d", "e.e", "f.f"]), max_size=6)


@given(capsets, capsets)
@settings(max_examples=200)
def test_partition_laws(expressiveness, covered):
    report = regions(expressiveness, policy_for(*covered))
    assert not report.governed & report.ungoverned
    assert not report.governed & report.theater
    assert not report.ungoverned & report.theater
    assert report.governed | report.ungoverned == expressiveness
    assert report.governed | report.theater == covered
    assert report.coterminous == (expressiveness == covered)


def test_uncovered_directive_space_is_denied_exhaustively():
    # Default deny, checked over the whole small space rather than sampled.
    policy = policy_for("email.send")
    kinds = ["db.query", "web.browse", "ghost.cap"]
    for kind, trust, phase in itertools.product(kinds, TrustLevel, Phase):
        directive = Directive(1, kind, {}, "probe", trust, phase)
        assert decide(policy, directive).reason is DecisionReason.NO_CAPABILITY


def test_coterminous_iff_registry_matches_policy():
    registry = standard_registry()
    matched = policy_for(*registry.capabilities())
    assert regions(registry.capabilities(), matched).coterminous
    assert set(matched.rules) == registry.capabilities()
    for unmatched in (
        policy_for("email.send"),
        policy_for(*registry.capabilities(), "ghost.cap"),
    ):
        assert not regions(registry.capabilities(), unmatched).coterminous


def test_gap_probability_against_exact_rational():
    for coverage in (0.5, 0.9, 0.99, 0.999, 0.123):
        for actions in (1, 2, 7, 100, 1000):
            exact = exact_gap(coverage, actions)
            assert abs(Fraction(gap_probability(coverage, actions)) - exact) < Fraction(1, 10**12)


def test_gap_probability_large_n_against_mpmath():
    # Fraction blows up at n=10^6 (multi-megabyte integers); use 50-digit
    # floating point as the independent check instead.
    mpmath.mp.dps = 50
    for coverage in (0.99, 0.999999, 0.9999999999):
        for actions in (10_000, 1_000_000):
            exact = 1 - mpmath.mpf(coverage) ** actions
            got = gap_probability(coverage, actions)
            assert abs(mpmath.mpf(got) - exact) < mpmath.mpf("1e-12")


def test_gap_probability_matches_stated_figures():
    assert abs(gap_probability(0.99, 100) - 0.63397) <= 0.0005
    assert abs(gap_probability(0.99, 1000) - 0.99996) <= 0.000005


def test_gap_probability_edges():
    assert gap_probability(1.0, 10**6) == 0.0
    assert gap_probability(0.7, 0) == 0.0
    assert gap_probability(0.0, 3) == 1.0
    assert gap_probability(0.0, 0) == 0.0
    assert gap_probability(0.99, 10**400) == 1.0


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_gap_probability_validates_coverage(bad):
    with pytest.raises(ValueError, match="coverage"):
        gap_probability(bad, 10)


def test_gap_probability_monotonicity():
    coverages = [0.01, 0.3, 0.7, 0.99, 0.9999]
    actions = [0, 1, 2, 5, 10, 100, 1000, 10_000]
    for coverage in coverages:
        values = [gap_probability(coverage, n) for n in actions]
        assert values == sorted(values)
    for n in actions:
        values = [gap_probability(c, n) for c in coverages]
        assert values == sorted(values, reverse=True)


def test_simulate_monitor_edges():
    assert simulate_monitor(1.0, 100, 1000, seed=1) == 0.0
    assert simulate_monitor(0.0, 1, 1000, seed=1) == 1.0
    assert simulate_monitor(0.5, 0, 1000, seed=1) == 0.0
    # The smallest miss probability a float allows: a valid count, no error.
    assert simulate_monitor(math.nextafter(1.0, 0.0), 100, 1000, seed=1) == 0.0
    # Coverage so small that 1 - coverage rounds to 1: certain breach, and
    # no log of zero.
    assert simulate_monitor(1e-300, 3, 1000, seed=1) == 1.0
    # More actions than a float can hold: every trial is breached.
    assert simulate_monitor(0.99, 10**400, 1000, seed=1) == 1.0


def test_simulate_monitor_deterministic_for_seed():
    a = simulate_monitor(0.97, 40, 20_000, seed=1234)
    b = simulate_monitor(0.97, 40, 20_000, seed=1234)
    c = simulate_monitor(0.97, 40, 20_000, seed=1235)
    assert a == b
    assert a != c


def test_simulate_monitor_streams_through_one_buffer(monkeypatch):
    expected = simulate_monitor(0.97, 40, 20_000, seed=1234)
    sizes = []
    bases = []

    class SpyGenerator(np.random.Generator):
        def standard_exponential(self, size=None, *args, out=None, **kwargs):
            assert size is None
            sizes.append(out.size)
            bases.append(out.base)
            return super().standard_exponential(*args, out=out, **kwargs)

    monkeypatch.setattr(analysis, "_CHUNK", 3_000)
    monkeypatch.setattr(np.random, "Generator", SpyGenerator)
    # Chunking consumes the stream in trial order, so it leaves the result
    # unchanged; every chunk is written into the one buffer, whose size grows
    # with neither the number of trials nor the number of actions.
    assert simulate_monitor(0.97, 40, 20_000, seed=1234) == expected
    assert sizes == [3_000] * 6 + [2_000]
    assert bases[0] is not None and all(base is bases[0] for base in bases)
    sizes.clear()
    bases.clear()
    simulate_monitor(0.97, 10**15, 5_000, seed=1)
    assert sizes == [3_000, 2_000]
    assert bases[0] is not None and all(base is bases[0] for base in bases)


def _breach_cases():
    """(scale, limit) pairs as simulate_monitor computes them."""
    def scale(coverage):
        return -math.log1p(-(1.0 - coverage))

    cells = [(c, n) for c in (0.9, 0.99, 0.999) for n in (10, 100, 1000)]
    cells += [(0.8362412164755296, 6), (0.9576364655312826, 3)]
    cases = [(scale(coverage), float(actions)) for coverage, actions in cells]
    # Past 2**53, where the limit's neighbours are 2 and 4 apart, and the
    # 2**63 cap on the limit; both at the smallest miss probability.
    tiny = scale(math.nextafter(1.0, 0.0))
    return cases + [(tiny, float(2**53 + 2)), (tiny, float(2**63))]


@pytest.mark.parametrize("scale, limit", _breach_cases())
def test_breach_bound_is_the_largest_double_whose_quotient_is_in(scale, limit):
    bound = _breach_bound(scale, limit)
    assert bound / scale <= limit
    assert math.nextafter(bound, math.inf) / scale > limit
    draws = np.random.Generator(np.random.PCG64(7)).standard_exponential(200_000)
    assert np.array_equal(draws <= bound, draws / scale <= limit)


def test_simulate_monitor_memory_depends_on_neither_actions_nor_trials():
    # Numpy registers its data buffers with tracemalloc, so a draw array
    # sized by trials (8 MB here) would show in the peak.
    tracemalloc.start()
    try:
        simulate_monitor(0.99, 10, 1_000_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def _geometric_is_exponential_inversion() -> bool:
    """Whether numpy draws Geometric(p), p < 1/3, as ceil(E / -log1p(-p))."""
    for miss in (0.1, 0.01, 0.001, 0.3, 0.333, 1e-9):
        geometric = np.random.Generator(np.random.PCG64(7)).geometric(miss, 200_000)
        exponential = np.random.Generator(np.random.PCG64(7)).standard_exponential(200_000)
        if not np.array_equal(geometric, np.ceil(exponential / -math.log1p(-miss))):
            return False
    return True


def test_simulate_monitor_equals_the_geometric_count_for_every_seed():
    # Oracle: the breach count of one Geometric(1 - coverage) first-miss
    # index per trial, drawn from the same seed. The exponential threshold
    # gives this count exactly wherever numpy's geometric is the inversion
    # of that exponential (coverage > 2/3).
    if not _geometric_is_exponential_inversion():
        pytest.skip("this numpy's Generator.geometric is not the exponential inversion")
    cells = [(c, n) for c in (0.9, 0.99, 0.999) for n in (10, 100, 1000)] + [(0.97, 40)]
    for coverage, actions in cells:
        trials = 1_000_000 // actions
        for seed in (0, 1, 42, 2026, 2**63 - 1):
            first_miss = np.random.Generator(np.random.PCG64(seed)).geometric(1 - coverage, trials)
            expected = int(np.count_nonzero(first_miss <= actions)) / trials
            assert simulate_monitor(coverage, actions, trials, seed) == expected, (
                coverage, actions, seed)
    # Coverages that put a seed's first draw within one rounding of an
    # integer count of actions, where multiplying by 1 / scale instead of
    # dividing by scale would give the other verdict.
    for coverage, actions, seed in [(0.8362412164755296, 6, 1), (0.9576364655312826, 3, 2)]:
        first_miss = np.random.Generator(np.random.PCG64(seed)).geometric(1 - coverage, 1)
        assert simulate_monitor(coverage, actions, 1, seed) == float(first_miss[0] <= actions)
    # Past 2**53 not every count is a double. Seeds whose one draw lands on
    # an integer g with g - 1 not a double: g - 1 actions must not round up
    # onto the draw, and g actions must include it.
    coverage = math.nextafter(1.0, 0.0)
    cases = 0
    for seed in range(50):
        g = int(np.random.Generator(np.random.PCG64(seed)).geometric(1 - coverage, 1)[0])
        if float(g - 1) > g - 1:
            assert simulate_monitor(coverage, g - 1, 1, seed) == 0.0, seed
            assert simulate_monitor(coverage, g, 1, seed) == 1.0, seed
            cases += 1
    assert cases > 0
    # The call the README documents.
    assert simulate_monitor(0.99, 100, 100_000, seed=42) == 0.63338


def test_simulate_monitor_matches_analytic_within_4_sigma():
    trials = 100_000
    # (0.99999, 100_000) is the large-n regime; (0.5, 3) has miss
    # probability >= 1/3, where the frequency differs from a geometric
    # draw's (numpy draws those by search) but the law is the same.
    for coverage, actions in [(0.99, 100), (0.99999, 100_000), (0.5, 3)]:
        analytic = gap_probability(coverage, actions)
        sigma = math.sqrt(analytic * (1 - analytic) / trials)
        empirical = simulate_monitor(coverage, actions, trials, seed=42)
        assert abs(empirical - analytic) < 4 * sigma, (coverage, actions)


def test_simulate_monitor_convergence_over_random_settings():
    rng = random.Random(2026)
    trials = 100_000
    hits = 0
    for _ in range(10):
        coverage = rng.uniform(0.5, 0.995)
        actions = rng.randint(1, 200)
        analytic = gap_probability(coverage, actions)
        sigma = math.sqrt(analytic * (1 - analytic) / trials)
        empirical = simulate_monitor(coverage, actions, trials, seed=rng.randrange(2**31))
        # <= so that exact agreement passes when analytic rounds to 1.0
        # and sigma collapses to zero.
        if abs(empirical - analytic) <= 4 * sigma:
            hits += 1
    assert hits >= 9


def test_simulate_monitor_validates_arguments():
    with pytest.raises(ValueError, match="trials"):
        simulate_monitor(0.5, 10, 0, seed=1)
    with pytest.raises(ValueError, match="coverage"):
        simulate_monitor(1.2, 10, 10, seed=1)


@pytest.mark.parametrize("seed", [True, 1.5, "1", -1, None])
def test_simulate_monitor_validates_seed(seed):
    message = f"seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_monitor(0.5, 10, 10, seed=seed)
    # Checked before the cases that draw nothing.
    with pytest.raises(ValueError, match="seed"):
        simulate_monitor(1.0, 10, 10, seed=seed)


def test_layered_cost_ten_ms_rule():
    assert layered_cost(0.0, [10.0], 1000) == 10_000.0


def test_layered_cost_structural_case_adds_nothing():
    assert layered_cost(5.0, [], 10**6) == 0.0


def test_layered_cost_arithmetic():
    assert layered_cost(0.0, [2.0, 3.0], 100) == 500.0


def test_layered_cost_validates():
    with pytest.raises(ValueError):
        layered_cost(-1.0, [1.0], 10)
    with pytest.raises(ValueError):
        layered_cost(0.0, [-1.0], 10)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="base latency"):
            layered_cost(bad, [1.0], 3)
        with pytest.raises(ValueError, match="layer latencies"):
            layered_cost(1.0, [1.0, bad], 2)
