"""Region partition, gap compounding and the layered cost model."""

import math
import random
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
from effectgov.analysis import enumerate_directive_space
from effectgov.policy import policy_capabilities


def policy_for(*capabilities):
    return Policy.from_rules([
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
    for directive in enumerate_directive_space(["db.query", "web.browse", "ghost.cap"]):
        assert decide(policy, directive).reason is DecisionReason.NO_CAPABILITY


def test_enumerate_directive_space_is_exhaustive_and_well_formed():
    space = list(enumerate_directive_space(["a.b", "c.d"]))
    assert len(space) == 2 * len(TrustLevel) * len(Phase)
    assert len({d.id for d in space}) == len(space)
    combos = {(d.kind, d.trust, d.phase) for d in space}
    assert len(combos) == len(space)


def test_coterminous_iff_registry_matches_policy():
    registry = standard_registry()
    matched = policy_for(*registry.capabilities())
    assert regions(registry.capabilities(), matched).coterminous
    assert policy_capabilities(matched) == registry.capabilities()
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


def test_simulate_monitor_deterministic_for_seed():
    a = simulate_monitor(0.97, 40, 20_000, seed=1234)
    b = simulate_monitor(0.97, 40, 20_000, seed=1234)
    c = simulate_monitor(0.97, 40, 20_000, seed=1235)
    assert a == b
    assert a != c


def test_simulate_monitor_chunks_hold_at_most_the_budget(monkeypatch):
    expected = simulate_monitor(0.97, 40, 20_000, seed=1234)
    sizes = []

    class SpyGenerator(np.random.Generator):
        def geometric(self, p, size=None):
            sizes.append(size)
            return super().geometric(p, size)

    monkeypatch.setattr(analysis, "_CHUNK_BUDGET", 3_000)
    monkeypatch.setattr(analysis.np.random, "Generator", SpyGenerator)
    # Chunking consumes the stream in trial order, so it leaves the result
    # unchanged; the chunk size does not grow with the number of actions.
    assert simulate_monitor(0.97, 40, 20_000, seed=1234) == expected
    assert sizes == [3_000] * 6 + [2_000]
    sizes.clear()
    simulate_monitor(0.97, 10**15, 5_000, seed=1)
    assert sizes == [3_000, 2_000]


def test_simulate_monitor_matches_analytic_within_4_sigma():
    trials = 100_000
    # (0.99999, 100_000) is the large-n regime; (0.5, 3) has miss
    # probability >= 1/3, where numpy draws geometrics by search rather
    # than by inversion.
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
