"""Two-boundary analysis: region partition, monitoring gap, layer costs.

The region partition compares what a system can do (its handler
capabilities) with what a policy covers. Capabilities in both sets are the
only ones that function as intended; capabilities without coverage are the
risk region, and coverage without a capability is theater. The analysis
works on capability identifiers, never on program semantics, which is what
keeps it decidable.

Monte Carlo runs use numpy's PCG64 generator, which is seedable and
platform-stable, so reported frequencies reproduce exactly for a given
seed. Only simulate_monitor loads numpy, on its first call; importing this
module, or any other in the package, does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .directives import check_count
from .policy import Policy

# Exponential draws (one per trial) held at once: 512 KB of float64, which
# fits in L2, whatever the number of trials or actions.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class RegionReport:
    """Partition of capabilities and policy entries into the three regions."""

    governed: frozenset[str]
    ungoverned: frozenset[str]
    theater: frozenset[str]

    @property
    def coterminous(self) -> bool:
        """True when the two boundaries coincide: no risk, no theater."""
        return not self.ungoverned and not self.theater

    def to_json_obj(self) -> dict:
        return {
            "governed": sorted(self.governed),
            "ungoverned": sorted(self.ungoverned),
            "theater": sorted(self.theater),
            "coterminous": self.coterminous,
        }


def regions(expressiveness: Iterable[str], policy: Policy) -> RegionReport:
    """Partition capability space by the expressiveness/policy overlap."""
    expressible = frozenset(expressiveness)
    covered = frozenset(policy.rules)
    return RegionReport(
        governed=expressible & covered,
        ungoverned=expressible - covered,
        theater=covered - expressible,
    )


def _validate_coverage(coverage: float) -> float:
    coverage = float(coverage)
    if math.isnan(coverage) or not 0.0 <= coverage <= 1.0:
        raise ValueError(f"coverage must be within [0, 1], got {coverage!r}")
    return coverage


def gap_probability(coverage: float, actions: int) -> float:
    """Probability that at least one of n independent actions is unmonitored.

    Exactly 1 - coverage**actions, computed as -expm1(n*log(coverage)) so
    it stays accurate (absolute error well under 1e-12) when coverage is
    close to 1 and n is large.
    """
    coverage = _validate_coverage(coverage)
    actions = check_count(actions, "actions", 0)
    if actions == 0:
        return 0.0
    if coverage == 0.0:
        return 1.0
    if coverage == 1.0:
        return 0.0
    # Capped like simulate_monitor's limit: an int past the float range would
    # overflow, and from 2**63 on every coverage below 1 gives 1.0.
    return -math.expm1(min(actions, 2**63) * math.log(coverage))


def _breach_bound(scale: float, limit: float) -> float:
    """The largest double x with x / scale <= limit, for scale > 0.

    Correctly rounded division by a positive scale is monotone in x, so a
    draw x is <= this bound exactly when x / scale <= limit.
    """
    bound = limit * scale
    while bound / scale > limit:
        bound = math.nextafter(bound, 0.0)
    while math.nextafter(bound, math.inf) / scale <= limit:
        bound = math.nextafter(bound, math.inf)
    return bound


def simulate_monitor(coverage: float, actions: int, trials: int, seed: int) -> float:
    """Empirical gap frequency; the Monte Carlo check on gap_probability.

    Each trial draws one standard exponential E and counts as breached when
    E / (-log coverage) <= actions, i.e. E <= actions * (-log coverage).
    The quotient is the continuous index of the trial's first unmonitored
    action, and P(breach) = 1 - coverage**actions: exactly the law of
    `actions` independent Bernoulli(coverage) events with at least one
    miss, at one draw per trial whatever `actions` is. The draw uses only
    `coverage`, never gap_probability. Deterministic for a given seed
    (PCG64, one exponential draw per trial in trial order). For coverage >
    2/3 numpy's Generator.geometric(1 - coverage) is the ceiling of the
    same quotient over the same draws, so every seeded frequency equals the
    earlier geometric draw's; for coverage <= 2/3, where numpy draws
    geometrics by search, seeded frequencies differ from it. Draws stream
    through one buffer of _CHUNK doubles, so memory depends on neither
    actions nor trials.
    """
    coverage = _validate_coverage(coverage)
    actions = check_count(actions, "actions", 0)
    trials = check_count(trials, "trials", 1)
    seed = check_count(seed, "seed", 0)
    if actions == 0 or coverage == 1.0:
        return 0.0
    miss = 1.0 - coverage
    if miss == 1.0:
        return 1.0
    scale = -math.log1p(-miss)
    # A double x is <= actions exactly when it is <= the largest double at
    # most actions. No draw reaches 2**63, and a larger int overflows float.
    limit = float(min(actions, 2**63))
    if limit > actions:
        limit = math.nextafter(limit, 0.0)
    # Numpy's geometric inversion divides E by scale; E <= bound gives the
    # verdict that quotient gives, with no divide per draw.
    bound = _breach_bound(scale, limit)
    import numpy as np  # here, not at the top: nothing else in effectgov loads numpy
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = np.empty(min(_CHUNK, trials))
    below = np.empty(draws.size, dtype=bool)
    breached = 0
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        chunk = rng.standard_exponential(out=draws[:count])
        breached += int(np.count_nonzero(np.less_equal(chunk, bound, out=below[:count])))
    return breached / trials


def layered_cost(
    base_latency_per_action_ms: float,
    layer_latencies_ms: Iterable[float],
    actions: int,
) -> float:
    """Latency added by stacked per-action governance layers, in ms.

    Returns actions * sum(layer latencies); the base per-action latency is
    part of the workload either way and does not contribute to the added
    cost. An empty layer list is the structural case: nothing is added.
    """
    if not 0.0 <= float(base_latency_per_action_ms) < math.inf:
        raise ValueError("base latency must be finite and non-negative")
    layers = [float(latency) for latency in layer_latencies_ms]
    if not all(0.0 <= latency < math.inf for latency in layers):
        raise ValueError("layer latencies must be finite and non-negative")
    actions = check_count(actions, "actions", 0)
    return actions * math.fsum(layers)
