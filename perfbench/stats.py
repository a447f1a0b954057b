"""The benchmark's own arithmetic: percentiles, failure counts, output check.

Nothing here imports the program under test except through the results
handed in, so the tests in ``tests/`` pin this file on its own.
"""

from __future__ import annotations

import math
import statistics

#: Relative tolerance when comparing recorded floating-point outputs.  The
#: outputs are bit-identical today; the slack only admits a future change
#: of summation order, never a change of counts.
FLOAT_RTOL = 1e-9


def percentile(values, q: float) -> dict:
    """The ``q``-quantile (0..1) of ``values`` with its sample count.

    Linear interpolation between closest ranks (``statistics.quantiles``
    ``method="inclusive"``), so the 0.5 quantile is the median.  An empty
    sample gives ``{"value": None, "n": 0}``.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        return {"value": None, "n": 0}
    if n == 1:
        return {"value": data[0], "n": 1}
    rank = q * (n - 1)
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    value = data[low] + (data[high] - data[low]) * (rank - low)
    return {"value": value, "n": n}


def median(values) -> "float | None":
    return percentile(values, 0.5)["value"]


def grouped_median(samples) -> dict:
    """Geometric mean of per-group medians, with sample and group counts.

    ``samples`` holds ``(group, value)`` pairs.  Pooling groups whose
    costs differ (a CLAMR and a HotSpot campaign) would put the pooled
    median between them, at the edges of both distributions; each group
    has its own median instead, and the geometric mean weighs a change
    of one group by its ratio, whatever its size.  An empty sample gives
    ``{"value": None, "n": 0, "groups": 0}``.
    """
    groups: dict = {}
    for group, value in samples:
        groups.setdefault(group, []).append(value)
    if not groups:
        return {"value": None, "n": 0, "groups": 0}
    logs = [math.log(median(values)) for values in groups.values()]
    return {
        "value": math.exp(sum(logs) / len(logs)),
        "n": sum(len(values) for values in groups.values()),
        "groups": len(groups),
    }


def iqr_share(values) -> float:
    """Quartile distance over the median: the benchmark's spread measure."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


class Tally:
    """Attempted and failed operations of one run.

    A failure is a campaign that did not finish ``complete``, an HTTP
    error that survived the client's retries, or an output mismatch.  One
    operation counts as failed at most once, whatever went wrong with it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, problems) -> None:
        """Count one operation; ``problems`` lists what went wrong with it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @classmethod
    def combine(cls, tallies) -> "Tally":
        """One tally over the operations of several."""
        total = cls()
        for tally in tallies:
            total.attempted += tally.attempted
            total.failed += tally.failed
            total.reasons.extend(tally.reasons)
        return total


# -- the output check -----------------------------------------------------------

#: Adaptive-estimate fields that must repeat exactly.
SAMPLING_FIELDS = ("executed", "rounds", "stop_reason", "relative_halfwidth")


def signature(result, sampling: "dict | None" = None) -> dict:
    """What the output check compares for one campaign.

    Outcome counts, per-outcome FIT and the SDC locality classes (before
    and after the relative-error filter), plus the adaptive estimate for
    target-CI runs.  Built from a ``CampaignResult`` through its public
    fields, so it does not depend on how the journal or log encodes
    records, nor on which execution strategy produced them.
    """
    from repro.beam.campaign import FIT_AU_SCALE
    from repro.core.fit import fit_from_events

    counts = {kind.value: n for kind, n in result.counts().items()}
    locality: dict = {}
    filtered: dict = {}
    for report in result.sdc_reports():
        name = report.locality.value
        locality[name] = locality.get(name, 0) + 1
        name = report.filtered_locality.value
        filtered[name] = filtered.get(name, 0) + 1
    sig = {
        "n_executions": result.n_executions,
        "struck": len(result.records),
        "outcomes": counts,
        "fit": {
            kind: fit_from_events(n, result.fluence, scale=FIT_AU_SCALE)
            for kind, n in counts.items()
        },
        "locality": locality,
        "filtered_locality": filtered,
    }
    if sampling is not None:
        sig["sampling"] = {name: sampling.get(name) for name in SAMPLING_FIELDS}
    return sig


def compare(expected, actual, path: str = "") -> list:
    """Differences between two signatures, one readable line each.

    Integers and strings must match exactly; floats within
    :data:`FLOAT_RTOL`.  A key present on one side only is a difference.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in actual:
                problems.append(f"{where}: missing (expected {expected[key]!r})")
            elif key not in expected:
                problems.append(f"{where}: unexpected {actual[key]!r}")
            else:
                problems.extend(compare(expected[key], actual[key], where))
        return problems
    if isinstance(expected, float) or isinstance(actual, float):
        if (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and not isinstance(expected, bool)
            and not isinstance(actual, bool)
            and math.isclose(expected, actual, rel_tol=FLOAT_RTOL, abs_tol=0.0)
        ):
            return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []
