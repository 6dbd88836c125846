"""Failure injection for every engine (resolver, fastpath, DES).

The base :class:`FailureModel` (everything works) lives in
:mod:`repro.core.resolver` and is re-exported here.

**BGP-churn staleness** (§III-D.1, Fig. 5): a querier's BGP view lags,
so a lookup can reach an AS that does not (or no longer) hosts the
mapping and receives a "GUID missing" reply, forcing a retry at the next
replica.  The Fig. 5 experiment sweeps this per-lookup failure
probability from 0% to 10%.  Router failures (§III-D.3: a replica that
stops responding costs the querier a timeout) are injected by the tests.
"""

from __future__ import annotations

import numpy as np

from ..core.guid import GUID
from ..core.resolver import FailureModel, OUTCOME_HIT, OUTCOME_MISSING
from ..errors import ConfigurationError


class ChurnFailureModel(FailureModel):
    """Per-lookup stale-view misses with probability ``failure_rate``.

    The draw is i.i.d. per (attempt), matching the paper's experiment
    where the perturbed fraction of prefixes translates directly into the
    chance that any given replica address resolves to the wrong AS.
    """

    def __init__(self, failure_rate: float, seed: int = 0) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ConfigurationError("failure_rate must lie in [0, 1]")
        self.failure_rate = failure_rate
        self.rng = np.random.default_rng(seed)

    def lookup_outcome(self, asn: int, guid: GUID) -> str:
        if self.failure_rate and self.rng.random() < self.failure_rate:
            return OUTCOME_MISSING
        return OUTCOME_HIT
