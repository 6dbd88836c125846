"""Failure injection for every engine (resolver, fastpath, DES).

The base :class:`FailureModel` (everything works) lives in
:mod:`repro.core.resolver` and is re-exported here.

Two failure classes from the paper:

* **BGP-churn staleness** (§III-D.1, Fig. 5): a querier's BGP view lags,
  so a lookup can reach an AS that does not (or no longer) hosts the
  mapping and receives a "GUID missing" reply, forcing a retry at the next
  replica.  The Fig. 5 experiment sweeps this per-lookup failure
  probability from 0% to 10%.
* **Router failure** (§III-D.3): an AS loses its mapping store or stops
  responding entirely; the querier waits out a timeout before trying the
  next replica.  "The probability for K Internet routes to fail at the
  same time is extremely low" — replication bounds the damage.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

import numpy as np

from ..core.guid import GUID
from ..core.resolver import FailureModel, OUTCOME_HIT, OUTCOME_MISSING, OUTCOME_TIMEOUT
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


class RouterFailureModel(FailureModel):
    """A fixed set of ASs whose mapping service is down (timeouts)."""

    def __init__(self, down_asns: Iterable[int]) -> None:
        self.down: Set[int] = set(down_asns)

    def lookup_outcome(self, asn: int, guid: GUID) -> str:
        return OUTCOME_TIMEOUT if asn in self.down else OUTCOME_HIT

    def is_down(self, asn: int) -> bool:
        return asn in self.down

    @classmethod
    def random(
        cls,
        asns: Sequence[int],
        fraction: float,
        seed: int = 0,
    ) -> "RouterFailureModel":
        """Fail a random ``fraction`` of the given ASs."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("fraction must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        n_down = int(round(fraction * len(asns)))
        if n_down == 0:
            return cls(())
        picked = rng.choice(len(asns), size=n_down, replace=False)
        return cls(asns[int(i)] for i in picked)


class CompositeFailureModel(FailureModel):
    """Worst-of composition: timeout dominates missing dominates hit."""

    _SEVERITY = {OUTCOME_HIT: 0, OUTCOME_MISSING: 1, OUTCOME_TIMEOUT: 2}

    def __init__(self, models: Sequence[FailureModel]) -> None:
        if not models:
            raise ConfigurationError("composite of zero models")
        self.models = list(models)

    def lookup_outcome(self, asn: int, guid: GUID) -> str:
        worst = OUTCOME_HIT
        for model in self.models:
            outcome = model.lookup_outcome(asn, guid)
            if self._SEVERITY[outcome] > self._SEVERITY[worst]:
                worst = outcome
        return worst

    def is_down(self, asn: int) -> bool:
        return any(model.is_down(asn) for model in self.models)
