"""Router-failure models the tests inject into every engine.

A fixed set of down ASs (§III-D.3: a hosting AS stops responding and the
querier waits out a timeout), drawn at random or listed, and a worst-of
composition with another model.  No experiment reports router failures;
the tests use these to drive the timeout branches of the resolver, the
fastpath, the DES and the trace records.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

import numpy as np

from repro.core.guid import GUID
from repro.core.resolver import FailureModel, OUTCOME_HIT, OUTCOME_MISSING, OUTCOME_TIMEOUT
from repro.errors import ConfigurationError


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
