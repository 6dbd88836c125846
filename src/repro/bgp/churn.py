"""BGP churn: prefix announcements and withdrawals over time.

§III-D.1 analyzes how DMap copes with changes in the global prefix table:

* a **withdrawal** strands every mapping hosted under the withdrawn prefix
  ("orphan mappings"); the withdrawing AS migrates them to the deputy AS
  that the IP-hole protocol will now select;
* a **new announcement** captures hashed values that previously fell into
  a hole; the first query to the announcing AS triggers a one-time
  migration from the old deputy.

This module provides a Poisson churn-schedule generator (announcements
dominating withdrawals, as the cited long-term churn study observed).
The Fig. 5 experiment models BGP convergence lag at a query origin with a
per-replica failure probability instead (``ChurnFailureModel``): a query
that consults a stale table can reach an AS that does not host the
mapping and must retry the next replica.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from ..errors import ConfigurationError
from .prefix import Announcement
from .table import GlobalPrefixTable


class ChurnKind(enum.Enum):
    """The two prefix-table mutations BGP churn produces."""

    ANNOUNCE = "announce"
    WITHDRAW = "withdraw"


@dataclass(frozen=True, order=True)
class ChurnEvent:
    """A timestamped prefix-table mutation."""

    time: float
    kind: ChurnKind
    announcement: Announcement

    def apply(self, table: GlobalPrefixTable) -> None:
        """Apply this mutation to ``table``."""
        if self.kind is ChurnKind.ANNOUNCE:
            table.announce(self.announcement)
        else:
            table.withdraw(self.announcement.prefix)


class ChurnScheduleGenerator:
    """Poisson process over announce/withdraw events.

    Parameters
    ----------
    table:
        The current table; withdrawals are drawn from it, announcements
        re-use withdrawn prefixes or mint fresh ones inside current holes.
    announce_rate, withdraw_rate:
        Events per simulated second.  The paper (citing the BGP-churn
        evolution study) notes new announcements dominate withdrawals,
        so the defaults keep ``announce_rate > withdraw_rate``.
    seed:
        Private RNG seed.
    """

    def __init__(
        self,
        table: GlobalPrefixTable,
        announce_rate: float = 0.02,
        withdraw_rate: float = 0.01,
        seed: int = 0,
    ) -> None:
        if announce_rate < 0 or withdraw_rate < 0:
            raise ConfigurationError("churn rates must be non-negative")
        if announce_rate + withdraw_rate == 0:
            raise ConfigurationError("at least one churn rate must be positive")
        self.table = table
        self.announce_rate = announce_rate
        self.withdraw_rate = withdraw_rate
        self.rng = np.random.default_rng(seed)
        # Withdrawn announcements become candidates for re-announcement,
        # which is the common churn pattern (flapping).
        self._withdrawn_pool: List[Announcement] = []
        # ``table.asns()`` at generation ``_seen``, not re-sorted per event.
        self._asns: List[int] = []
        self._seen = -1

    def events(self, horizon: float) -> Iterator[ChurnEvent]:
        """Yield churn events with arrival times in ``[0, horizon)``.

        Events are generated lazily and are consistent: a withdrawal only
        targets a currently-announced prefix, an announcement only a
        currently-free one.  The caller is expected to ``apply`` each event
        (directly or through the simulation) before consuming the next.
        """
        total_rate = self.announce_rate + self.withdraw_rate
        time = 0.0
        while True:
            time += float(self.rng.exponential(1.0 / total_rate))
            if time >= horizon:
                return
            if self.rng.random() < self.withdraw_rate / total_rate:
                event = self._make_withdrawal(time)
            else:
                event = self._make_announcement(time)
            if event is not None:
                yield event
                self._follow(event)

    def _follow(self, event: ChurnEvent) -> None:
        """Carry ``_asns`` past ``event`` if the caller applied it (only)."""
        ann, table, asns = event.announcement, self.table, self._asns
        announce = event.kind is ChurnKind.ANNOUNCE
        if table.generation != self._seen + 1 or (ann.prefix in table) != announce:
            return
        at = bisect_left(asns, ann.asn)
        if announce and asns[at : at + 1] != [ann.asn]:
            asns.insert(at, ann.asn)
        elif not announce and not np.any(table.prefix_arrays()[2] == ann.asn):
            del asns[at]
        self._seen = table.generation

    def _make_withdrawal(self, time: float) -> Optional[ChurnEvent]:
        if self._seen != self.table.generation:  # not moved by _follow's events
            self._asns, self._seen = self.table.asns(), self.table.generation
        asns = self._asns
        if not asns:
            return None
        # A draw over the list's length is the draw over the list itself.
        asn = asns[int(self.rng.choice(len(asns)))]
        prefixes = self.table.prefixes_of(asn)
        if not prefixes:
            return None
        prefix = prefixes[int(self.rng.integers(0, len(prefixes)))]
        ann = Announcement(prefix, asn)
        self._withdrawn_pool.append(ann)
        return ChurnEvent(time, ChurnKind.WITHDRAW, ann)

    def _make_announcement(self, time: float) -> Optional[ChurnEvent]:
        # Prefer re-announcing a previously withdrawn prefix (flap);
        # otherwise there is nothing safe to announce without a hole map,
        # so fall back to a withdrawal-driven flap only.
        while self._withdrawn_pool:
            pick = int(self.rng.integers(0, len(self._withdrawn_pool)))
            self._withdrawn_pool[pick], self._withdrawn_pool[-1] = (
                self._withdrawn_pool[-1],
                self._withdrawn_pool[pick],
            )
            ann = self._withdrawn_pool.pop()
            if ann.prefix not in self.table:
                return ChurnEvent(time, ChurnKind.ANNOUNCE, ann)
        return None
