"""Tests for BGP churn schedules."""

import numpy as np
import pytest

from repro.bgp.churn import (
    ChurnEvent,
    ChurnKind,
    ChurnScheduleGenerator,
)
from repro.bgp.prefix import Announcement
from repro.bgp.table import GlobalPrefixTable
from repro.errors import ConfigurationError

from .addressing import from_cidr


def ann(cidr: str, asn: int) -> Announcement:
    return Announcement(from_cidr(cidr), asn)


@pytest.fixture
def churn_table():
    return GlobalPrefixTable(
        [ann(f"{10 + i}.0.0.0/8", i + 1) for i in range(20)]
    )


class TestScheduleGenerator:
    def test_events_are_time_ordered_and_bounded(self, churn_table):
        gen = ChurnScheduleGenerator(churn_table, 0.5, 0.5, seed=1)
        times = []
        for event in gen.events(horizon=100.0):
            times.append(event.time)
            event.apply(churn_table)
        assert times == sorted(times)
        assert all(t < 100.0 for t in times)
        assert times, "expected some churn in 100 time units at rate 1.0"

    def test_withdrawals_target_announced_prefixes(self, churn_table):
        gen = ChurnScheduleGenerator(churn_table, 0.0, 1.0, seed=2)
        for event in gen.events(horizon=10.0):
            assert event.kind is ChurnKind.WITHDRAW
            assert event.announcement.prefix in churn_table
            event.apply(churn_table)

    def test_announcements_are_flaps(self, churn_table):
        gen = ChurnScheduleGenerator(churn_table, 1.0, 1.0, seed=3)
        withdrawn = set()
        for event in gen.events(horizon=60.0):
            if event.kind is ChurnKind.WITHDRAW:
                withdrawn.add(event.announcement.prefix)
            else:
                assert event.announcement.prefix in withdrawn
                assert event.announcement.prefix not in churn_table
            event.apply(churn_table)

    def test_schedule_matches_public_queries(self):
        """The generator carries its AS list past each applied event; the
        schedule must be the one that re-reads ``asns()`` and
        ``prefixes_of()`` from the table before every withdrawal, also
        when the caller makes another mutation than the event."""

        class Reference(ChurnScheduleGenerator):
            def _make_withdrawal(self, time):
                asns = self.table.asns()
                if not asns:
                    return None
                asn = int(self.rng.choice(np.asarray(asns, dtype=np.int64)))
                prefixes = self.table.prefixes_of(asn)
                prefix = prefixes[int(self.rng.integers(0, len(prefixes)))]
                withdrawn = Announcement(prefix, asn)
                self._withdrawn_pool.append(withdrawn)
                return ChurnEvent(time, ChurnKind.WITHDRAW, withdrawn)

        def schedule(cls):
            # One to three prefixes per AS, so ASs drop out and come back.
            table = GlobalPrefixTable(
                [
                    ann(f"{10 + i}.{j}.0.0/16", i + 1)
                    for i in range(30)
                    for j in range(i % 3 + 1)
                ]
            )
            events = []
            for event in cls(table, 1.0, 1.0, seed=11).events(horizon=200.0):
                events.append(event)
                if len(events) % 100:
                    event.apply(table)
                else:  # another mutation than the event: the view is re-read
                    table.withdraw(
                        next(a for a in table if a != event.announcement).prefix
                    )
            return events, table

        got, got_table = schedule(ChurnScheduleGenerator)
        want, want_table = schedule(Reference)
        assert len(want) >= 300
        kinds = {event.kind for event in want}
        assert kinds == {ChurnKind.ANNOUNCE, ChurnKind.WITHDRAW}
        assert got == want
        assert list(got_table) == list(want_table)

    def test_invalid_rates_rejected(self, churn_table):
        with pytest.raises(ConfigurationError):
            ChurnScheduleGenerator(churn_table, -1.0, 0.5)
        with pytest.raises(ConfigurationError):
            ChurnScheduleGenerator(churn_table, 0.0, 0.0)
