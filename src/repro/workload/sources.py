"""Population-weighted selection of event source ASs (§IV-B.1).

"Each GUID in our simulation originates from a randomly picked source AS,
where the probability of choosing a certain AS is weighted in proportion
to the number of end-nodes found in that AS" — i.e. densely populated
regions originate more inserts and more queries.  The same weighting is
applied to lookup origins, which removes the location bias the paper
criticizes in prior DNS-trace-driven evaluations (§VI).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import WorkloadError
from ..topology.graph import ASTopology


class SourceSampler:
    """Samples ASs proportionally to their end-node populations."""

    def __init__(
        self,
        topology: ASTopology,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.topology = topology
        self.rng = rng or np.random.default_rng(0)
        self._asns = np.asarray(topology.asns(), dtype=np.int64)
        populations = topology.endnode_array()
        total = populations.sum()
        if total <= 0:
            raise WorkloadError("topology has no end nodes to originate events")
        self._weights = populations / total

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` source ASNs (with replacement)."""
        if size < 0:
            raise WorkloadError("size must be non-negative")
        return self.rng.choice(self._asns, size=size, p=self._weights)

    def sample_one(self) -> int:
        """Draw a single source ASN."""
        return int(self.sample(1)[0])
