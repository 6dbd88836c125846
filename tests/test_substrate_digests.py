"""Pinned substrate digests: generation keeps its bits.

The digests below were recorded before the generators were rewritten on
arrays with exact-draw helpers (``repro.draws``), and every rewrite must
reproduce them.  A digest is ``datasets.payload_digest`` over the stored
substrate payload (the array file keeps the key in its header: the key
hashes the generator sources, so it changes with every edit).  numpy documents no cross-version
guarantee for ``Generator.choice`` streams, so the pins hold only for
the numpy major.minor they were recorded with; under another version the
digest tests skip and say why.  The exact-draw property tests in
``tests/test_draws.py`` run everywhere.

Run as a script to check one scale cold (a fresh ``REPRO_CACHE_DIR``),
as the nightly CI does for ``paper``::

    PYTHONPATH=src python tests/test_substrate_digests.py paper
"""

import os
import sys

import numpy as np
import pytest

from repro.bgp.allocation import AllocationConfig, generate_global_prefix_table
from repro.experiments import common
from repro.topology import datasets
from repro.topology.generator import TopologyConfig, generate_internet_topology

#: numpy major.minor the digests were recorded with.
PINNED_NUMPY = "2.4"

SCALE_DIGESTS = {
    "small": "e1ac55f23dca46810531ea72bf7d414a5d6c3bf8a298eeade0181bb76fe029fd",
    "medium": "480ce4f2160bf171dbaf0f9cb2d721599fc111e67d6f36d5a5ada77c071a8717",
    "paper": "2ad145ce63205495377310c2369ec5b9d395384211e5db9e7714b0b04d769d1f",
}

#: name -> (n_as, AllocationConfig fields, seed, as_weights, digest).  The
#: comment names the branches of the generator each one reaches
#: (``_fit_to_ratio``'s trim and pad, the ``as_weights`` bias, the pass
#: that gives every uncovered AS a /24, object-dtype spans past int64).
TABLES = {
    # pad only.
    "pad-40": (
        40, dict(prefixes_per_as=4), 2, None,
        "e3f95250ea8a2da595d1a041fe8158220ab0dee7a2952a5ef4834d756a0fa5b1",
    ),
    # trim, pad and the every-AS pass in a 28-bit space.
    "trim-fixup-bits28": (
        60, dict(bits=28, length_mix={4: 0.1, 8: 0.3, 26: 0.6}, prefixes_per_as=3), 7,
        None, "6f7faefe514d9e77b88fe15e3d68cfc9821b67bf59aaac6830bed99eaaaf19ce",
    ),
    # as_weights, trim, pad and the every-AS pass in a 28-bit space.
    "weights-trim-fixup-bits28": (
        60,
        dict(bits=28, length_mix={3: 0.2, 6: 0.2, 27: 0.6}, prefixes_per_as=2,
             target_ratio=0.4),
        1, "linear", "5194bd7ce4e9ef85ff30dd3f82c5c2f4f00c8c5580fa7961916e7d0c03f0a8f2",
    ),
    # as_weights with one heavy AS, pad.
    "weights-heavy": (
        60, dict(prefixes_per_as=5), 3, {1: 50.0},
        "d05b02ad6a162929664999608db25f282178308eefe0a7b131bbfb7128e35724",
    ),
    # trim, pad and the every-AS pass over 64-bit spans.
    "wide-bits64": (
        30, dict(bits=64, length_mix={1: 0.05, 3: 0.1, 40: 0.45, 60: 0.4},
                 prefixes_per_as=3), 2,
        None, "fe9808ae8d07a07cf53d92e324ecaf6ab8798a683c92add660f9dffa3999fdb8",
    ),
}

#: name -> (TopologyConfig fields, digest), all with seed 3.
TOPOLOGIES = {
    "n5": (
        dict(n_as=5, total_endnodes=100),
        "6504674ed02de68a9f8a7721bf9f4b3aa66c90176d32996b6add550086784ea1",
    ),
    "n30-thin-transit": (
        dict(n_as=30, transit_fraction=0.05, stub_extra_provider_prob=1.0,
             total_endnodes=1000),
        "1efee5a3e60efac8e333ea80f923baa8e8f5c1b452c21f39e4209c35c582ae8f",
    ),
    "n120": (
        dict(n_as=120, total_endnodes=5000),
        "6f459709878bf8ceb96f38a6e8bdbecc678e6df17c96c47a15faa6a7cd1c2e5b",
    ),
}


def numpy_mismatch():
    """Why the pins do not apply to this numpy, or ``None`` if they do."""
    here = ".".join(np.__version__.split(".")[:2])
    if here == PINNED_NUMPY:
        return None
    return (
        f"substrate digests were recorded with numpy {PINNED_NUMPY}; "
        f"numpy {here} may draw other random streams"
    )


pinned = pytest.mark.skipif(numpy_mismatch() is not None, reason=str(numpy_mismatch()))


def payload_digest(table, topology=None):
    """``payload_digest`` of the stored payload, or of the table's part of
    it when no topology is given."""
    bases, lengths, asns = table.prefix_arrays()
    return datasets.payload_digest({
        **(datasets.topology_arrays(topology) if topology is not None else {}),
        "prefix_base": bases,
        "prefix_length": lengths,
        "prefix_asn": asns,
    })


@pinned
@pytest.mark.parametrize("name", sorted(TABLES))
def test_prefix_table_digest(name):
    n_as, fields, seed, weights, digest = TABLES[name]
    asns = list(range(1, n_as + 1))
    if weights == "linear":
        weights = {asn: float(asn) for asn in asns}
    table = generate_global_prefix_table(
        asns, AllocationConfig(**fields), seed=seed, as_weights=weights
    )
    assert payload_digest(table) == digest


@pinned
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_topology_digest(name):
    fields, digest = TOPOLOGIES[name]
    topology = generate_internet_topology(TopologyConfig(**fields), seed=3)
    assert datasets.payload_digest(datasets.topology_arrays(topology)) == digest


@pinned
@pytest.mark.parametrize("scale", ["small", "medium"])
def test_cold_substrate_digest(scale, tmp_path):
    env = common.Environment(common.SCALES[scale], seed=0, cache_dir=str(tmp_path))
    assert not env.substrate_loaded
    assert payload_digest(env.table, env.topology) == SCALE_DIGESTS[scale]
    # The store holds the same payload.
    warm = common.Environment(common.SCALES[scale], seed=0, cache_dir=str(tmp_path))
    assert warm.substrate_loaded
    assert payload_digest(warm.table, warm.topology) == SCALE_DIGESTS[scale]


def main(argv):
    """Build one scale's substrate cold and compare it with its pin;
    exit status 1 on a mismatch."""
    (scale,) = argv
    cache_dir = os.environ.get("REPRO_CACHE_DIR", common.DEFAULT_CACHE_DIR)
    env = common.Environment(common.SCALES[scale], seed=0, cache_dir=cache_dir)
    digest = payload_digest(env.table, env.topology)
    state = "loaded" if env.substrate_loaded else "cold"
    print(f"{scale}: setup_s={env.setup_s:.2f} ({state}) digest={digest}")
    if env.substrate_loaded:
        print(f"{cache_dir} already held this substrate: not a cold build")
        return 1
    reason = numpy_mismatch()
    if reason is not None:
        print(f"digest not compared: {reason}")
        return 0
    if digest != SCALE_DIGESTS[scale]:
        print(f"MISMATCH: pinned {SCALE_DIGESTS[scale]}")
        return 1
    print("matches the pinned digest")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
