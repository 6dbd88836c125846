"""Tests for the shared experiment environment plumbing."""

import json
import multiprocessing
import os
import struct
from collections.abc import Mapping

import numpy as np
import pytest

import repro.experiments.common as common
import repro.topology.datasets as datasets
import repro.workers as workers
from repro.bgp.prefix import Announcement, Prefix
from repro.errors import TopologyError, WorkerError
from repro.experiments.common import (
    SCALES,
    Environment,
    Scale,
    get_environment,
    resolve_scale,
    substrate_key,
)
from repro.topology.routing import Router


@pytest.fixture
def tiny_scale():
    return Scale("unit", 80, 100, 500, 4.0, 80_000)


class TestResolveScale:
    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert resolve_scale().name == "medium"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert resolve_scale("small").name == "small"

    def test_default_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale().name == "small"


class TestEnvironment:
    def test_deterministic_across_instances(self, tiny_scale, tmp_path):
        env_a = Environment(tiny_scale, seed=1, cache_dir=str(tmp_path))
        env_b = Environment(tiny_scale, seed=1, cache_dir=str(tmp_path))
        assert env_a.topology.asns() == env_b.topology.asns()
        assert sorted(env_a.table) == sorted(env_b.table)

    def test_topology_cached_on_disk(self, tiny_scale, tmp_path):
        env = Environment(tiny_scale, seed=2, cache_dir=str(tmp_path))
        cached = [f for f in os.listdir(tmp_path) if f.endswith(".arrays")]
        assert cached == [f"substrate-{env.substrate_key}.arrays"]
        # Second construction loads the cache (mtime unchanged).
        path = tmp_path / cached[0]
        mtime = path.stat().st_mtime_ns
        Environment(tiny_scale, seed=2, cache_dir=str(tmp_path))
        assert path.stat().st_mtime_ns == mtime
        assert os.listdir(tmp_path) == cached

    def test_table_covers_all_ases(self, tiny_scale, tmp_path):
        env = Environment(tiny_scale, seed=3, cache_dir=str(tmp_path))
        assert set(env.table.asns()) == set(env.topology.asns())

    def test_router_is_usable(self, tiny_scale, tmp_path):
        env = Environment(tiny_scale, seed=4, cache_dir=str(tmp_path))
        asns = env.topology.asns()
        assert env.router.rtt_ms(asns[0], asns[-1]) > 0

    def test_router_built_on_first_read(self, tiny_scale, tmp_path, monkeypatch):
        built = []
        init = Router.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Router, "__init__", counting)
        env = Environment(tiny_scale, seed=4, cache_dir=str(tmp_path))
        assert built == []
        router = env.router
        assert built == [router] and env.router is router
        # A caller that brings its own router builds no default one.
        other = Environment(tiny_scale, seed=4, cache_dir=str(tmp_path))
        other.router = mine = Router(other.topology, cache_size=8)
        assert other.router is mine and built == [router, mine]

    def test_warm_load_builds_no_prefix_objects(self, tiny_scale, tmp_path, monkeypatch):
        Environment(tiny_scale, seed=5, cache_dir=str(tmp_path))  # fills the store

        def no_objects(self):
            raise AssertionError(f"built a {type(self).__name__}")

        with monkeypatch.context() as patch:
            patch.setattr(Prefix, "__post_init__", no_objects)
            patch.setattr(Announcement, "__post_init__", no_objects)
            env = Environment(tiny_scale, seed=5, cache_dir=str(tmp_path))
            assert env.substrate_loaded
            asn = env.table.asns()[-1]
            locator = env.table.representative_address(asn)
            with pytest.raises(AssertionError, match="built a Prefix"):
                env.table.resolve(locator)
        # Generated prefixes are disjoint: the lowest one is the match.
        assert env.table.resolve(locator).asn == asn
        assert env.table.nearest(locator) == (env.table.resolve(locator), 0)
        assert env.table.representative_address(asn) == locator

    def test_cold_build_builds_no_prefix_objects(self, tiny_scale, tmp_path, monkeypatch):
        def no_objects(self):
            raise AssertionError(f"built a {type(self).__name__}")

        with monkeypatch.context() as patch:
            patch.setattr(Prefix, "__post_init__", no_objects)
            patch.setattr(Announcement, "__post_init__", no_objects)
            env = Environment(tiny_scale, seed=5, cache_dir=str(tmp_path))
            assert not env.substrate_loaded
        assert len(env.table) > len(env.topology)
        assert set(env.table.asns()) == set(env.topology.asns())


def store_files(directory):
    return sorted(os.listdir(directory))


def store_path(directory, env):
    return directory / f"substrate-{env.substrate_key}.arrays"


def split_store_file(path):
    """``(header, payload)`` of an array file, the payload writable."""
    data = path.read_bytes()
    start = len(datasets.MAGIC) + 8
    (size,) = struct.unpack_from("<Q", data, len(datasets.MAGIC))
    return json.loads(data[start : start + size]), bytearray(data[start + size :])


def write_store_file(path, header, payload):
    """An array file of ``header`` and ``payload``, the payload aligned."""
    text = json.dumps(header).encode()
    text += b" " * (-(len(datasets.MAGIC) + 8 + len(text)) % datasets.ALIGN)
    path.write_bytes(datasets.MAGIC + struct.pack("<Q", len(text)) + text + bytes(payload))


def edit_first_entry(**fields):
    """A damage: these ``fields`` replace those of the header's first
    array; an ``offset`` of ``None`` is the end of the payload."""

    def damage(path):
        header, payload = split_store_file(path)
        entry = header["arrays"][0]
        entry.update(fields)
        if entry["offset"] is None:
            entry["offset"] = len(payload)
        write_store_file(path, header, payload)

    return damage


def pre_change_npz(path):
    """The archive this store wrote before the array file: an ``.npz``."""
    arrays = datasets.read_arrays(str(path))
    with open(path, "wb") as fh:
        np.savez(fh, key=np.array("k"), digest=np.array("d"), **arrays)


#: Ways a store file goes bad, each of which must be rebuilt.
DAMAGES = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-100]),
    "offsets-past-the-end": edit_first_entry(offset=None),
    "object-dtype": edit_first_entry(dtype="|O"),
    "unknown-dtype": edit_first_entry(dtype="<q77"),
    "pre-change-npz": pre_change_npz,
}


class SharedCounts(Mapping):
    """Call counts in shared memory: the prefix table is generated in a
    forked child, whose calls count too."""

    NAMES = ("topology", "table")

    def __init__(self):
        self._counts = workers.shared_array((len(self.NAMES),), np.int64)

    def bump(self, name):
        self._counts[self.NAMES.index(name)] += 1

    def __getitem__(self, name):
        if name not in self.NAMES:
            raise KeyError(name)
        return int(self._counts[self.NAMES.index(name)])

    def __iter__(self):
        return iter(self.NAMES)

    def __len__(self):
        return len(self.NAMES)


@pytest.fixture
def count_builds(monkeypatch):
    """Count calls of the two substrate generators."""
    calls = SharedCounts()
    generate_topology = common.generate_internet_topology
    generate_table = common.generate_global_prefix_table

    def topology(*args, **kwargs):
        calls.bump("topology")
        return generate_topology(*args, **kwargs)

    def table(*args, **kwargs):
        calls.bump("table")
        return generate_table(*args, **kwargs)

    monkeypatch.setattr(common, "generate_internet_topology", topology)
    monkeypatch.setattr(common, "generate_global_prefix_table", table)
    return calls


def assert_same_substrate(a, b):
    """Equal down to every order a run can observe."""
    asns = a.topology.asns()
    assert b.topology.asns() == asns
    for asn in asns:
        assert b.topology.neighbors(asn) == a.topology.neighbors(asn)
    got, want = b.topology.adjacency_arrays(), a.topology.adjacency_arrays()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name
    for got, want in zip(b.topology.csr_arrays(), a.topology.csr_arrays()):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert list(b.table) == list(a.table)
    assert b.table.asns() == a.table.asns()
    assert b.table.generation == a.table.generation
    for asn in a.table.asns():
        assert b.table.representative_address(asn) == a.table.representative_address(asn)


class TestSubstrateStore:
    def test_loaded_equals_generated(self, tmp_path):
        fresh = Environment(SCALES["small"], seed=0, cache_dir=str(tmp_path))
        loaded = Environment(SCALES["small"], seed=0, cache_dir=str(tmp_path))
        assert not fresh.substrate_loaded and loaded.substrate_loaded
        assert loaded.substrate_key == fresh.substrate_key
        assert_same_substrate(fresh, loaded)

    def test_generates_once(self, tiny_scale, tmp_path, count_builds):
        cache = tmp_path / "cache"  # created on first use
        first = Environment(tiny_scale, seed=2, cache_dir=str(cache))
        second = Environment(tiny_scale, seed=2, cache_dir=str(cache))
        assert count_builds == {"topology": 1, "table": 1}
        assert store_files(cache) == [f"substrate-{first.substrate_key}.arrays"]
        assert second.topology.asns() == first.topology.asns()

    def test_edited_generator_forces_rebuild(
        self, tiny_scale, tmp_path, monkeypatch, count_builds
    ):
        keys = [Environment(tiny_scale, seed=2, cache_dir=str(tmp_path)).substrate_key]
        read = common._module_bytes
        edit = {}

        def edited(name):
            source = read(name)
            return source.replace(*edit[name]) if name in edit else source

        monkeypatch.setattr(common, "_module_bytes", edited)
        # An edit to the generator, then instead one to the exact-draw
        # helpers it calls: each names a new substrate, built and stored.
        for builds, (name, old, new) in enumerate([
            ("repro.topology.generator", b"PAPER_N_LINKS = 90_267", b"PAPER_N_LINKS = 90_268"),
            ("repro.draws", b"0xFFFFFFFF", b"0xffffffff"),
        ], start=2):
            edit.clear()
            edit[name] = (old, new)
            assert edited(name) != read(name)
            env = Environment(tiny_scale, seed=2, cache_dir=str(tmp_path))
            assert env.substrate_key not in keys and not env.substrate_loaded
            keys.append(env.substrate_key)
            assert count_builds == {"topology": builds, "table": builds}
        assert len(store_files(tmp_path)) == 3

    def test_key_covers_config_and_seed(self, tiny_scale):
        key = substrate_key(tiny_scale, 0)
        assert substrate_key(tiny_scale, 0) == key
        assert substrate_key(tiny_scale, 1) != key
        for field in ("n_as", "total_endnodes", "prefixes_per_as"):
            changed = Scale(**{**tiny_scale.__dict__, field: getattr(tiny_scale, field) * 2})
            assert substrate_key(changed, 0) != key, field
        # The scale's name and workload sizes do not shape the substrate.
        renamed = Scale("other", 80, 1, 1, 4.0, 80_000)
        assert substrate_key(renamed, 0) == key

    def test_key_covers_generator_modules(self, tiny_scale, monkeypatch):
        # The generators' own modules and the exact-draw helpers they call.
        assert {"repro.topology.generator", "repro.bgp.allocation", "repro.draws"} <= set(
            common.GENERATOR_MODULES
        )
        key = substrate_key(tiny_scale, 0)
        read = common._module_bytes
        for module in common.GENERATOR_MODULES:
            monkeypatch.setattr(
                common,
                "_module_bytes",
                lambda name: read(name) + (b"\n" if name == module else b""),
            )
            assert substrate_key(tiny_scale, 0) != key, module

    def test_flipped_byte_rebuilds(self, tiny_scale, tmp_path, count_builds):
        first = Environment(tiny_scale, seed=3, cache_dir=str(tmp_path))
        path = store_path(tmp_path, first)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        second = Environment(tiny_scale, seed=3, cache_dir=str(tmp_path))
        assert not second.substrate_loaded
        assert count_builds["topology"] == 2
        assert_same_substrate(first, second)
        # The rebuild overwrote the damaged file.
        third = Environment(tiny_scale, seed=3, cache_dir=str(tmp_path))
        assert third.substrate_loaded
        assert store_files(tmp_path) == [path.name]

    def test_digest_mismatch_rebuilds(self, tiny_scale, tmp_path, count_builds):
        # A well-formed file whose payload no longer matches its digest.
        first = Environment(tiny_scale, seed=3, cache_dir=str(tmp_path))
        path = store_path(tmp_path, first)
        header, payload = split_store_file(path)
        (entry,) = [e for e in header["arrays"] if e["name"] == "prefix_asn"]
        asns = np.frombuffer(payload, dtype=entry["dtype"], count=entry["shape"][0],
                             offset=entry["offset"])
        payload[entry["offset"] : entry["offset"] + asns.nbytes] = asns[::-1].tobytes()
        write_store_file(path, header, payload)
        with pytest.raises(TopologyError, match="digest"):
            datasets.read_arrays(str(path))
        second = Environment(tiny_scale, seed=3, cache_dir=str(tmp_path))
        assert not second.substrate_loaded
        assert count_builds["table"] == 2
        assert_same_substrate(first, second)

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_file_rebuilds(self, damage, tiny_scale, tmp_path, count_builds):
        # Never served and never raised: regenerated and overwritten.
        first = Environment(tiny_scale, seed=3, cache_dir=str(tmp_path))
        path = store_path(tmp_path, first)
        intact = path.read_bytes()
        DAMAGES[damage](path)
        assert path.read_bytes() != intact
        second = Environment(tiny_scale, seed=3, cache_dir=str(tmp_path))
        assert not second.substrate_loaded
        assert count_builds == {"topology": 2, "table": 2}
        assert_same_substrate(first, second)
        assert path.read_bytes() == intact
        assert Environment(tiny_scale, seed=3, cache_dir=str(tmp_path)).substrate_loaded
        assert store_files(tmp_path) == [path.name]

    def test_topology_decoded_by_datasets(self, tiny_scale, tmp_path, monkeypatch):
        # One topology format: a substrate file is a topology archive, and
        # a loading construction decodes it through datasets.load_topology.
        first = Environment(tiny_scale, seed=4, cache_dir=str(tmp_path))
        path = store_path(tmp_path, first)
        archived = datasets.load_topology(str(path))
        for asn in first.topology.asns():
            assert archived.neighbors(asn) == first.topology.neighbors(asn)
        decoded = []
        load = datasets.load_topology

        def counting(source):
            decoded.append(source)
            return load(source)

        monkeypatch.setattr(datasets, "load_topology", counting)
        second = Environment(tiny_scale, seed=4, cache_dir=str(tmp_path))
        assert second.substrate_loaded and len(decoded) == 1
        assert_same_substrate(first, second)

    def test_old_topology_cache_ignored(self, tiny_scale, tmp_path):
        stale = tmp_path / "topology-unit-80-seed0.npz"
        stale.write_bytes(b"not an archive")
        env = Environment(tiny_scale, seed=0, cache_dir=str(tmp_path))
        assert not env.substrate_loaded
        assert stale.read_bytes() == b"not an archive"

    def test_one_cpu_builds_in_process_the_same_file(
        self, tiny_scale, tmp_path, monkeypatch, count_builds
    ):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        forked = Environment(tiny_scale, seed=6, cache_dir=str(tmp_path / "forked"))
        assert count_builds == {"topology": 1, "table": 1}

        def no_fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        alone = Environment(tiny_scale, seed=6, cache_dir=str(tmp_path / "alone"))
        assert count_builds == {"topology": 2, "table": 2}
        assert not alone.substrate_loaded
        assert store_path(tmp_path / "alone", alone).read_bytes() == (
            store_path(tmp_path / "forked", forked).read_bytes()
        )
        assert_same_substrate(forked, alone)

    @pytest.mark.parametrize("failure", ["raises", "builds-a-prefix"])
    def test_failed_table_worker_leaves_nothing(
        self, failure, tiny_scale, tmp_path, monkeypatch
    ):
        # The child inherits the parent's patches: a Prefix built there
        # fails the build as one built here would.
        def broken(*args, **kwargs):
            if failure == "raises":
                raise RuntimeError("table generator failed")
            Prefix(0, 0, 8)
            return generate_table(*args, **kwargs)

        def no_objects(self):
            raise AssertionError(f"built a {type(self).__name__}")

        generate_table = common.generate_global_prefix_table
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        monkeypatch.setattr(common, "generate_global_prefix_table", broken)
        monkeypatch.setattr(Prefix, "__post_init__", no_objects)
        with pytest.raises(WorkerError, match="prefix-table worker"):
            Environment(tiny_scale, seed=6, cache_dir=str(tmp_path))
        # No store file, no temporary file, no child left running.
        assert store_files(tmp_path) == []
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        assert not Environment(tiny_scale, seed=6, cache_dir=str(tmp_path)).substrate_loaded

    def test_failed_topology_joins_the_table_worker(self, tiny_scale, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("topology generator failed")

        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        monkeypatch.setattr(common, "generate_internet_topology", broken)
        with pytest.raises(RuntimeError, match="topology generator failed"):
            Environment(tiny_scale, seed=6, cache_dir=str(tmp_path))
        assert store_files(tmp_path) == []
        assert multiprocessing.active_children() == []

    def test_setup_recorded(self, tiny_scale, tmp_path):
        env = Environment(tiny_scale, seed=0, cache_dir=str(tmp_path))
        assert env.setup_s > 0
        assert len(env.substrate_key) == 64


class TestWorkloadGroupingEquivalence:
    def test_grouped_and_ungrouped_rtts_match(self, topology, base_table, router):
        """Grouping by source is a pure performance optimization: the RTT
        multiset must be identical to strict time-order execution."""
        from repro.core.resolver import DMapResolver
        from repro.workload.generator import (
            EventKind,
            WorkloadConfig,
            WorkloadGenerator,
        )

        workload = WorkloadGenerator(
            topology, WorkloadConfig(n_guids=60, n_lookups=400, seed=8)
        ).generate()
        grouped = WorkloadGenerator(
            topology, WorkloadConfig(n_guids=60, n_lookups=400, seed=8)
        ).generate()

        r1 = DMapResolver(base_table, router, k=5)
        in_order = []
        for event in workload.events:  # strict time order
            if event.kind is EventKind.LOOKUP:
                in_order.append(r1.lookup(event.guid, event.source_asn).rtt_ms)
            else:
                locator = base_table.representative_address(event.source_asn)
                r1.insert(event.guid, [locator], event.source_asn)
        by_source = grouped.run_through_resolver(
            DMapResolver(base_table, router, k=5), base_table
        )
        assert sorted(in_order) == pytest.approx(sorted(by_source))
