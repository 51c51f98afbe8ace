"""Unit tests for :mod:`repro.core.platform`."""

from __future__ import annotations

import pytest

from repro.core.errors import ModelError
from repro.core.platform import CapabilityClass, Cluster, Machine, Platform


class TestMachine:
    def test_basic_properties(self):
        machine = Machine(0, cycle_time=0.5, cluster_id=2, databanks=frozenset({"a"}))
        assert machine.speed == pytest.approx(2.0)
        assert machine.hosts("a")
        assert not machine.hosts("b")
        assert machine.hosts(None)
        assert machine.label == "M0"

    def test_named_label(self):
        assert Machine(1, 1.0, name="fast").label == "fast"

    def test_invalid_cycle_time(self):
        with pytest.raises(ModelError):
            Machine(0, cycle_time=0.0)
        with pytest.raises(ModelError):
            Machine(0, cycle_time=-1.0)

    def test_negative_id_rejected(self):
        with pytest.raises(ModelError):
            Machine(-3, cycle_time=1.0)

    def test_databanks_coerced_to_frozenset(self):
        machine = Machine(0, 1.0, databanks={"a", "b"})  # type: ignore[arg-type]
        assert isinstance(machine.databanks, frozenset)


class TestCluster:
    def test_homogeneity_enforced(self):
        ok = Cluster(
            0, (Machine(0, 1.0, 0, frozenset({"a"})), Machine(1, 1.0, 0, frozenset({"a"})))
        )
        assert ok.aggregate_speed == pytest.approx(2.0)
        assert ok.databanks == frozenset({"a"})
        with pytest.raises(ModelError):
            Cluster(0, (Machine(0, 1.0, 0), Machine(1, 2.0, 0)))
        with pytest.raises(ModelError):
            Cluster(0, (Machine(0, 1.0, 0, frozenset({"a"})), Machine(1, 1.0, 0, frozenset({"b"}))))

    def test_cluster_id_consistency(self):
        with pytest.raises(ModelError):
            Cluster(0, (Machine(0, 1.0, 1),))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ModelError):
            Cluster(0, ())


class TestPlatformConstruction:
    def test_single_machine(self):
        platform = Platform.single_machine(2.0, databanks=["x"])
        assert len(platform) == 1
        assert platform[0].cycle_time == 2.0
        assert platform.databanks() == frozenset({"x"})

    def test_uniform(self):
        platform = Platform.uniform([1.0, 2.0, 4.0], databanks=["db"])
        assert len(platform) == 3
        assert platform.aggregate_speed() == pytest.approx(1.0 + 0.5 + 0.25)

    def test_from_clusters(self):
        platform = Platform.from_clusters([(2, 1.0, ["a"]), (3, 0.5, ["a", "b"])])
        assert len(platform) == 5
        assert len(platform.clusters()) == 2
        assert platform.machines_hosting("b") == tuple(platform)[2:]

    def test_from_clusters_rejects_empty_cluster(self):
        with pytest.raises(ModelError):
            Platform.from_clusters([(0, 1.0, ["a"])])

    def test_empty_platform_rejected(self):
        with pytest.raises(ModelError):
            Platform([])

    def test_duplicate_machine_ids_rejected(self):
        with pytest.raises(ModelError):
            Platform([Machine(0, 1.0), Machine(0, 2.0)])


class TestPlatformQueries:
    @pytest.fixture
    def platform(self) -> Platform:
        return Platform(
            [
                Machine(0, 1.0, 0, frozenset({"a"})),
                Machine(1, 1.0, 0, frozenset({"a"})),
                Machine(2, 0.5, 1, frozenset({"a", "b"})),
                Machine(3, 2.0, 2, frozenset({"b"})),
            ]
        )

    def test_by_id(self, platform):
        assert platform.by_id(2).cycle_time == 0.5
        with pytest.raises(KeyError):
            platform.by_id(99)

    def test_machines_hosting(self, platform):
        assert [m.machine_id for m in platform.machines_hosting("a")] == [0, 1, 2]
        assert [m.machine_id for m in platform.machines_hosting("b")] == [2, 3]
        assert len(platform.machines_hosting(None)) == 4

    def test_ids_and_hosts_are_built_once(self, platform):
        assert platform.ids() == (0, 1, 2, 3)
        assert platform.ids() is platform.ids()
        assert platform.machines_hosting("a") is platform.machines_hosting("a")
        assert platform.machines_hosting(None) is platform.machines_hosting(None)

    def test_aggregate_speed_restricted(self, platform):
        assert platform.aggregate_speed("a") == pytest.approx(1 + 1 + 2)
        assert platform.aggregate_speed("b") == pytest.approx(2 + 0.5)
        assert platform.aggregate_speed() == pytest.approx(4.5)

    def test_is_uniform_for(self, platform):
        assert not platform.is_uniform_for(["a"])
        assert platform.is_uniform_for([None])
        uniform = Platform.uniform([1.0, 2.0], databanks=["a", "b"])
        assert uniform.is_uniform_for(["a", "b", None])

    def test_capability_classes(self, platform):
        classes = platform.capability_classes()
        assert len(classes) == 3
        by_banks = {cls.databanks: cls for cls in classes}
        assert by_banks[frozenset({"a"})].machine_ids == (0, 1)
        assert by_banks[frozenset({"a"})].aggregate_speed == pytest.approx(2.0)
        assert by_banks[frozenset({"a", "b"})].aggregate_speed == pytest.approx(2.0)
        assert by_banks[frozenset({"b"})].machine_ids == (3,)

    def test_capability_class_cycle_time_and_hosts(self, platform):
        cls = platform.capability_classes()[0]
        assert cls.cycle_time == pytest.approx(1.0 / cls.aggregate_speed)
        assert cls.hosts(None)

    def test_clusters_grouping(self, platform):
        clusters = platform.clusters()
        assert [len(c) for c in clusters] == [2, 1, 1]
        assert clusters[0].cluster_id == 0

    def test_restrict_to(self, platform):
        sub = platform.restrict_to([0, 3])
        assert len(sub) == 2
        assert set(sub.ids()) == {0, 3}

    def test_describe_mentions_clusters(self, platform):
        text = platform.describe()
        assert "4 machines" in text
        assert "cluster 0" in text

    def test_slicing_returns_platform(self, platform):
        assert isinstance(platform[:2], Platform)
        assert len(platform[:2]) == 2

    def test_equality_and_hash(self, platform):
        clone = Platform(list(platform))
        assert clone == platform
        assert hash(clone) == hash(platform)


class TestCapabilityClassValidation:
    def test_invalid_speed(self):
        with pytest.raises(ModelError):
            CapabilityClass(frozenset(), (0,), aggregate_speed=0.0)

    def test_empty_members(self):
        with pytest.raises(ModelError):
            CapabilityClass(frozenset(), (), aggregate_speed=1.0)
