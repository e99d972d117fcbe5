"""Tests for the WAN backbone topology."""

import networkx as nx
import pytest

from repro.geo.world import default_world
from repro.net.topology import WanLink, WanTopology, dc_node, pop_node


@pytest.fixture(scope="module")
def topology():
    return WanTopology(default_world())


class TestConstruction:
    def test_graph_is_connected(self, topology):
        assert nx.is_connected(topology.graph)

    def test_every_country_has_a_pop(self, topology):
        for country in topology.world.countries:
            assert pop_node(country.code) in topology.graph

    def test_every_dc_is_a_node(self, topology):
        for dc in topology.world.dcs:
            assert dc_node(dc.code) in topology.graph

    def test_links_have_positive_distance(self, topology):
        assert all(link.distance_km > 0 for link in topology.links)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WanTopology(default_world(), dc_degree=0)
        with pytest.raises(ValueError):
            WanTopology(default_world(), pop_attachments=0)


class TestWanLink:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            WanLink("a", "a", 100.0)

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            WanLink("a", "b", 0.0)

    def test_key_is_unordered(self):
        assert WanLink("a", "b", 1.0).key == WanLink("b", "a", 1.0).key


class TestPaths:
    def test_wan_path_nonempty(self, topology):
        path = topology.wan_path("FR", "westeurope")
        assert len(path) >= 1

    def test_wan_path_starts_at_pop_ends_at_dc(self, topology):
        path = topology.wan_path("GB", "hongkong")
        endpoints = {path[0].a, path[0].b}
        assert pop_node("GB") in endpoints
        endpoints = {path[-1].a, path[-1].b}
        assert dc_node("hongkong") in endpoints

    def test_wan_path_km_at_least_great_circle(self, topology):
        from repro.geo.coords import haversine_km

        world = topology.world
        for cc, dc in [("US", "westeurope"), ("FR", "hongkong"), ("GB", "uk-south")]:
            gc = haversine_km(world.country(cc).centroid, world.dc(dc).location)
            # The backbone route can never be shorter than ~the great circle
            # (tolerance for PoP placement at country centroid).
            assert topology.wan_path_km(cc, dc) >= 0.8 * gc

    def test_internet_uses_no_wan_links(self, topology):
        assert topology.internet_links("FR", "westeurope") == []
        assert topology.links_used("FR", "westeurope", "internet") == []

    def test_links_used_wan_matches_wan_path(self, topology):
        used = topology.links_used("FR", "westeurope", "wan")
        assert used == topology.wan_path("FR", "westeurope")

    def test_unknown_option_rejected(self, topology):
        with pytest.raises(ValueError):
            topology.links_used("FR", "westeurope", "carrier-pigeon")

    def test_unknown_country_raises(self, topology):
        with pytest.raises(KeyError):
            topology.wan_path("ZZ", "westeurope")

    def test_unknown_dc_raises(self, topology):
        with pytest.raises(KeyError):
            topology.wan_path("FR", "atlantis")

    def test_path_caching_returns_copies(self, topology):
        p1 = topology.wan_path("DE", "ireland")
        p1.append("sentinel")
        p2 = topology.wan_path("DE", "ireland")
        assert "sentinel" not in p2


class TestFiberCuts:
    def test_remove_and_restore_link(self):
        topo = WanTopology(default_world())
        original = topo.wan_path("FR", "westeurope")
        # Find a removable link on the path.
        removed = None
        for link in original:
            try:
                topo.remove_link(link)
                removed = link
                break
            except ValueError:
                continue
        if removed is None:
            pytest.skip("no removable link on this path")
        rerouted = topo.wan_path("FR", "westeurope")
        assert removed.key not in {ln.key for ln in rerouted}
        topo.restore_link(removed)
        assert topo.wan_path("FR", "westeurope") == original

    def test_version_counter_tracks_mutations(self):
        topo = WanTopology(default_world())
        v0 = topo.version
        removed = None
        for link in topo.wan_path("FR", "westeurope"):
            try:
                topo.remove_link(link)
                removed = link
                break
            except ValueError:
                continue
        if removed is None:
            pytest.skip("no removable link on this path")
        assert topo.version == v0 + 1
        topo.restore_link(removed)
        assert topo.version == v0 + 2

    def test_failed_removal_does_not_bump_version(self):
        topo = WanTopology(default_world(), dc_degree=1, pop_attachments=1)
        pop_link = next(
            ln for ln in topo.links if ln.a.startswith("pop:") or ln.b.startswith("pop:")
        )
        v0 = topo.version
        with pytest.raises(ValueError):
            topo.remove_link(pop_link)
        assert topo.version == v0

    def test_remove_unknown_link_raises(self):
        topo = WanTopology(default_world())
        with pytest.raises(KeyError):
            topo.remove_link(WanLink("x", "y", 5.0))

    def test_cannot_partition_backbone(self):
        topo = WanTopology(default_world(), dc_degree=1, pop_attachments=1)
        # A PoP with one attachment: cutting it would strand the PoP.
        pop_link = next(
            ln for ln in topo.links if ln.a.startswith("pop:") or ln.b.startswith("pop:")
        )
        with pytest.raises(ValueError):
            topo.remove_link(pop_link)
        # And the link survives the failed removal.
        assert pop_link.key in {ln.key for ln in topo.links}
