"""Tests for the world catalog (countries, cities, ASNs, DCs)."""

import pytest

from repro.geo.coords import GeoPoint
from repro.geo.world import (
    ALL_COUNTRIES,
    ALL_DCS,
    EUROPE_DC_CODES,
    FIG4_COUNTRIES,
    FIG4_DC_CODES,
    Country,
    World,
    default_world,
    stable_hash,
)


class TestCatalog:
    def test_has_21_dcs_like_the_paper(self):
        assert len(ALL_DCS) == 21

    def test_fig4_has_22_countries(self):
        assert len(FIG4_COUNTRIES) == 22

    def test_fig4_dcs_span_five_continents(self):
        world = default_world()
        continents = {world.dc(code).continent for code in FIG4_DC_CODES}
        assert len(continents) == 5

    def test_unique_codes(self):
        codes = [c.code for c in ALL_COUNTRIES]
        assert len(codes) == len(set(codes))
        dc_codes = [d.code for d in ALL_DCS]
        assert len(dc_codes) == len(set(dc_codes))

    def test_europe_dcs_exist(self):
        world = default_world()
        assert len(world.europe_dcs) == len(EUROPE_DC_CODES) >= 5

    def test_germany_has_poor_loss_quality_but_fine_latency_quality(self):
        # Paper §4.2(5): Germany's Internet loss is unacceptable even
        # though Fig 4 shows its latency F is high.
        world = default_world()
        de = world.country("DE")
        assert de.loss_quality < 0.5
        assert de.internet_quality > 0.7

    def test_loss_quality_defaults_to_internet_quality(self):
        c = Country("XX", "Test", "europe", GeoPoint(0, 0), 1.0, 0.66)
        assert c.loss_quality == 0.66


class TestCountryValidation:
    def test_bad_continent(self):
        with pytest.raises(ValueError):
            Country("XX", "Test", "atlantis", GeoPoint(0, 0))

    def test_bad_quality(self):
        with pytest.raises(ValueError):
            Country("XX", "Test", "europe", GeoPoint(0, 0), internet_quality=1.5)

    def test_bad_loss_quality(self):
        with pytest.raises(ValueError):
            Country("XX", "Test", "europe", GeoPoint(0, 0), internet_loss_quality=-0.1)

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            Country("XX", "Test", "europe", GeoPoint(0, 0), call_volume_weight=-1)


class TestWorld:
    def test_country_lookup(self):
        world = default_world()
        assert world.country("FR").name == "France"

    def test_unknown_country_raises(self):
        with pytest.raises(KeyError):
            default_world().country("ZZ")

    def test_unknown_dc_raises(self):
        with pytest.raises(KeyError):
            default_world().dc("mars-north")

    def test_duplicate_country_codes_rejected(self):
        c = ALL_COUNTRIES[0]
        with pytest.raises(ValueError):
            World(countries=[c, c])

    def test_countries_in_continent(self):
        world = default_world()
        europe = world.countries_in("europe")
        assert all(c.continent == "europe" for c in europe)
        assert len(europe) >= 15

    def test_nearest_dc(self):
        world = default_world()
        paris = world.country("FR").centroid
        nearest = world.nearest_dc(paris)
        assert nearest.code in ("france-central", "switzerland-north", "westeurope")

    def test_nearest_dc_with_candidates(self):
        world = default_world()
        paris = world.country("FR").centroid
        candidates = [world.dc("hongkong"), world.dc("japan-east")]
        assert world.nearest_dc(paris, candidates).code == "hongkong"

    def test_nearest_dc_empty_candidates(self):
        with pytest.raises(ValueError):
            default_world().nearest_dc(GeoPoint(0, 0), candidates=[])


class TestSyntheticStructure:
    def test_cities_deterministic(self):
        w1 = World(seed=5)
        w2 = World(seed=5)
        c1 = w1.cities("FR")
        c2 = w2.cities("FR")
        assert [c.name for c in c1] == [c.name for c in c2]
        assert [c.location for c in c1] == [c.location for c in c2]

    def test_cities_differ_across_seeds(self):
        c1 = World(seed=1).cities("FR")
        c2 = World(seed=2).cities("FR")
        assert [c.location for c in c1] != [c.location for c in c2]

    def test_cities_belong_to_country(self):
        world = default_world()
        for city in world.cities("DE"):
            assert city.country_code == "DE"
            assert city.population_weight > 0

    def test_asn_shares_sum_to_one(self):
        world = default_world()
        for code in ("US", "FR", "IN"):
            total = sum(a.share for a in world.asns(code))
            assert total == pytest.approx(1.0)

    def test_asns_for_unknown_country_raise(self):
        with pytest.raises(KeyError):
            default_world().asns("ZZ")

    def test_cities_count_configurable(self):
        world = World(cities_per_country=5, asns_per_country=3)
        assert len(world.cities("GB")) == 5
        assert len(world.asns("GB")) == 3


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("france") == stable_hash("france")

    def test_distinct_inputs(self):
        assert stable_hash("france") != stable_hash("germany")

    def test_known_value_is_stable_across_processes(self):
        # crc32("teams") — pinned so a stdlib change would be noticed.
        assert stable_hash("teams") == 2529305176
