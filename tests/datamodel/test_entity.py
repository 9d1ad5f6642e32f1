"""Tests for the entity data model."""

import pytest

from repro.datamodel import (
    EntityCollection,
    EntityIndexSpace,
    EntityProfile,
    collection_from_dicts,
    make_profile,
)


class TestEntityProfile:
    def test_text_concatenates_non_empty_values(self):
        profile = make_profile("p1", name="Apple iPhone", descr="", category="phone")
        assert profile.text() == "Apple iPhone phone"

    def test_values_skips_empty(self):
        profile = make_profile("p1", a="x", b="", c="y")
        assert profile.values() == ["x", "y"]

    def test_attribute_lookup_with_default(self):
        profile = make_profile("p1", name="foo")
        assert profile.attribute("name") == "foo"
        assert profile.attribute("missing", "fallback") == "fallback"
        assert profile.attribute("missing") == ""

    def test_is_empty(self):
        assert make_profile("p1").is_empty()
        assert make_profile("p2", a="").is_empty()
        assert not make_profile("p3", a="x").is_empty()

    def test_len_counts_attributes(self):
        assert len(make_profile("p1", a="x", b="y")) == 2


class TestEntityCollection:
    def test_indexing_and_lookup(self):
        collection = EntityCollection(
            [make_profile("a", x="1"), make_profile("b", x="2")], name="test"
        )
        assert len(collection) == 2
        assert collection.index_of("b") == 1
        assert collection[collection.index_of("a")].attribute("x") == "1"
        assert collection[0].entity_id == "a"
        assert "a" in collection and "zzz" not in collection

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate entity_id"):
            EntityCollection([make_profile("a"), make_profile("a")])

    def test_ids_in_order(self):
        collection = EntityCollection([make_profile("b"), make_profile("a")])
        assert collection.ids() == ["b", "a"]

    def test_collection_from_dicts_with_id_field(self):
        collection = collection_from_dicts(
            [{"id": "r1", "name": "x"}, {"id": "r2", "name": "y"}], id_field="id"
        )
        assert collection.ids() == ["r1", "r2"]
        assert "id" not in collection[collection.index_of("r1")].attributes

    def test_collection_from_dicts_sequential_ids(self):
        collection = collection_from_dicts([{"name": "x"}, {"name": "y"}])
        assert collection.ids() == ["0", "1"]

    def test_collection_from_dicts_missing_id_raises(self):
        with pytest.raises(KeyError):
            collection_from_dicts([{"name": "x"}], id_field="id")


class TestEntityIndexSpace:
    def test_clean_clean_node_mapping(self):
        space = EntityIndexSpace(3, 2)
        assert space.total == 5
        assert space.is_clean_clean
        assert space.node_of_first(2) == 2
        assert space.node_of_second(0) == 3
        assert space.side_of(4) == (1, 1)
        assert space.side_of(1) == (0, 1)

    def test_dirty_space(self):
        space = EntityIndexSpace(4)
        assert not space.is_clean_clean
        assert space.total == 4
        with pytest.raises(ValueError):
            space.node_of_second(0)

    def test_out_of_range(self):
        space = EntityIndexSpace(2, 2)
        with pytest.raises(IndexError):
            space.node_of_first(2)
        with pytest.raises(IndexError):
            space.node_of_second(5)
        with pytest.raises(IndexError):
            space.side_of(10)
