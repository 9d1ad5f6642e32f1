"""Tests for the CSV loaders (real-data path of the dataset substrate)."""

import pytest

from repro.datasets import (
    load_clean_clean_directory,
    load_dirty_directory,
    read_entity_csv,
    read_ground_truth_csv,
)


@pytest.fixture
def csv_dataset_dir(tmp_path):
    """Write a tiny Clean-Clean ER dataset in the expected CSV layout."""
    (tmp_path / "first.csv").write_text(
        "id,name,maker\n"
        "a1,apple iphone x,apple\n"
        "a2,samsung s20,samsung\n",
        encoding="utf-8",
    )
    (tmp_path / "second.csv").write_text(
        "id,name,brand\n"
        "b1,iphone x 64gb,apple\n"
        "b2,huawei mate 20,huawei\n",
        encoding="utf-8",
    )
    (tmp_path / "ground_truth.csv").write_text(
        "first_id,second_id\na1,b1\n", encoding="utf-8"
    )
    return tmp_path


class TestEntityCsv:
    def test_read_entities(self, csv_dataset_dir):
        collection = read_entity_csv(csv_dataset_dir / "first.csv")
        assert len(collection) == 2
        assert collection[collection.index_of("a1")].attribute("name") == "apple iphone x"
        assert "id" not in collection[collection.index_of("a1")].attributes

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_entity_csv(tmp_path / "nope.csv")

    def test_missing_id_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name\nfoo\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_entity_csv(path)


class TestGroundTruthCsv:
    def test_read_pairs(self, csv_dataset_dir):
        first = read_entity_csv(csv_dataset_dir / "first.csv")
        second = read_entity_csv(csv_dataset_dir / "second.csv")
        truth = read_ground_truth_csv(csv_dataset_dir / "ground_truth.csv", first, second)
        assert len(truth) == 1
        assert truth.is_match(0, 2)  # a1 <-> b1

    def test_missing_columns(self, tmp_path, csv_dataset_dir):
        first = read_entity_csv(csv_dataset_dir / "first.csv")
        second = read_entity_csv(csv_dataset_dir / "second.csv")
        bad = tmp_path / "gt.csv"
        bad.write_text("x,y\na1,b1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_ground_truth_csv(bad, first, second)


class TestDirectoryLoaders:
    def test_load_clean_clean_directory(self, csv_dataset_dir):
        dataset = load_clean_clean_directory(csv_dataset_dir, name="tiny")
        assert dataset.name == "tiny"
        assert len(dataset.first) == 2
        assert len(dataset.second) == 2
        assert len(dataset.ground_truth) == 1

    def test_attach_registry_profile(self, csv_dataset_dir):
        dataset = load_clean_clean_directory(
            csv_dataset_dir, name="tiny", profile_name="AbtBuy"
        )
        assert dataset.profile.name == "AbtBuy"

    def test_load_dirty_directory(self, tmp_path):
        (tmp_path / "first.csv").write_text(
            "id,name\nx1,apple iphone\nx2,apple iphone 64gb\nx3,samsung tv\n",
            encoding="utf-8",
        )
        (tmp_path / "ground_truth.csv").write_text(
            "first_id,second_id\nx1,x2\n", encoding="utf-8"
        )
        dataset = load_dirty_directory(tmp_path, name="tiny-dirty")
        assert len(dataset.collection) == 3
        assert len(dataset.ground_truth) == 1
        assert not dataset.collection.is_clean

    def test_end_to_end_on_csv_data(self, csv_dataset_dir):
        """The whole pipeline must run on loaded CSV data, not just generated data."""
        from repro.blocking import BlockCleaning, prepare_blocks
        from repro.datamodel import CandidateSet

        dataset = load_clean_clean_directory(csv_dataset_dir, name="tiny")
        prepared = prepare_blocks(
            dataset.first, dataset.second, cleaning=BlockCleaning(purging_fraction=0.5)
        )
        assert dataset.ground_truth.covered_by(prepared.candidates) == 1
