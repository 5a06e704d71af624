import numpy as np
import pytest

from fairsaoml.errors import ConfigurationError, IngestionError
from fairsaoml.stream import (CsvSchema, EnvSpec, StreamSpec, generate_stream,
                              load_csv, save_csv)


def spec(seed=0, noise=0.0, bias=0.5):
    envs = (EnvSpec(n_tasks=3, dim=4, boundary=(1.0, -1.0, 0.0, 0.0),
                    group_bias=bias, noise=noise),
            EnvSpec(n_tasks=2, dim=4, boundary=(-1.0, -1.0, 0.0, 0.0)))
    return StreamSpec(environments=envs, batch_size=50, seed=seed)


class TestSpecs:
    def test_boundary_length_checked(self):
        with pytest.raises(ConfigurationError):
            EnvSpec(n_tasks=1, dim=3, boundary=(1.0, 0.0))

    def test_noise_range(self):
        with pytest.raises(ConfigurationError):
            EnvSpec(n_tasks=1, dim=1, boundary=(1.0,), noise=0.5)

    def test_mixed_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec((EnvSpec(1, 2, (1.0, 0.0)), EnvSpec(1, 3, (1.0, 0.0, 0.0))),
                       batch_size=10)

    def test_rounds_and_boundaries(self):
        stream = generate_stream(spec())
        assert [b.round for b in stream] == [1, 2, 3, 4, 5]


class TestGeneration:
    def test_deterministic(self):
        a = generate_stream(spec(seed=5))
        b = generate_stream(spec(seed=5))
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)
            assert np.array_equal(x.protected, y.protected)

    def test_seed_changes_data(self):
        a = generate_stream(spec(seed=5))
        b = generate_stream(spec(seed=6))
        assert not np.array_equal(a[0].features, b[0].features)

    def test_both_groups_and_classes(self):
        for b in generate_stream(spec(seed=1)):
            assert set(np.unique(b.protected)) == {-1, 1}
            assert set(np.unique(b.labels)) == {-1, 1}

    def test_noise_free_labels_match_boundary(self):
        s = spec(seed=2, noise=0.0, bias=0.7)
        stream = generate_stream(s)
        w = np.array(s.environments[0].boundary)
        for b in stream[:3]:
            score = b.features @ w + 0.7 * (b.protected == 1)
            assert np.array_equal(b.labels, np.where(score >= 0.0, 1, -1))

    def test_round_numbering(self):
        assert [b.round for b in generate_stream(spec())] == [1, 2, 3, 4, 5]


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        stream = generate_stream(spec(seed=3, noise=0.1))
        path = tmp_path / "data.csv"
        save_csv(stream, str(path))
        schema = CsvSchema(feature_columns=tuple(f"f{i}" for i in range(4)))
        back = load_csv(str(path), schema)
        assert len(back) == len(stream)
        for a, b in zip(stream, back):
            assert np.array_equal(a.features, b.features)  # %.17g is lossless
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.protected, b.protected)
            assert a.round == b.round

    def test_regeneration_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(generate_stream(spec(seed=9)), str(p1))
        save_csv(generate_stream(spec(seed=9)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_value_mapping(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,s,y,t\n1,2,F,yes,1\n3,4,M,no,1\n")
        schema = CsvSchema(feature_columns=("a", "b"),
                           mapping={"F": 1, "M": -1, "yes": 1, "no": -1})
        (batch,) = load_csv(str(path), schema)
        assert list(batch.protected) == [1, -1]
        assert list(batch.labels) == [1, -1]

    def test_fixed_batch_size_grouping(self, tmp_path):
        path = tmp_path / "g.csv"
        rows = "\n".join(f"{i}.0,1,{1 if i % 2 else -1}" for i in range(6))
        path.write_text("a,s,y\n" + rows + "\n")
        schema = CsvSchema(feature_columns=("a",), round_column=None, batch_size=3)
        batches = load_csv(str(path), schema)
        assert [b.size for b in batches] == [3, 3]
        assert [b.round for b in batches] == [1, 2]


class TestIngestionErrors:
    def schema(self):
        return CsvSchema(feature_columns=("a", "b"))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(IngestionError, match="header"):
            load_csv(str(p), self.schema())

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b,s,y,t\n")
        with pytest.raises(IngestionError, match="no data rows"):
            load_csv(str(p), self.schema())

    def test_missing_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,s,y,t\n1,1,1,1\n")
        with pytest.raises(IngestionError, match="'b'"):
            load_csv(str(p), self.schema())

    def test_ragged_row_named(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b,s,y,t\n1,2,1,1,1\n1,2,1,1\n")
        with pytest.raises(IngestionError, match="row 3"):
            load_csv(str(p), self.schema())

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("a,b,s,y,t\n1,zzz,1,1,1\n")
        with pytest.raises(IngestionError, match="row 2"):
            load_csv(str(p), self.schema())

    def test_unmappable_value(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("a,b,s,y,t\n1,2,7,1,1\n")
        with pytest.raises(IngestionError, match="unmappable"):
            load_csv(str(p), self.schema())
