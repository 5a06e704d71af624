import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairsaoml import stream as stream_module
from fairsaoml.errors import ConfigurationError, DegenerateInputError, IngestionError
from fairsaoml.model_core import TaskBatch
from fairsaoml.stream import (CsvSchema, EnvSpec, StreamSpec, generate_stream,
                              load_csv, save_csv)
from oracles import default_drift_spec, generate_stream_as_list, save_csv_by_value


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
        a = list(generate_stream(spec(seed=5)))
        b = list(generate_stream(spec(seed=6)))
        assert not np.array_equal(a[0].features, b[0].features)

    def test_both_groups_and_classes(self):
        for b in generate_stream(spec(seed=1)):
            assert set(np.unique(b.protected)) == {-1, 1}
            assert set(np.unique(b.labels)) == {-1, 1}

    def test_noise_free_labels_match_boundary(self):
        s = spec(seed=2, noise=0.0, bias=0.7)
        stream = list(generate_stream(s))
        w = np.array(s.environments[0].boundary)
        for b in stream[:3]:
            score = b.features @ w + 0.7 * (b.protected == 1)
            assert np.array_equal(b.labels, np.where(score >= 0.0, 1, -1))

    def test_round_numbering(self):
        assert [b.round for b in generate_stream(spec())] == [1, 2, 3, 4, 5]


# batches of 20 rows in which group +1 has probability 0.05: most first draws
# lack the group, so _draw_batch retries
RETRYING = StreamSpec((EnvSpec(n_tasks=6, dim=3, boundary=(1.0, 0.0, -1.0),
                               group_balance=0.05, noise=0.1),), batch_size=20, seed=4)


def assert_same_batches(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.round == y.round
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)
        assert np.array_equal(x.protected, y.protected)


class TestLazyStream:
    @pytest.mark.parametrize("stream_spec", [
        spec(), spec(seed=3, noise=0.1, bias=-0.4), default_drift_spec(3, seed=2, batch_size=60),
        RETRYING], ids=["plain", "noisy", "drift", "retrying"])
    def test_same_draws_as_a_list(self, stream_spec):
        assert_same_batches(generate_stream(stream_spec), generate_stream_as_list(stream_spec))

    def test_retrying_spec_retries(self, monkeypatch):
        monkeypatch.setattr(stream_module, "MAX_BATCH_RETRIES", 1)
        with pytest.raises(DegenerateInputError):
            generate_stream_as_list(RETRYING)

    def test_passes_repeat_and_len_draws_nothing(self, monkeypatch):
        stream = generate_stream(RETRYING)
        first, second = list(stream), list(stream)
        assert_same_batches(first, second)
        monkeypatch.setattr(stream_module, "_draw_batch", None)  # any draw would fail
        assert len(stream) == 6 and len(generate_stream(spec())) == 5

    def test_a_pass_holds_one_batch_at_a_time(self):
        env = EnvSpec(n_tasks=100, dim=10, boundary=(1.0, -1.0) + (0.0,) * 8)
        batch_bytes = 0
        list(generate_stream(spec()))  # what numpy sets up on a first draw is not a batch
        tracemalloc.start()
        try:
            for batch in generate_stream(StreamSpec((env,), batch_size=2000, seed=0)):
                batch_bytes = (batch.features.nbytes + batch.labels.nbytes
                               + batch.protected.nbytes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch_bytes and peak < 4 * batch_bytes


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        stream = list(generate_stream(spec(seed=3, noise=0.1)))
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
        save_csv(list(generate_stream(spec(seed=9))), str(p1))
        save_csv(list(generate_stream(spec(seed=9))), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_bytes_as_formatting_value_by_value(self, tmp_path):
        stream = list(generate_stream(spec(seed=4, noise=0.1)))
        # values whose shortest %.17g forms differ in length and exponent style
        x = np.array([[0.0, -0.0, 1e-300, 123456789.125], [1 / 3, -2.5e17, 5e-324, 1.0]])
        stream.append(TaskBatch(x, [1, -1], [-1, 1], round=6))
        save_csv(stream, str(tmp_path / "a.csv"))
        save_csv_by_value(stream, str(tmp_path / "b.csv"))
        data = (tmp_path / "a.csv").read_bytes()
        assert data == (tmp_path / "b.csv").read_bytes()
        assert data.count(b"\r\n") == 1 + sum(b.size for b in stream)

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

    @pytest.mark.parametrize("rounds, row", [("1,2,1", 4), ("1,1,2,1", 5), ("2,1,1,2", 5)])
    def test_round_value_reappearing_is_named(self, tmp_path, rounds, row):
        p = tmp_path / "t.csv"
        p.write_text("a,b,s,y,t\n" + "".join(f"1,2,1,1,{t}\n" for t in rounds.split(",")))
        with pytest.raises(IngestionError, match=f"row {row}: round"):
            load_csv(str(p), self.schema())

    def test_contiguous_rounds_in_any_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,s,y,t\n" + "".join(f"1,2,1,1,{t}\n" for t in (3, 3, 1, 2, 2)))
        assert [b.size for b in load_csv(str(p), self.schema())] == [2, 1, 2]

    def test_unmappable_value(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("a,b,s,y,t\n1,2,7,1,1\n")
        with pytest.raises(IngestionError, match="unmappable"):
            load_csv(str(p), self.schema())

    @pytest.mark.parametrize("read", [load_csv, stream_module._load_csv_rows])
    def test_empty_mapping_maps_nothing(self, tmp_path, read):
        # {} is a mapping of its own, not a request for the default one
        p = tmp_path / "u.csv"
        p.write_text("a,b,s,y,t\n1,2,1,-1,1\n")
        with pytest.raises(IngestionError, match="row 2: unmappable value '1' in column s"):
            read(str(p), CsvSchema(feature_columns=("a", "b"), mapping={}))

    def test_no_feature_columns(self):
        with pytest.raises(ConfigurationError, match="at least one feature column"):
            CsvSchema(feature_columns=())


def outcome(read, path, schema):
    """`read`'s batches as comparable tuples, or its exception's type and message."""
    try:
        batches = read(str(path), schema)
    except Exception as e:  # noqa: BLE001 (any exception must match the row loop's)
        return type(e), str(e)
    return [(b.round, type(b.round)) + tuple((a.dtype, a.shape, a.tobytes()) for a in
                                            (b.features, b.labels, b.protected))
            for b in batches]


def assert_as_row_loop(path, schema):
    """load_csv returns the row loop's batches, or raises its exception word for word."""
    assert outcome(load_csv, path, schema) == outcome(stream_module._load_csv_rows, path, schema)


SCHEMAS = {
    "round": CsvSchema(feature_columns=("a", "b")),
    "no-round": CsvSchema(feature_columns=("a", "b"), round_column=None, batch_size=2),
    "mapped": CsvSchema(feature_columns=("b",), mapping={"F": 1, "M": -1, "1": 1, "0": -1}),
    "maps-to-0": CsvSchema(feature_columns=("a", "b"), mapping={"1": 1, "-1": 0}),
}


def rows(*lines, end="\n", final=True):
    return end.join(lines) + (end if final else "")


# (file text, schema); every valid row has s and y in {-1, 1} and t = 1 or 2
EDGE_CASES = {
    "plain": (rows("a,b,s,y,t", "1,2,1,-1,1", "3,4,-1,1,1", "5,6,1,1,2"), "round"),
    "plain-no-round": (rows("a,b,s,y", "1,2,1,-1", "3,4,-1,1", "5,6,1,1"), "no-round"),
    "whitespace-feature": (rows("a,b,s,y,t", " 1 ,2,1,-1,1"), "round"),
    "whitespace-label": (rows("a,b,s,y,t", "1,2, 1,-1,1"), "round"),
    "whitespace-round": (rows("a,b,s,y,t", "1,2,1,-1, 1 "), "round"),
    "plus-one": (rows("a,b,s,y,t", "+1,2,+1,-1,+1"), "round"),
    "float-label": (rows("a,b,s,y,t", "1,2,1.0,-1,1"), "round"),
    "float-round": (rows("a,b,s,y,t", "1,2,1,-1,1.0"), "round"),
    "leading-zero": (rows("a,b,s,y,t", "01,2,01,-1,01"), "round"),
    "leading-zero-round": (rows("a,b,s,y,t", "1,2,1,-1,01", "1,2,1,-1,1"), "round"),
    "quoted-feature": (rows("a,b,s,y,t", '"1",2,1,-1,1'), "round"),
    "quoted-label": (rows("a,b,s,y,t", '1,2,"1",-1,1'), "round"),
    "quoted-comma": (rows("a,b,s,y,t,c,d", '1,2,1,-1,1,"x,y"'), "round"),
    "quoted-line-end": (rows("a,b,s,y,t,c", '1,2,1,-1,1,"x', '1,2,1,-1,1,y"'), "round"),
    "quoted-header": (rows('"a",b,s,y,t', "1,2,1,-1,1"), "round"),
    "underscore-feature": (rows("a,b,s,y,t", "1_0,2,1,-1,1"), "round"),
    "underscore-round": (rows("a,b,s,y,t", "1,2,1,-1,1_0"), "round"),
    "nan": (rows("a,b,s,y,t", "nan,2,1,-1,1"), "round"),
    # numpy strips \x1c-\x1f around a number as whitespace; float and int reject them
    "separator-char-feature": (rows("a,b,s,y,t", "1\x1c,2,1,-1,1"), "round"),
    "separator-char-round": (rows("a,b,s,y,t", "1,2,1,-1,\x1f1"), "round"),
    "separator-char-label": (rows("a,b,s,y,t", "1,2,1\x1d,-1,1"), "round"),
    "overflowing-float": (rows("a,b,s,y,t", "1e400,2,1,-1,1"), "round"),
    "short-row": (rows("a,b,s,y,t", "1,2,1,-1,1", "1,2,1,-1"), "round"),
    "long-row": (rows("a,b,s,y,t", "1,2,1,-1,1", "1,2,1,-1,1,1"), "round"),
    "whitespace-line": (rows("a,b,s,y,t", "1,2,1,-1,1", " ", "1,2,1,-1,1"), "round"),
    "blank-line": (rows("a,b,s,y,t", "1,2,1,-1,1", "", "1,2,1,-1,1"), "round"),
    "blank-last-line": (rows("a,b,s,y,t", "1,2,1,-1,1", ""), "round"),
    "blank-line-no-final-newline": (rows("a,b,s,y,t", "1,2,1,-1,1", "", "1,2,1,-1,2",
                                         final=False), "round"),
    "blank-first-line": (rows("", "a,b,s,y,t", "1,2,1,-1,1"), "round"),
    "blank-line-no-round": (rows("a,b,s,y", "1,2,1,-1", "", "1,2,1,-1"), "no-round"),
    "comment-line": (rows("a,b,s,y,t", "1,2,1,-1,1", "#,2,1,-1,1"), "round"),
    "comment-header": (rows("# a,b,s,y,t", "1,2,1,-1,1"), "round"),
    "crlf": (rows("a,b,s,y,t", "1,2,1,-1,1", "3,4,-1,1,2", end="\r\n"), "round"),
    "cr-only": (rows("a,b,s,y,t", "1,2,1,-1,1", "3,4,-1,1,2", end="\r"), "round"),
    "cr-only-no-final": (rows("a,b,s,y,t", "1,2,1,-1,1", "3,4,-1,1,2", end="\r",
                              final=False), "round"),
    "cr-cr-lf": (rows("a,b,s,y,t", "1,2,1,-1,1", "3,4,-1,1,2", end="\r\r\n"), "round"),
    "mixed-ends": ("a,b,s,y,t\r\n1,2,1,-1,1\r3,4,-1,1,2\n", "round"),
    "no-final-newline": (rows("a,b,s,y,t", "1,2,1,-1,1", final=False), "round"),
    "header-only": (rows("a,b,s,y,t"), "round"),
    "header-only-no-newline": ("a,b,s,y,t", "round"),
    "header-only-no-round": (rows("a,b,s,y"), "no-round"),
    "empty": ("", "round"),
    "missing-column": (rows("a,s,y,t", "1,1,-1,1"), "round"),
    "extra-numeric-column": (rows("a,b,c,s,y,t", "1,2,7,1,-1,1"), "round"),
    "extra-text-column": (rows("a,b,name,s,y,t", "1,2,zz top,1,-1,1"), "round"),
    "extra-empty-column": (rows("a,b,s,y,t,", "1,2,1,-1,1,"), "round"),
    "duplicate-column": (rows("a,b,s,y,t,a", "1,2,1,-1,1,9"), "round"),
    "feature-is-label": (rows("a,b,s,y,t", "1,2,1,-1,1"),
                         CsvSchema(feature_columns=("a", "s"))),
    "feature-is-mapped-label": (rows("a,b,s,y,t", "1,2,F,1,1"),
                                CsvSchema(feature_columns=("a", "s"), mapping={"F": 1, "1": 1})),
    "round-is-label": (rows("a,b,s,y", "1,2,01,1"),
                       CsvSchema(feature_columns=("a", "b"), round_column="s")),
    "round-beyond-int64": (rows("a,b,s,y,t", "1,2,1,-1,99999999999999999999",
                                "1,2,1,-1,-99999999999999999999"), "round"),
    "batch-size-beyond-int64": (rows("a,b,s,y", "1,2,1,-1", "3,4,-1,1"),
                                CsvSchema(feature_columns=("a", "b"), round_column=None,
                                          batch_size=10 ** 30)),
    "round-reappears": (rows("a,b,s,y,t", "1,2,1,-1,1", "1,2,1,-1,2", "1,2,1,-1,1"), "round"),
    "non-integer-round": (rows("a,b,s,y,t", "1,2,1,-1,x"), "round"),
    "unmappable": (rows("a,b,s,y,t", "1,2,1,-1,1", "1,2,2,-1,1"), "round"),
    "long-label": (rows("a,b,s,y,t", "1,2,1111,-1,1"), "round"),
    "nul-label": ("a,b,s,y,t\n1,2,1\x00,-1,1\n", "round"),
    "byte-order-mark": ("\ufeffa,b,s,y,t\n1,2,1,-1,1\n", "round"),
    "custom-mapping": (rows("a,b,s,y,t", "1,2,F,1,1", "3,4,M,0,1"), "mapped"),
    "custom-mapping-unmapped": (rows("a,b,s,y,t", "1,2,F,-1,1"), "mapped"),
    "mapping-to-0": (rows("a,b,s,y,t", "1,2,1,1,1", "1,2,-1,1,1"), "maps-to-0"),
    "empty-mapping": (rows("a,b,s,y,t", "1,2,1,-1,1"),
                      CsvSchema(feature_columns=("a", "b"), mapping={})),
    "field-beyond-csv-limit": (rows("a,b,s,y,t,c",
                                    "1,2,1,-1,1," + "x" * (csv.field_size_limit() + 1)), "round"),
}


def edge_case(tmp_path, case):
    """The file of EDGE_CASES[case], and its schema."""
    text, schema = EDGE_CASES[case]
    path = tmp_path / "e.csv"
    path.write_bytes(text.encode("utf-8"))
    return path, SCHEMAS[schema] if isinstance(schema, str) else schema


def row_loop_not_expected(*args):
    raise AssertionError("the row loop ran")


class TestFastPathAgreesWithRowLoop:
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_case(self, tmp_path, case):
        assert_as_row_loop(*edge_case(tmp_path, case))

    @pytest.mark.parametrize("case", ["plain", "plain-no-round", "whitespace-feature", "crlf",
                                      "cr-only", "no-final-newline", "extra-text-column",
                                      "custom-mapping"])
    def test_fast_path_taken_on_edge_case(self, tmp_path, monkeypatch, case):
        path, schema = edge_case(tmp_path, case)
        monkeypatch.setattr(stream_module, "_load_csv_rows", row_loop_not_expected)
        assert load_csv(str(path), schema)

    @pytest.mark.parametrize("without_round", [{}, {"round_column": None, "batch_size": 50}],
                             ids=["round", "no-round"])
    def test_fast_path_taken(self, tmp_path, monkeypatch, without_round):
        """A gen-data CSV is parsed without the row loop, with or without its round column."""
        generated = list(generate_stream(spec(seed=3, noise=0.1)))
        path = tmp_path / "g.csv"
        save_csv(generated, str(path))
        monkeypatch.setattr(stream_module, "_load_csv_rows", row_loop_not_expected)
        schema = CsvSchema(feature_columns=tuple(f"f{i}" for i in range(4)), **without_round)
        loaded = load_csv(str(path), schema)
        assert [b.round for b in loaded] == [b.round for b in generated]
        for a, b in zip(generated, loaded):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.protected, b.protected)

    @pytest.mark.parametrize("text, message", [
        ("", "header row required"),
        ("a,b,s,y,t\n", "no data rows"),
        ("a,b,s,y,t\n1,2,1,-1,1\n\n1,2,1,-1,1\n", "row 3: ragged row"),
        ("a,b,s,y,t\n1,2,1,-1,1\n1,2\n", "row 3: ragged row"),
    ])
    def test_no_warnings(self, tmp_path, text, message):
        path = tmp_path / "w.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestionError, match=message):
                load_csv(str(path), SCHEMAS["round"])


NOISE = ["1.0", "01", " 1", "1 ", '"1"', '"1,2"', "1_0", "nan", "1e400",
         "99999999999999999999", "#", "", "x", "2", "1\x1e"]
FEATURES = ["1", "-2.25", "0.5", "+1", " 3 ", "1e-3", "1e300"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def csv_cases(draw):
    """A schema's name and a file for it: a header of a, b, s, y and t in some
    order, then rows. A clean file holds only values the schema reads and
    contiguous rounds; a noisy one also draws from NOISE, and may hold blank,
    short and long lines and rounds that reappear. Line ends are mixed and
    the final one may be missing."""
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    labels = sorted(SCHEMAS[name].table)
    noise = draw(st.sampled_from([0.0, 0.1]))
    header = draw(st.permutations(["a", "b", "s", "y", "t"]))
    valid = {"a": FEATURES, "b": FEATURES, "s": labels, "y": labels}
    lines, t = [",".join(header)], 1
    for _ in range(draw(st.integers(0, 8))):
        t = t + draw(st.sampled_from([0, 0, 1] + [-1] * (noise > 0)))
        valid["t"] = [str(t), f"+{t}", f"0{t}", f" {t}"]
        fields = [draw(st.sampled_from(NOISE if draw(st.floats(0, 1)) < noise else valid[c]))
                  for c in header]
        if noise and draw(st.integers(0, 9)) == 0:
            fields = draw(st.sampled_from([[], fields[:-1], fields + ["1"]]))
        lines.append(",".join(fields))
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    return name, text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_cases())
def test_generated_files_read_as_by_the_row_loop(tmp_path, case):
    schema, text = case
    path = tmp_path / "h.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_as_row_loop(path, SCHEMAS[schema])
