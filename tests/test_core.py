"""Data model, grid and CSV ingestion tests."""

import csv
import io
import re
from array import array
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fofr import core
from fofr.core import (
    CSV_HEADER,
    PREDICTIONS_HEADER,
    DatasetSchema,
    FunctionalDataset,
    Interval,
    ObservationSeries,
    load_dataset,
    load_schema,
    make_grid,
    write_dataset,
    write_schema,
)
from fofr.errors import (
    BadGridSize,
    DomainViolation,
    DuplicateTimestamp,
    FofrError,
    InsufficientCoverage,
    MalformedRow,
    MissingChannel,
)
from fofr.pipeline import PipelineConfig, train_pipeline
from fofr.synthgen import dataset_schema, generate, preset_scenario


def small_dataset(n=12, seed=0):
    sc = replace(preset_scenario("linear"), n_subjects=n, seed=seed)
    data, _ = generate(sc)
    return data, dataset_schema(sc)


class TestInterval:
    def test_length_and_contains(self):
        iv = Interval(0.0, 2.0)
        assert iv.length == 2.0
        assert iv.contains([0.0, 1.0, 2.0])
        assert not iv.contains([2.0001])

    def test_rejects_degenerate(self):
        with pytest.raises(DomainViolation):
            Interval(1.0, 1.0)
        with pytest.raises(DomainViolation):
            Interval(0.0, np.inf)


class TestObservationSeries:
    def test_rejects_duplicate_times(self):
        with pytest.raises(DuplicateTimestamp):
            ObservationSeries([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_rejects_unsorted(self):
        with pytest.raises(DuplicateTimestamp):
            ObservationSeries([1.0, 0.0], [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(MalformedRow):
            ObservationSeries([0.0, np.nan], [1.0, 2.0])
        with pytest.raises(MalformedRow):
            ObservationSeries([0.0, 1.0], [1.0, np.inf])

    def test_rejects_length_mismatch(self):
        with pytest.raises(MalformedRow):
            ObservationSeries([0.0, 1.0], [1.0])


class TestMakeGrid:
    @given(st.integers(min_value=2, max_value=400),
           st.floats(min_value=-50, max_value=50),
           st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_weights_sum_to_length(self, g, lo, width):
        grid = make_grid(Interval(lo, lo + width), g)
        assert np.isclose(np.sum(grid.quad_weights), width, rtol=1e-12)
        assert grid.size == g
        assert np.all(np.diff(grid.points) > 0)

    def test_trapezoid_integrates_linear_exactly(self):
        grid = make_grid(Interval(0.0, 1.0), 11)
        f = 3.0 * grid.points + 2.0
        assert np.isclose(np.dot(grid.quad_weights, f), 3.5, rtol=1e-14)

    def test_rejects_small_grid(self):
        with pytest.raises(BadGridSize):
            make_grid(Interval(0, 1), 1)


class TestSchema:
    def test_round_trip(self, tmp_path):
        schema = DatasetSchema(("x1",), ("y1",), Interval(0, 1), Interval(0, 2), 51)
        path = tmp_path / "schema.json"
        write_schema(schema, path)
        assert load_schema(path) == schema

    def test_rejects_overlapping_roles(self):
        with pytest.raises(MalformedRow):
            DatasetSchema(("x1", "z"), ("z",), Interval(0, 1), Interval(0, 1))

    def test_rejects_empty_side(self):
        with pytest.raises(MissingChannel):
            DatasetSchema((), ("y1",), Interval(0, 1), Interval(0, 1))

    def test_rejects_string_channel_list(self):
        d = {"covariates": "x1", "responses": ["y1"],
             "covariate_domain": [0, 1], "response_domain": [0, 1]}
        with pytest.raises(MalformedRow, match="covariates must be a list"):
            DatasetSchema.from_dict(d)
        with pytest.raises(MalformedRow, match="responses must be a list"):
            DatasetSchema.from_dict(dict(d, covariates=["x1"], responses="y1"))

    @pytest.mark.parametrize("key, value, message", [
        ("grid_size", "7", "grid_size must be an integer, got str"),
        ("grid_size", 40.9, "grid_size must be an integer, got float"),
        ("grid_size", True, "grid_size must be an integer, got bool"),
        ("grid_sise", 51, "unknown key 'grid_sise'"),
        ("covariate_domain", ["0", 1], r"covariate_domain must be a list of two numbers"),
        ("covariate_domain", [0, True], r"covariate_domain must be a list of two numbers"),
        ("response_domain", [0, 1, 2], r"response_domain must be a list of two numbers"),
    ])
    def test_rejects_values_it_used_to_coerce(self, key, value, message):
        d = {"covariates": ["x1"], "responses": ["y1"],
             "covariate_domain": [0, 1], "response_domain": [0, 1]}
        with pytest.raises(MalformedRow, match=message):
            DatasetSchema.from_dict({**d, key: value})


    @pytest.mark.parametrize("bad_id", [1, 2.5, None, float("nan"), ["x1"]])
    def test_rejects_non_string_variable_id(self, bad_id):
        d = {"covariates": ["x1", bad_id], "responses": ["y1"],
             "covariate_domain": [0, 1], "response_domain": [0, 1]}
        with pytest.raises(MalformedRow, match=r"covariates: variable id .* is not a string"):
            DatasetSchema.from_dict(d)
        with pytest.raises(MalformedRow, match=r"responses: variable id .* is not a string"):
            DatasetSchema.from_dict(dict(d, covariates=["x1"], responses=[bad_id]))


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        data, schema = small_dataset()
        path = tmp_path / "data.csv"
        write_dataset(data, path)
        loaded = load_dataset(path, schema)
        assert loaded.subject_ids == data.subject_ids
        for i in range(data.n_subjects):
            for a, b in zip(loaded.covariates[i], data.covariates[i]):
                np.testing.assert_array_equal(a.times, b.times)
                np.testing.assert_array_equal(a.values, b.values)
            for a, b in zip(loaded.responses[i], data.responses[i]):
                np.testing.assert_array_equal(a.times, b.times)
                np.testing.assert_array_equal(a.values, b.values)

    def test_row_order_is_irrelevant(self, tmp_path):
        data, schema = small_dataset()
        path = tmp_path / "data.csv"
        write_dataset(data, path)
        lines = path.read_text().splitlines()
        shuffled = [lines[0]] + list(reversed(lines[1:]))
        path2 = tmp_path / "shuffled.csv"
        path2.write_text("\n".join(shuffled) + "\n")
        a = load_dataset(path, schema)
        b = load_dataset(path2, schema)
        for i in range(a.n_subjects):
            for s, t in zip(a.covariates[i], b.covariates[i]):
                np.testing.assert_array_equal(s.values, t.values)

    def test_prediction_only_file_has_no_responses(self, tmp_path):
        data, schema = small_dataset()
        path = tmp_path / "data.csv"
        write_dataset(data, path)
        kept = [line for line in path.read_text().splitlines()
                if ",response," not in line]
        path2 = tmp_path / "cov_only.csv"
        path2.write_text("\n".join(kept) + "\n")
        loaded = load_dataset(path2, schema)
        assert loaded.responses is None


class TestCsvRejection:
    @pytest.fixture
    def written(self, tmp_path):
        data, schema = small_dataset()
        path = tmp_path / "data.csv"
        write_dataset(data, path)
        return path, schema, tmp_path

    def _mutate(self, path, tmp_path, fn):
        lines = path.read_text().splitlines()
        out = tmp_path / "bad.csv"
        out.write_text("\n".join(fn(lines)) + "\n")
        return out

    @staticmethod
    def _last_line(path):
        return f":{len(path.read_text().splitlines())}:"

    def test_bad_header(self, written):
        path, schema, tmp = written
        bad = self._mutate(path, tmp, lambda ls: ["a,b,c,d,e"] + ls[1:])
        with pytest.raises(MalformedRow):
            load_dataset(bad, schema)

    def test_wrong_field_count(self, written):
        path, schema, tmp = written
        bad = self._mutate(path, tmp, lambda ls: ls[:5] + ["s0000,x1,covariate,0.5"] + ls[5:])
        with pytest.raises(MalformedRow):
            load_dataset(bad, schema)

    def test_unreadable_csv(self, written):
        path, schema, tmp = written
        # an opened quote that never closes runs past the csv module's field limit
        unclosed = self._mutate(path, tmp, lambda ls: ls[:5] + ['s0000,x1,covariate,"0.5,1']
                                + ls[5:] * (140_000 // sum(map(len, ls)) + 1))
        with pytest.raises(MalformedRow, match="unreadable CSV"):
            load_dataset(unclosed, schema)
        latin1 = tmp / "latin1.csv"
        latin1.write_bytes(path.read_bytes().replace(b"s0000", b"s\xe9"))
        with pytest.raises(MalformedRow, match="unreadable CSV"):
            load_dataset(latin1, schema)

    def test_undeclared_variable(self, written):
        path, schema, tmp = written
        bad = self._mutate(path, tmp,
                           lambda ls: ls + ["s0000,mystery,covariate,0.5,1.0"])
        with pytest.raises(MalformedRow, match=self._last_line(bad)):
            load_dataset(bad, schema)

    def test_role_mismatch(self, written):
        path, schema, tmp = written
        bad = self._mutate(path, tmp, lambda ls: ls + ["s0000,x1,response,0.5,1.0"])
        with pytest.raises(MalformedRow, match=self._last_line(bad)):
            load_dataset(bad, schema)

    def test_non_numeric_value(self, written):
        path, schema, tmp = written
        bad = self._mutate(path, tmp, lambda ls: ls + ["s0000,x1,covariate,0.5,abc"])
        with pytest.raises(MalformedRow, match=self._last_line(bad)):
            load_dataset(bad, schema)

    def test_non_finite_value(self, written):
        path, schema, tmp = written
        bad = self._mutate(path, tmp, lambda ls: ls + ["s0000,x1,covariate,0.5,nan"])
        with pytest.raises(MalformedRow, match=self._last_line(bad) + " non-finite"):
            load_dataset(bad, schema)

    def test_out_of_domain_time(self, written):
        path, schema, tmp = written
        bad = self._mutate(path, tmp, lambda ls: ls + ["s0000,x1,covariate,7.5,1.0"])
        with pytest.raises(DomainViolation, match=self._last_line(bad)):
            load_dataset(bad, schema)

    def test_duplicate_timestamp(self, written):
        path, schema, tmp = written
        dup = [line for line in path.read_text().splitlines() if "s0000,x1" in line][0]
        bad = self._mutate(path, tmp, lambda ls: ls + [dup])
        with pytest.raises(DuplicateTimestamp, match=self._last_line(bad)):
            load_dataset(bad, schema)

    def test_missing_channel(self, written):
        path, schema, tmp = written
        bad = self._mutate(path, tmp,
                           lambda ls: [l for l in ls if not l.startswith("s0001,x2")])
        first = next(n for n, l in enumerate(bad.read_text().splitlines(), start=1)
                     if l.startswith("s0001,"))
        with pytest.raises(MissingChannel, match=f":{first}: subject 's0001' lacks .*'x2'"):
            load_dataset(bad, schema)

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_truncated_row_always_rejected(self, tmp_path_factory, cut):
        data, schema = small_dataset()
        tmp = tmp_path_factory.mktemp("fuzz")
        path = tmp / "data.csv"
        write_dataset(data, path)
        lines = path.read_text().splitlines()
        row = lines[1 + cut % (len(lines) - 1)]
        lines.append(row[: len(row) // 2].rstrip(","))
        bad = tmp / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises((MalformedRow, DuplicateTimestamp, DomainViolation)):
            load_dataset(bad, schema)


def reference_read_columns(path, headers=(CSV_HEADER,)):
    """The row-at-a-time reader that ``core._read_columns`` replaced, kept as
    its oracle: same outputs, errors and messages."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header not in headers:
                expected = " or ".join(repr(",".join(h)) for h in headers)
                raise MalformedRow(f"{path}: expected header {expected}, got {header!r}")
            seen = [{} for _ in header[:-2]]
            codes = [array("i") for _ in header[:-2]]
            times, values = array("d"), array("d")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise MalformedRow(f"{path}:{lineno}: expected {len(header)} fields, "
                                       f"got {len(row)}")
                try:
                    times.append(float(row[-2]))
                    values.append(float(row[-1]))
                except ValueError as exc:
                    raise MalformedRow(f"{path}:{lineno}: non-numeric time/value") from exc
                for first, column, name in zip(seen, codes, row):
                    column.append(first.setdefault(name, len(first)))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise MalformedRow(f"{path}: unreadable CSV ({exc})") from exc

    if not times:
        raise MalformedRow(f"{path}: no data rows")
    times, values = np.frombuffer(times), np.frombuffer(values)
    bad = ~(np.isfinite(times) & np.isfinite(values))
    if bad.any():
        raise MalformedRow(f"{path}:{np.argmax(bad) + 2}: non-finite time/value")
    ids = [(list(first), np.frombuffer(column, dtype=np.int32))
           for first, column in zip(seen, codes)]
    return ids, times, values


def read_outcome(read, path):
    """What ``read`` makes of ``path`` in a comparable form: the id names and
    codes and the bytes of the float columns, or the error's class and text."""
    try:
        ids, times, values = read(path, (CSV_HEADER, PREDICTIONS_HEADER))
    except FofrError as exc:
        return type(exc), str(exc)
    return ([(names, codes.dtype.str, codes.tolist()) for names, codes in ids],
            times.tobytes(), values.tobytes())


#: ids that need quoting (comma, quote, line ends), spaces, non-ASCII and
#: tokens that other columns use
IDS = ["s0000", "s0001", "x1", "y2", "covariate", "response", "a,b", 'q"t', "two\nlines",
       "cr\rid", " lead", "tail ", "é", "Ω,ü", "", "1.5"]
#: text spliced into a written file: quotes, line ends, NULs, separators, numbers
SPLICES = ['"', "\r", "\0", "\n", "\r\n", ",", "\n\n", "nan", "1e400", "x", " "]


@st.composite
def long_csv_texts(draw):
    """A long CSV written by ``csv.writer`` (either header, LF or CRLF line
    ends, with or without a final line end), then edited character-wise
    after the header."""
    header = draw(st.sampled_from([CSV_HEADER, PREDICTIONS_HEADER]))
    field_id = st.sampled_from(IDS) | st.text(max_size=3)
    number = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
              | st.sampled_from(["-0.0", "1e-320", " 2 ", "1_0", "1e400"]))
    row = st.tuples(*[field_id] * (len(header) - 2), number, number).map(list)
    rows = draw(st.lists(row, max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=end).writerows([header] + rows)
    text = buf.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix(end)
    body = len(",".join(header)) + len(end)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(min(body, len(text)), len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from(SPLICES) | st.text(max_size=2)) + text[i:]
        else:
            text = text[:i] + text[i + draw(st.integers(1, 40)):]
    return text


#: a chunk of a few characters holds one line, so every line starts a chunk
CHUNK_SIZES = [1, 3, 40, 1 << 16]


class TestColumnReader:
    """``core._read_columns`` against the row-at-a-time reference reader."""

    @staticmethod
    def _write(tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return path

    @given(text=long_csv_texts(), chunk=st.sampled_from(CHUNK_SIZES))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_reader(self, tmp_path_factory, text, chunk):
        path = self._write(tmp_path_factory.mktemp("diff"), text)
        with mock.patch.object(core, "_CHUNK_CHARS", chunk):
            assert read_outcome(core._read_columns, path) == \
                read_outcome(reference_read_columns, path)

    ROW = "s0000,x1,covariate,0.5,1.25\n"
    HEAD = ",".join(CSV_HEADER) + "\n"

    @pytest.mark.parametrize("text, error", [
        pytest.param(HEAD + '"a,b",x1,covariate,0.5,1.25\n', None, id="quoted-comma"),
        pytest.param(HEAD + '"q""t",x1,covariate,0.5,1.25\n', None, id="quoted-quote"),
        pytest.param(HEAD + ROW + '"two\nlines",x1,covariate,0.5,1.25\n' + ROW, None,
                     id="quoted-newline"),
        pytest.param((HEAD + ROW * 3).replace("\n", "\r\n"), None, id="crlf"),
        pytest.param((HEAD + ROW * 3).replace("\n", "\r"), None, id="cr"),
        pytest.param(HEAD + ROW + "\n" + ROW, "expected 5 fields, got 0", id="blank-line"),
        pytest.param(HEAD + ROW * 2 + ROW[:-1], None, id="no-final-newline"),
        pytest.param(HEAD + ROW + "s0\0,x1,covariate,0.5,1.25\n", None, id="nul"),
        pytest.param(HEAD + ROW + 's0000,x1,covariate,"0.5,1\n' + ROW * 6000,
                     "field larger than", id="unclosed-quote"),
        pytest.param(HEAD + ROW + "s" * 140_000 + ",x1,covariate,0.5,1.25\n",
                     "field larger than", id="long-unquoted-field"),
        pytest.param(HEAD + ROW + "s0000,x1,covariate,0.5,abc\n" + '"a,b",x1\n',
                     ":3: non-numeric", id="bad-number-before-quote"),
        pytest.param(HEAD + ROW + "s0000,x1\n" + ROW + "s0\0\n",
                     ":3: expected 5 fields, got 2", id="bad-count-before-nul"),
        pytest.param(HEAD + '"q",x1,covariate,0.5,1\n' + "s0000,x1\n"
                     + 's0000,x1,covariate,"0.5,1\n' + ROW * 6000,
                     ":3: expected 5 fields, got 2", id="bad-count-before-unclosed-quote"),
        pytest.param(HEAD + ROW + "s0000,x1,covariate,nan,1\n" + "s0000,x1\n",
                     ":4: expected 5 fields", id="bad-count-after-nan"),
        pytest.param(HEAD, "no data rows", id="header-only"),
        pytest.param("", "expected header", id="empty"),
    ])
    def test_dialect_cases(self, tmp_path, text, error):
        path = self._write(tmp_path, text)
        outcome = read_outcome(core._read_columns, path)
        assert outcome == read_outcome(reference_read_columns, path)
        if error is None:
            assert len(outcome) == 3, outcome
        else:
            assert outcome[0] is MalformedRow and error in outcome[1]

    def test_chunk_boundaries_leave_output_unchanged(self, tmp_path, monkeypatch):
        rows = [f"s{i:04d},x{i % 3},covariate,{i / 7!r},{i * 1.5!r}\n" for i in range(40)]
        rows[23] = '"subject\n,with ""two"" lines",x1,covariate,0.25,-1.0\n'
        path = self._write(tmp_path, self.HEAD + "".join(rows).removesuffix("\n"))
        expected = read_outcome(reference_read_columns, path)
        assert "subject\n,with \"two\" lines" in expected[0][0][0]
        assert len(expected[1]) == 40 * 8  # the last line, without "\n", is read
        # the last size ends the first chunk inside the quoted id
        for chunk in CHUNK_SIZES + [len("".join(rows[:23])) + 1]:
            monkeypatch.setattr(core, "_CHUNK_CHARS", chunk)
            assert read_outcome(core._read_columns, path) == expected, chunk

    def test_bad_line_found_in_any_chunk(self, tmp_path, monkeypatch):
        rows = [self.ROW] * 30
        rows[17] = "s0000,x1,covariate,0.5\n"
        path = self._write(tmp_path, self.HEAD + "".join(rows))
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(core, "_CHUNK_CHARS", chunk)
            with pytest.raises(MalformedRow, match=":19: expected 5 fields, got 4"):
                core._read_columns(path)


def reference_write_dataset(dataset, path):
    """The ``csv.writer`` row loop that ``write_dataset`` replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for i, sid in enumerate(dataset.subject_ids):
            sides = [(dataset.covariate_names, dataset.covariates[i], "covariate")]
            if dataset.responses is not None:
                sides.append((dataset.response_names, dataset.responses[i], "response"))
            for names, row, role in sides:
                for name, series in zip(names, row):
                    for t, v in zip(series.times, series.values):
                        writer.writerow([sid, name, role, repr(float(t)), repr(float(v))])


def per_block_write_long_csv(path, header, blocks):
    """``core._write_long_csv`` with every block's times formatted anew by ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for ids, times, values in blocks:
            record = io.StringIO()
            csv.writer(record, lineterminator="\r\n").writerow(ids)
            prefix = record.getvalue()[:-2]
            fh.write("".join(f"{prefix},{t!r},{v!r}\n"
                             for t, v in zip(times.tolist(), values.tolist())))


def _time_blocks(kind):
    """Time arrays of consecutive blocks for the writer's reuse of time strings."""
    rng = np.random.default_rng(5)
    grid, other = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 9) ** 2
    if kind == "equal copies":
        return [grid.copy() for _ in range(4)]
    if kind == "alternating grids":
        return [grid, other, grid, other, grid]
    if kind == "signed zeros":  # equal values whose reprs differ
        zero, negative = np.array([0.0, 0.25, 0.5]), np.array([-0.0, 0.25, 0.5])
        return [zero, negative, negative.copy(), zero, zero.copy()]
    if kind == "irregular":
        return [np.sort(rng.uniform(0.0, 1.0, rng.integers(2, 12))) for _ in range(6)]
    raise ValueError(kind)


class TestWriter:
    @pytest.mark.parametrize("kind", ["equal copies", "alternating grids", "signed zeros",
                                      "irregular"])
    def test_reused_time_strings_match_per_block_writer(self, tmp_path, kind):
        times = _time_blocks(kind)
        rng = np.random.default_rng(len(kind))
        blocks = [((f"s{i}", "y,1"), t, rng.standard_normal(len(t)))
                  for i, t in enumerate(times)]
        path, reference = tmp_path / "data.csv", tmp_path / "reference.csv"
        core._write_long_csv(path, PREDICTIONS_HEADER, blocks)
        per_block_write_long_csv(reference, PREDICTIONS_HEADER, blocks)
        assert path.read_bytes() == reference.read_bytes()
        if kind == "signed zeros":
            assert b"s1,\"y,1\",-0.0," in path.read_bytes()

    def test_times_changed_in_place_between_blocks_are_formatted_again(self, tmp_path):
        times = np.linspace(0.0, 1.0, 5)

        def blocks():
            for i in range(3):
                yield (f"s{i}", "y1"), times, np.zeros(5)
                times[1:] += 1.0

        expected = [((f"s{i}", "y1"), np.linspace(0.0, 1.0, 5) + [0, i, i, i, i], np.zeros(5))
                    for i in range(3)]
        path, reference = tmp_path / "data.csv", tmp_path / "reference.csv"
        core._write_long_csv(path, PREDICTIONS_HEADER, blocks())
        per_block_write_long_csv(reference, PREDICTIONS_HEADER, expected)
        assert path.read_bytes() == reference.read_bytes()

    def test_quoted_ids_match_csv_writer_and_load_back(self, tmp_path):
        data, schema = small_dataset()
        quoted = ["a,b", 'q"t', " lead", "é", "two\nlines", "cr\rid"]
        ids = sorted(f"{quoted[i % len(quoted)]}{i}" for i in range(data.n_subjects))
        data = replace(data, subject_ids=ids, covariate_names=("x,1", 'x"2'),
                       response_names=(" y1", "ÿ2"))
        schema = replace(schema, covariates=data.covariate_names,
                         responses=data.response_names)
        path, reference = tmp_path / "data.csv", tmp_path / "reference.csv"
        write_dataset(data, path)
        reference_write_dataset(data, reference)
        # the row loop left an id holding a lone \r unquoted, and then the file
        # did not load back
        expected = re.sub(rb"^(cr\rid\d+),", rb'"\1",', reference.read_bytes(), flags=re.M)
        assert expected != reference.read_bytes()
        assert path.read_bytes() == expected
        loaded = load_dataset(path, schema)
        assert loaded.subject_ids == data.subject_ids
        for rows, loaded_rows in ((data.covariates, loaded.covariates),
                                  (data.responses, loaded.responses)):
            for row, loaded_row in zip(rows, loaded_rows):
                for a, b in zip(row, loaded_row):
                    assert a.times.tobytes() == b.times.tobytes()
                    assert a.values.tobytes() == b.values.tobytes()

    def test_prediction_only_dataset(self, tmp_path):
        data, _ = small_dataset()
        data = replace(data, responses=None)
        path, reference = tmp_path / "data.csv", tmp_path / "reference.csv"
        write_dataset(data, path)
        reference_write_dataset(data, reference)
        assert path.read_bytes() == reference.read_bytes()


class TestDatasetValidation:
    def test_needs_two_subjects(self):
        # one subject is a dataset that can be scored, but not trained on
        data, _ = small_dataset()
        one = FunctionalDataset(
            covariate_domain=data.covariate_domain,
            response_domain=data.response_domain,
            covariate_names=data.covariate_names,
            response_names=data.response_names,
            subject_ids=data.subject_ids[:1],
            covariates=data.covariates[:1],
            responses=data.responses[:1],
        )
        with pytest.raises(InsufficientCoverage, match="need at least 2 subjects, got 1"):
            train_pipeline(one, PipelineConfig(regressor="fflm"))

    def test_time_outside_domain_names_subject_and_channel(self):
        data, _ = small_dataset()
        rows = [list(row) for row in data.covariates]
        series = rows[5][1]
        rows[5][1] = ObservationSeries(np.append(series.times, data.covariate_domain.hi + 0.1),
                                       np.append(series.values, 0.0))
        with pytest.raises(DomainViolation,
                           match=f"subject {data.subject_ids[5]!r} channel 'x2'"):
            FunctionalDataset(
                covariate_domain=data.covariate_domain,
                response_domain=data.response_domain,
                covariate_names=data.covariate_names,
                response_names=data.response_names,
                subject_ids=data.subject_ids,
                covariates=rows,
                responses=data.responses,
            )

    @staticmethod
    def two_subjects(series):
        return FunctionalDataset(
            covariate_domain=Interval(0, 1),
            response_domain=Interval(0, 1),
            covariate_names=("x1",),
            response_names=("y1",),
            subject_ids=("a", "b"),
            covariates=((series,), (series,)),
            responses=((series,), (series,)),
        )

    def test_coverage_too_few_pooled_times(self):
        times = np.array([0.0, 1.0])
        data = self.two_subjects(ObservationSeries(times, np.zeros(2)))
        with pytest.raises(InsufficientCoverage,
                           match=r"channel 'x1': only 2 distinct pooled times \(need >= 10\)"):
            train_pipeline(data, PipelineConfig(regressor="fflm"))

    def test_coverage_span_too_small(self):
        times = np.linspace(0.0, 0.5, 15)
        data = self.two_subjects(ObservationSeries(times, np.zeros(15)))
        with pytest.raises(InsufficientCoverage, match="channel 'x1': pooled times span 0.5 "):
            train_pipeline(data, PipelineConfig(regressor="fflm"))

    def test_needs_a_subject(self):
        data, _ = small_dataset()
        with pytest.raises(InsufficientCoverage):
            replace(data, subject_ids=(), covariates=(), responses=())
