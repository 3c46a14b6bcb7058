"""Data model, grid and CSV ingestion tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fofr.core import (
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
    InsufficientCoverage,
    MalformedRow,
    MissingChannel,
)
from fofr.synthgen import dataset_schema, generate, preset_scenario


def small_dataset(n=12, seed=0):
    from dataclasses import replace
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


class TestDatasetValidation:
    def test_needs_two_subjects(self):
        data, _ = small_dataset()
        with pytest.raises(InsufficientCoverage):
            FunctionalDataset(
                covariate_domain=data.covariate_domain,
                response_domain=data.response_domain,
                covariate_names=data.covariate_names,
                response_names=data.response_names,
                subject_ids=data.subject_ids[:1],
                covariates=data.covariates[:1],
                responses=data.responses[:1],
            )

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

    def test_coverage_too_few_pooled_times(self):
        times = np.array([0.0, 1.0])
        series = ObservationSeries(times, np.zeros(2))
        with pytest.raises(InsufficientCoverage):
            FunctionalDataset(
                covariate_domain=Interval(0, 1),
                response_domain=Interval(0, 1),
                covariate_names=("x1",),
                response_names=("y1",),
                subject_ids=("a", "b"),
                covariates=((series,), (series,)),
                responses=((series,), (series,)),
            )

    def test_coverage_span_too_small(self):
        times = np.linspace(0.0, 0.5, 15)
        series = ObservationSeries(times, np.zeros(15))
        with pytest.raises(InsufficientCoverage):
            FunctionalDataset(
                covariate_domain=Interval(0, 1),
                response_domain=Interval(0, 1),
                covariate_names=("x1",),
                response_names=("y1",),
                subject_ids=("a", "b"),
                covariates=((series,), (series,)),
                responses=((series,), (series,)),
            )
