"""Domain data model, validation and CSV ingestion for irregular functional data.

Datasets are stored in "long" CSV form, one observation per row, with the
header ``subject_id,variable_id,role,time,value``.  A companion JSON schema
declares which variable ids are covariates/responses and the time intervals
on which they live.
"""

from __future__ import annotations

import csv
import io
import json
import typing
from array import array
from dataclasses import dataclass, is_dataclass, replace
from itertools import chain, repeat

import numpy as np

from fofr.errors import (
    BadConfig,
    BadGridSize,
    DomainViolation,
    DuplicateTimestamp,
    InsufficientCoverage,
    MalformedRow,
    MissingChannel,
)

CSV_HEADER = ["subject_id", "variable_id", "role", "time", "value"]
PREDICTIONS_HEADER = ["subject_id", "variable_id", "time", "value"]

#: minimum number of distinct pooled observation times per training channel
MIN_POOLED_TIMES = 10
#: pooled training times must span at least this share of the declared interval
MIN_POOLED_SPAN = 0.9


@dataclass(frozen=True)
class Interval:
    """A compact time interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise DomainViolation(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainViolation(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, t) -> bool:
        t = np.asarray(t, dtype=float)
        return bool(np.all((t >= self.lo) & (t <= self.hi)))


@dataclass(frozen=True)
class ObservationSeries:
    """One variable's irregular time series for one subject."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1 or len(times) != len(values):
            raise MalformedRow("times and values must be 1-d arrays of equal length")
        if len(times) < 1:
            raise MalformedRow("series must contain at least one observation")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise MalformedRow("times and values must be finite")
        if np.any(np.diff(times) <= 0):
            raise DuplicateTimestamp("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


def _checked_series(times: np.ndarray, values: np.ndarray) -> ObservationSeries:
    """An ObservationSeries of 1-d float arrays that the caller has already
    checked to be of equal nonzero length, finite and strictly increasing in
    time, built without repeating ``__post_init__``'s per-series checks."""
    series = object.__new__(ObservationSeries)
    object.__setattr__(series, "times", times)
    object.__setattr__(series, "values", values)
    return series


@dataclass(frozen=True)
class EvalGrid:
    """Equispaced evaluation grid with trapezoidal quadrature weights."""

    points: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "quad_weights", np.asarray(self.quad_weights, dtype=float))

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def interval(self) -> Interval:
        return Interval(float(self.points[0]), float(self.points[-1]))


def make_grid(domain: Interval, g: int) -> EvalGrid:
    """Build a g-point equispaced grid over ``domain`` with trapezoid weights."""
    if g < 2:
        raise BadGridSize(f"grid needs at least 2 points, got {g}")
    points = np.linspace(domain.lo, domain.hi, g)
    h = domain.length / (g - 1)
    weights = np.full(g, h)
    weights[0] = weights[-1] = h / 2.0
    return EvalGrid(points, weights)


@dataclass(frozen=True)
class FunctionalDataset:
    """N subjects x (R covariate channels, D response channels).

    ``covariates[i][r]`` is the ObservationSeries of covariate channel r for
    subject i; ``responses`` is analogous, or None for prediction-only data.
    Any non-empty dataset may be scored; training needs more (see
    ``_check_coverage``).
    """

    covariate_domain: Interval
    response_domain: Interval
    covariate_names: tuple
    response_names: tuple
    subject_ids: tuple
    covariates: tuple  # tuple over subjects of tuples over channels
    responses: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        object.__setattr__(self, "response_names", tuple(self.response_names))
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        object.__setattr__(self, "covariates", tuple(tuple(row) for row in self.covariates))
        if self.responses is not None:
            object.__setattr__(self, "responses", tuple(tuple(row) for row in self.responses))
        self._validate()

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)

    @property
    def n_responses(self) -> int:
        return len(self.response_names)

    def covariate_channel(self, r: int) -> list:
        """All subjects' series for covariate channel r."""
        return [row[r] for row in self.covariates]

    def response_channel(self, d: int) -> list:
        if self.responses is None:
            raise MissingChannel("dataset has no responses")
        return [row[d] for row in self.responses]

    def _validate(self):
        if self.n_subjects < 1:
            raise InsufficientCoverage("need at least 1 subject, got 0")
        if self.n_covariates < 1 or self.n_responses < 1:
            raise MissingChannel("need at least one covariate and one response channel")
        sides = [("covariate", self.covariate_names, self.covariate_domain, self.covariates)]
        if self.responses is not None:
            sides.append(("response", self.response_names, self.response_domain, self.responses))
        for side, names, domain, rows in sides:
            if len(rows) != self.n_subjects:
                raise MissingChannel(f"{side}s rows do not match subject count")
            for sid, row in zip(self.subject_ids, rows):
                if len(row) != len(names):
                    raise MissingChannel(f"subject {sid!r} lacks a {side} channel")
            for c, name in enumerate(names):
                series_set = [row[c] for row in rows]
                i = _first_outside(series_set, domain)
                if i is not None:
                    raise DomainViolation(f"subject {self.subject_ids[i]!r} channel {name!r}: "
                                          f"time outside {side} domain")


def _first_outside(series_set, domain: Interval) -> int | None:
    """Index of the first series with a time outside ``domain``, or None; one
    comparison over the pooled times, a search of the series only on failure."""
    if domain.contains(np.concatenate([s.times for s in series_set])):
        return None
    return next(i for i, s in enumerate(series_set) if not domain.contains(s.times))


def _check_coverage(series_set, domain: Interval, name: str):
    """Raise unless the pooled times of a channel are enough to smooth it:
    at least MIN_POOLED_TIMES distinct ones spanning MIN_POOLED_SPAN of ``domain``."""
    pooled = np.unique(np.concatenate([s.times for s in series_set]))
    if len(pooled) < MIN_POOLED_TIMES:
        raise InsufficientCoverage(
            f"channel {name!r}: only {len(pooled)} distinct pooled times "
            f"(need >= {MIN_POOLED_TIMES})")
    span = pooled[-1] - pooled[0]
    if span < MIN_POOLED_SPAN * domain.length:
        raise InsufficientCoverage(
            f"channel {name!r}: pooled times span {span:.4g} of interval length "
            f"{domain.length:.4g} (need >= {MIN_POOLED_SPAN:.0%})")


@dataclass(frozen=True)
class DatasetSchema:
    """Declares channel roles, domains and the default grid size for a CSV file."""

    covariates: tuple
    responses: tuple
    covariate_domain: Interval
    response_domain: Interval
    grid_size: int = 101

    def __post_init__(self):
        for side in ("covariates", "responses"):
            names = getattr(self, side)
            if not isinstance(names, (list, tuple)):
                raise MalformedRow(
                    f"schema {side} must be a list of variable ids, got {names!r}")
            for name in names:
                if not isinstance(name, str):
                    raise MalformedRow(f"schema {side}: variable id {name!r} is not a string")
            object.__setattr__(self, side, tuple(names))
        if not self.covariates or not self.responses:
            raise MissingChannel("schema must declare at least one covariate and one response")
        overlap = set(self.covariates) & set(self.responses)
        if overlap:
            raise MalformedRow(f"variables declared as both covariate and response: {sorted(overlap)}")

    def to_dict(self) -> dict:
        return {
            "covariates": list(self.covariates),
            "responses": list(self.responses),
            "covariate_domain": [self.covariate_domain.lo, self.covariate_domain.hi],
            "response_domain": [self.response_domain.lo, self.response_domain.hi],
            "grid_size": self.grid_size,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSchema":
        """A schema from a JSON object; raises MalformedRow."""
        return _config_from_json(cls, d, "schema", MalformedRow)


def _read_json(path, error: type):
    """The JSON document at ``path``; text that is not JSON raises ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: invalid JSON ({exc})") from exc


#: JSON types that a field of each annotated type accepts; a field whose type
#: is any other dataclass is a nested JSON object
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), tuple: (list,),
               Interval: (list,), type(None): (type(None),)}
_JSON_WORDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}


def _json_object(value, name: str, types: dict, error: type = BadConfig) -> dict:
    """``value``, checked to be a JSON object whose keys ``types`` maps to the
    JSON types of their values (a bool is not a number); raises ``error``."""
    if not isinstance(value, dict):
        raise error(f"{name} must be a JSON object, got {type(value).__name__}")
    for key, v in value.items():
        if key not in types:
            raise error(f"{name}: unknown key {key!r}")
        allowed = types[key] if isinstance(types[key], tuple) else (types[key],)
        if not isinstance(v, allowed) or isinstance(v, bool) and bool not in allowed:
            words = " or ".join(_JSON_WORDS[t] for t in allowed
                                if not (t is int and float in allowed))
            raise error(f"{name}.{key} must be {words}, got {type(v).__name__}")
    return value


def _config_from_json(cls, value, name: str, error: type = BadConfig, base=None):
    """The dataclass ``cls``, or ``base`` with fields replaced, built from a JSON
    object with nested dataclass sections and ``[lo, hi]`` Intervals; the JSON
    types allowed come from the field annotations.  Raises ``error``."""
    hints = typing.get_type_hints(cls)
    types = {key: sum((_JSON_TYPES[t] for t in typing.get_args(hint) or (hint,)), ())
             if hint in _JSON_TYPES or not is_dataclass(hint) else dict
             for key, hint in hints.items()}
    kw = {key: _config_from_json(hints[key], v, f"{name}.{key}", error)
          if types[key] is dict else v
          for key, v in _json_object(value, name, types, error).items()}
    try:
        for key in [key for key in kw if hints[key] is Interval]:
            if len(kw[key]) != 2 or not all(isinstance(b, (int, float))
                                            and not isinstance(b, bool) for b in kw[key]):
                raise TypeError(f"{key} must be a list of two numbers [lo, hi], got {kw[key]!r}")
            kw[key] = Interval(*map(float, kw[key]))
        return cls(**kw) if base is None else replace(base, **kw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name}: {exc}") from exc


def load_schema(path) -> DatasetSchema:
    return DatasetSchema.from_dict(_read_json(path, MalformedRow))


#: a chunk of lines ends with the line that reaches this many characters; it
#: converts as fast as larger chunks, and the less it holds at once, the less
#: its short-lived strings and lists grow the heap (64 KiB raised peak RSS ~1 MB)
_CHUNK_CHARS = 1 << 13


def _chunks(fh, ncol):
    """Yield the data rows of ``fh`` in chunks as ``(rows, columns)``.

    ``columns`` holds the chunk's ``ncol`` fields column by column, or is None
    when a row has the wrong field count; ``rows`` iterates the chunk's rows as
    ``csv.reader`` parses them, for naming a bad line.  A chunk of lines free
    of quotes, carriage returns and NULs (which the csv module rejects before
    Python 3.11), and shorter than its field limit, parses as ``str.split``
    does; from the first chunk that is not, ``csv.reader`` parses the rest of
    the file, so a quoted field may span lines and chunks.
    """
    while lines := fh.readlines(_CHUNK_CHARS):
        text = "".join(lines)
        if (len(text) >= csv.field_size_limit() or '"' in text or "\r" in text
                or "\0" in text):
            break
        n = len(lines)
        if list(map(str.count, lines, repeat(","))).count(ncol - 1) != n:
            yield csv.reader(lines), None
            continue
        fields = text.replace("\n", ",").split(",")
        yield csv.reader(lines), [fields[k:n * ncol:ncol] for k in range(ncol)]
    else:
        return
    for rows in _batches(csv.reader(chain(lines, fh)), len(lines)):
        yield rows, None if any(len(row) != ncol for row in rows) else list(zip(*rows))


def _batches(items, size):
    """Lists of up to ``size`` consecutive ``items``.  On a csv or decoding
    fault, the items read before it come out before the fault is raised, so
    that a bad row ahead of the fault is reported first."""
    batch, fault = [], None
    try:
        for item in items:
            batch.append(item)
            if len(batch) == size:
                yield batch
                batch = []
    except (csv.Error, UnicodeDecodeError) as exc:
        fault = exc
    if batch:
        yield batch
    if fault is not None:
        raise fault


def _check_rows(path, rows, ncol, lineno):
    """Raise for the first of ``rows`` (which start at line ``lineno``) with a
    wrong field count or a non-numeric time/value."""
    for lineno, row in enumerate(rows, start=lineno):
        if len(row) != ncol:
            raise MalformedRow(f"{path}:{lineno}: expected {ncol} fields, got {len(row)}")
        try:
            float(row[-2]), float(row[-1])
        except ValueError as exc:
            raise MalformedRow(f"{path}:{lineno}: non-numeric time/value") from exc


def _read_columns(path, headers=(CSV_HEADER,)):
    """Read a long CSV whose header is one of ``headers`` into columns,
    rejecting a wrong field count and non-numeric or non-finite numbers.

    Returns ``(ids, times, values)``.  ``ids`` holds a ``(names, codes)`` pair
    per id column (subject, variable, then role if the file has one); names
    are in order of first appearance.  Row i of the columns is line i + 2.
    The file is converted a chunk of rows at a time (see ``_chunks``); the
    first bad line is searched for only in a chunk that fails to convert.
    Bytes that are not UTF-8 are found a chunk ahead, so they may be reported
    in place of a bad row up to ``_CHUNK_CHARS`` characters before them.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header not in headers:
                expected = " or ".join(repr(",".join(h)) for h in headers)
                raise MalformedRow(f"{path}: expected header {expected}, got {header!r}")
            ncol = len(header)
            seen = [{} for _ in header[:-2]]  # id -> code in order of appearance
            codes = [array("i") for _ in header[:-2]]
            times, values = array("d"), array("d")
            for rows, columns in _chunks(fh, ncol):
                try:
                    if columns is None:  # a row has the wrong field count
                        raise ValueError
                    n = len(columns[0])
                    t, v = (np.fromiter(map(float, col), float, n) for col in columns[-2:])
                except ValueError:
                    _check_rows(path, rows, ncol, len(times) + 2)
                    raise
                times.frombytes(t.tobytes())
                values.frombytes(v.tobytes())
                for first, column, names in zip(seen, codes, columns):
                    for name in dict.fromkeys(names):
                        first.setdefault(name, len(first))
                    column.frombytes(
                        np.fromiter(map(first.__getitem__, names), np.intc, n).tobytes())
    except (csv.Error, UnicodeDecodeError) as exc:  # bad quoting or encoding
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


def _group(ids, times, values):
    """Sort the rows of ``_read_columns`` stably by (subject, variable, time).

    Returns a mask of the rows that repeat an earlier row's (subject,
    variable, time), and {(subject, variable): (times, values)}.
    """
    (subjects, subject), (variables, variable) = ids[:2]
    order = np.lexsort((times, variable, subject))
    subject, variable, sorted_times = subject[order], variable[order], times[order]
    same = (subject[1:] == subject[:-1]) & (variable[1:] == variable[:-1])
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = same & (sorted_times[1:] == sorted_times[:-1])
    starts = np.concatenate(([0], np.flatnonzero(~same) + 1)).tolist()
    # fancy indexing copies: a view would keep the whole file's columns alive
    groups = {(subjects[subject[a]], variables[variable[a]]):
              (times[order[a:b]], values[order[a:b]])
              for a, b in zip(starts, starts[1:] + [len(order)])}
    return repeat, groups


def _read_series(path, role=None) -> dict:
    """{(subject, variable): (times, values)} of a long CSV in either dialect.

    In a file with a role column, ``role`` keeps only the rows of that role.
    """
    ids, times, values = _read_columns(path, (CSV_HEADER, PREDICTIONS_HEADER))
    if role is not None and len(ids) == 3:
        roles, row_role = ids.pop()
        keep = np.array([r == role for r in roles])[row_role]
        if not keep.any():
            raise MalformedRow(f"{path}: no {role} rows")
        ids = [(names, codes[keep]) for names, codes in ids]
        times, values = times[keep], values[keep]
    return _group(ids, times, values)[1]


def load_dataset(path, schema: DatasetSchema) -> FunctionalDataset:
    """Parse and validate a long-format CSV into a FunctionalDataset.

    Rows may arrive in any order; they are grouped by (subject, variable) and
    sorted by time.  Every subject appearing in the file must carry every
    declared covariate channel; responses are either present for all subjects
    or absent entirely (prediction-only data).  Each error names the line of
    the first row with that fault.
    """
    ids, times, values = _read_columns(path)
    (subjects, subject), (variables, variable), (roles, role) = ids
    declared = {v: ("covariate", schema.covariate_domain) for v in schema.covariates}
    declared.update({v: ("response", schema.response_domain) for v in schema.responses})

    var_roles = [declared[v][0] if v in declared else None for v in variables]
    bad = ~np.array([[r == row_role for row_role in roles] for r in var_roles])[variable, role]
    if bad.any():
        i = int(np.argmax(bad))
        var = variables[variable[i]]
        if var not in declared:
            raise MalformedRow(f"{path}:{i + 2}: undeclared variable {var!r}")
        raise MalformedRow(f"{path}:{i + 2}: variable {var!r} declared {declared[var][0]!r}, "
                           f"row says {roles[role[i]]!r}")
    domains = [declared[v][1] for v in variables]
    bad = times < np.array([d.lo for d in domains])[variable]
    bad |= times > np.array([d.hi for d in domains])[variable]
    if bad.any():
        i = int(np.argmax(bad))
        domain = domains[variable[i]]
        raise DomainViolation(
            f"{path}:{i + 2}: time {float(times[i])} outside declared interval "
            f"[{domain.lo}, {domain.hi}] for {variables[variable[i]]!r}")

    repeat, groups = _group(ids, times, values)
    if repeat.any():
        i = int(np.argmax(repeat))
        raise DuplicateTimestamp(
            f"{path}:{i + 2}: subject {subjects[subject[i]]!r} variable "
            f"{variables[variable[i]]!r}: duplicate time {float(times[i])}")

    def series(sid, var):
        if (sid, var) not in groups:
            first = np.argmax(subject == subjects.index(sid))
            raise MissingChannel(
                f"{path}:{first + 2}: subject {sid!r} lacks declared variable {var!r}")
        return _checked_series(*groups[sid, var])  # checked above, over all rows

    subject_ids = sorted(subjects)
    covariates = [[series(sid, var) for var in schema.covariates] for sid in subject_ids]
    responses = None
    if "response" in var_roles:
        responses = [[series(sid, var) for var in schema.responses] for sid in subject_ids]
    return FunctionalDataset(
        covariate_domain=schema.covariate_domain,
        response_domain=schema.response_domain,
        covariate_names=schema.covariates,
        response_names=schema.responses,
        subject_ids=subject_ids,
        covariates=covariates,
        responses=responses,
    )


def _write_long_csv(path, header, blocks):
    """Write a long CSV: ``header``, then for each ``(ids, times, values)``
    block one row ``*ids, t, v`` per observation.

    The id fields of a block are quoted once, by ``csv.writer``'s rules with
    a ``\r\n`` terminator, so that an id holding ``\r`` or ``\n`` is quoted;
    the numbers are written by ``repr``, an exact float round trip.  A block
    whose ``times`` repeat the block before it bit for bit reuses its strings
    (bits, not values: ``-0.0 == 0.0``, but their ``repr``s differ).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        last = stamps = None
        for ids, times, values in blocks:
            if (key := (times.dtype.str, times.tobytes())) != last:
                last, stamps = key, [repr(t) for t in times.tolist()]
            record = io.StringIO()
            csv.writer(record, lineterminator="\r\n").writerow(ids)
            prefix = record.getvalue()[:-2]
            fh.write("".join([f"{prefix},{t},{v!r}\n"
                              for t, v in zip(stamps, values.tolist())]))


def write_dataset(dataset: FunctionalDataset, path):
    """Write a dataset in the long CSV format; exact float round-trip via repr."""
    sides = [("covariate", dataset.covariate_names, dataset.covariates)]
    if dataset.responses is not None:
        sides.append(("response", dataset.response_names, dataset.responses))
    _write_long_csv(path, CSV_HEADER, (
        ((sid, name, role), series.times, series.values)
        for i, sid in enumerate(dataset.subject_ids)
        for role, names, rows in sides
        for name, series in zip(names, rows[i])))


def write_schema(schema: DatasetSchema, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
