"""Domain data model, validation and CSV ingestion for irregular functional data.

Datasets are stored in "long" CSV form, one observation per row, with the
header ``subject_id,variable_id,role,time,value``.  A companion JSON schema
declares which variable ids are covariates/responses and the time intervals
on which they live.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import os
import pickle
import shutil
import signal
import stat
import threading
import typing
import warnings
from array import array
from dataclasses import dataclass, is_dataclass, replace
from itertools import repeat

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

logger = logging.getLogger("fofr")


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: a numpy integer is, a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_ints(obj, names=(), optional=(), error: type = ValueError):
    """Make each field of ``obj`` in ``names``, or in ``optional`` and not None, a
    Python int once ``_is_int`` accepts it; raises ``error`` naming a field it does not."""
    for name in (*names, *(n for n in optional if getattr(obj, n) is not None)):
        if not _is_int(getattr(obj, name)):
            raise error(f"{name} must be an integer, got {getattr(obj, name)!r}")
        object.__setattr__(obj, name, int(getattr(obj, name)))


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

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def interval(self) -> Interval:
        return Interval(float(self.points[0]), float(self.points[-1]))

    @property
    def quad_weights(self) -> np.ndarray:
        """The spacing at every point, halved at both ends."""
        h = (self.points[-1] - self.points[0]) / (self.size - 1)
        return np.concatenate(([h / 2.0], np.full(self.size - 2, h), [h / 2.0]))


def make_grid(domain: Interval, g: int) -> EvalGrid:
    """Build a g-point equispaced grid over ``domain``."""
    if g < 2:
        raise BadGridSize(f"grid needs at least 2 points, got {g}")
    return EvalGrid(np.linspace(domain.lo, domain.hi, g))


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
        _check_ints(self, ("grid_size",), error=MalformedRow)

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


def _write_json(path, doc, indent=None):
    """Write ``doc`` to ``path`` as JSON with sorted keys and a closing newline."""
    # json.dumps encodes in C (without indent); json.dump always runs the Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


#: JSON types that a field of each annotated type accepts; a field whose type
#: is any other dataclass is a nested JSON object
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), tuple: (list,),
               dict: (dict,), Interval: (list,), type(None): (type(None),)}
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


#: a block of a long CSV's bytes ends with the last LF in this many
#: bytes; it converts as fast as larger blocks, and the less it holds at once,
#: the less its short-lived objects grow the heap (64 KiB raised peak RSS ~1 MB)
_CHUNK_CHARS = 1 << 13
#: a read converts each distinct time string once while it has converted
#: fewer than this many: a dense file has one per grid point, an irregular
#: one about one per row, which the cap keeps from growing the heap
_STAMPS = 4096

#: a long CSV of at least this many bytes is read in two processes, and one
#: of at least this many rows written in two; on smaller files the fork, the
#: page faults on the memory it shares and the transfer back cost about what
#: the second core saves
SPLIT_BYTES = 1 << 21
SPLIT_ROWS = 1 << 16
#: bytes searched for the line end that ends the header or a file's first half
_LINE_SEARCH = 1 << 16


class _Serial(Exception):
    """A long CSV, or a half of one, that only the ``csv`` module's reader
    (``_convert``) or the one-process writer may convert."""


def _two_processes(size, threshold) -> bool:
    """Whether a long CSV of ``size`` bytes or rows is converted in two
    processes: when it is at least ``threshold`` large, this process may fork
    (no other Python thread runs) and it may run on two or more cores."""
    return (size >= threshold and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) >= 2)


def _current_cpu():
    """The core this process runs on (field 39 of ``/proc/self/stat``), or None."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


@contextlib.contextmanager
def _forked(work):
    """Run ``work(out)`` in a forked child, ``out`` being the write end of a
    pipe as a binary file, and yield the read end to this process.

    The child moves off this process's core: where the kernel does not
    balance load between cores (a cpuset with ``sched_load_balance`` off), a
    forked child stays on its parent's core, and the two halves run in turn.
    The child always ends with ``os._exit``, with status 0 once ``work`` has
    returned.  This process reaps it on every path, killing it first when the
    block raised; when the block returned but the child failed, ``_Serial``
    is raised.
    """
    others = os.sched_getaffinity(0) - {_current_cpu()}
    r, w = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns of any other OS thread, such as an idle BLAS pool;
        # the child runs no BLAS and never returns to the caller's code
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            if others:
                os.sched_setaffinity(0, others)
            with open(w, "wb") as out:
                work(out)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    status = None
    try:
        with open(r, "rb") as pipe:
            yield pipe
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status != 0:
        raise _Serial


def _convert(fh, ncol, path):
    """The data rows of the text file ``fh`` as ``(seen, codes, times,
    values)``: a {key: code} dict of the rows' keys, the tuples of their id
    fields, in order of first appearance, then arrays of the rows' key codes,
    times and values.

    ``csv.reader`` parses the rows one at a time, so a quoted field may span
    lines.  The first row with a wrong field count or a non-numeric
    time/value raises MalformedRow naming its line of ``path``, the first row
    being line 2; a csv or decoding fault raises where the reader meets it.
    """
    seen = {}
    codes, times, values = array("i"), array("d"), array("d")
    for lineno, row in enumerate(csv.reader(fh), start=2):
        if len(row) != ncol:
            raise MalformedRow(f"{path}:{lineno}: expected {ncol} fields, got {len(row)}")
        try:
            t, v = float(row[-2]), float(row[-1])
        except ValueError as exc:
            raise MalformedRow(f"{path}:{lineno}: non-numeric time/value") from exc
        codes.append(seen.setdefault(tuple(row[:-2]), len(seen)))
        times.append(t)
        values.append(v)
    return seen, codes, times, values


def _stamps(strings, n, cache):
    """The ``n`` time ``strings`` of a block as floats, through the {bytes:
    float} ``cache`` of one read.  A block with a string the cache lacks is
    converted string by string, and its strings are added while the cache
    holds fewer than ``_STAMPS``.  Equal bytes give an equal float, so
    ``-0.0`` and ``0.0`` stay apart."""
    try:
        return np.fromiter(map(cache.__getitem__, strings), float, n)
    except KeyError:
        floats = np.fromiter(map(float, strings), float, n)
    if len(cache) < _STAMPS:
        cache.update(zip(strings, floats.tolist()))
    return floats


def _fast_convert(fd, lo, hi, ncol):
    """``_convert``'s columns of bytes ``lo`` up to ``hi`` of the file open at
    ``fd``, whole lines of a long CSV, or ``_Serial`` when only ``_convert``
    may read them.

    The bytes are read with ``os.pread`` in blocks of ``_CHUNK_CHARS``, each
    ending at its last LF (a longer line doubles the read).  Lines end at
    ``\r\n``, ``\r`` or ``\n``, as ``bytes.splitlines`` and ``csv.reader``
    both end them, so a CRLF file gives the same rows and line numbers.
    Each line is split at its last two commas into its key (the id prefix
    ``subject,variable[,role]``), time and value.  A key is checked for its
    comma count when it first appears, and each distinct key is decoded from
    UTF-8 into its tuple of ids once, at the end.  Values go through
    ``float()``, times through ``_stamps``.  ``_Serial`` is raised where the
    csv module would read the bytes otherwise, or where they hold a fault
    for ``_convert`` to report: a block holding a quote or NUL, or of
    ``csv.field_size_limit()`` bytes or more; a line with fewer than three
    fields or a key with the wrong comma count; a time or value that
    ``float`` rejects as bytes (as text it also takes non-ASCII digits and
    spaces); a key that is not UTF-8.
    """
    limit, size = csv.field_size_limit(), _CHUNK_CHARS
    coded, stamps = {}, {}
    codes, times, values = array("i"), array("d"), array("d")
    while lo < hi:
        block = os.pread(fd, min(size, hi - lo), lo)
        if not block or len(block) >= limit or b'"' in block or b"\0" in block:
            raise _Serial
        if lo + len(block) < hi:
            end = block.rfind(b"\n") + 1
            if not end:  # a line longer than the block
                size *= 2
                continue
            block, size = block[:end], _CHUNK_CHARS
        lo += len(block)
        try:  # a line with fewer than three fields, or a number float() rejects
            keys, t, v = zip(*map(bytes.rsplit, block.splitlines(), repeat(b","), repeat(2)))
            n = len(keys)
            t, v = _stamps(t, n, stamps), np.fromiter(map(float, v), float, n)
        except ValueError:
            raise _Serial from None
        new = [key for key in dict.fromkeys(keys) if key not in coded]
        if any(key.count(b",") != ncol - 3 for key in new):
            raise _Serial
        coded.update(zip(new, range(len(coded), len(coded) + len(new))))
        codes.frombytes(np.fromiter(map(coded.__getitem__, keys), np.intc, n).tobytes())
        times.frombytes(t.tobytes())
        values.frombytes(v.tobytes())
    try:
        seen = {tuple(key.decode("utf-8").split(",")): code for key, code in coded.items()}
    except UnicodeDecodeError:
        raise _Serial from None
    return seen, codes, times, values


def _read_in_two(path, fd, start, size, ncol):
    """``_fast_convert``'s columns of the data rows of the long CSV open at
    ``fd``, bytes ``start`` up to ``size``, converted in two processes, or
    None when the file is to be read in one.

    A file of at least ``SPLIT_BYTES`` bytes is cut at the first line end
    past the middle of its data rows.  This process converts the first half
    while a forked child converts the second.  The child sends its keys and
    row count pickled, then the raw bytes of its three columns, which are
    read straight into the tail of the merged columns; the second half's keys
    are then coded after the first's.  When either half raises ``_Serial``,
    or the child fails, ``_Serial`` is raised.
    """
    if not _two_processes(size, SPLIT_BYTES):
        return None
    mid = (start + size) // 2
    split = mid + os.pread(fd, _LINE_SEARCH, mid).find(b"\n") + 1
    if not mid < split < size:
        return None

    def send(out):
        seen, *columns = _fast_convert(fd, split, size, ncol)
        pickle.dump((list(seen), len(columns[0])), out)
        for column in columns:
            out.write(column)

    try:
        with _forked(send) as pipe:
            seen, *own = _fast_convert(fd, start, split, ncol)
            keys, more = pickle.load(pipe)
            rows = len(own[0])
            merged = []
            for dtype in (np.intc, float, float):
                column = np.empty(rows + more, dtype)
                column[:rows] = np.frombuffer(own.pop(0), dtype)
                if pipe.readinto(column[rows:]) != column[rows:].nbytes:
                    raise EOFError
                merged.append(column)
    except (_Serial, EOFError, pickle.UnpicklingError) as exc:
        raise _Serial("a half") from exc
    logger.debug("read %s in two processes: %d + %d rows", path, rows, more)
    recode = np.array([seen.setdefault(key, len(seen)) for key in keys], np.intc)
    merged[0][rows:] = recode[merged[0][rows:]]
    return seen, *merged


def _read_columns(path, headers=(CSV_HEADER,)):
    """Read a long CSV whose header is one of ``headers`` into columns,
    rejecting a wrong field count and non-numeric or non-finite numbers.

    Returns ``(ids, times, values)``.  ``ids`` holds a ``(names, codes)`` pair
    per id column (subject, variable, then role if the file has one); names
    are in order of first appearance.  Row i of the columns is line i + 2.
    The data rows are converted from bytes (see ``_fast_convert``), in two
    processes when the file is large (see ``_read_in_two``).  A pipe, a
    header line holding a quote or a carriage return other than its closing
    CRLF, or data rows that raise ``_Serial``, send the whole file to
    ``_convert`` in one process, which gives the same columns or reports the
    first fault.  There bytes that are not UTF-8 are decoded a chunk ahead,
    so they may be reported in place of a bad row a few KiB before them.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header not in headers:
                expected = " or ".join(repr(",".join(h)) for h in headers)
                raise MalformedRow(f"{path}: expected header {expected}, got {header!r}")
            ncol, fd = len(header), fh.fileno()
            info = os.fstat(fd)
            try:
                # bytes are read by position: a pipe, or a platform without
                # os.pread (Windows), takes the csv module's path
                if not (hasattr(os, "pread") and stat.S_ISREG(info.st_mode)):
                    raise _Serial
                head = os.pread(fd, _LINE_SEARCH, 0)
                start = head.find(b"\n") + 1
                # a CR before the header's closing CRLF ends the header in
                # the csv module, so the first LF may end a data row
                if not start or b'"' in head[:start] or b"\r" in head[:start - 2]:
                    raise _Serial
                seen, codes, times, values = (
                    _read_in_two(path, fd, start, info.st_size, ncol)
                    or _fast_convert(fd, start, info.st_size, ncol))
            except _Serial as exc:
                logger.debug("read %s in one process: %s needs the serial reader",
                             path, str(exc) or "the file")
                seen, codes, times, values = _convert(fh, ncol, path)
    except (csv.Error, UnicodeDecodeError) as exc:  # bad quoting or encoding
        raise MalformedRow(f"{path}: unreadable CSV ({exc})") from exc

    if not len(times):
        raise MalformedRow(f"{path}: no data rows")
    times, values = np.frombuffer(times), np.frombuffer(values)
    bad = ~(np.isfinite(times) & np.isfinite(values))
    if bad.any():
        raise MalformedRow(f"{path}:{np.argmax(bad) + 2}: non-finite time/value")
    # keys come in order of first appearance, so each id column's names come
    # out in that order too
    codes = np.frombuffer(codes, np.intc)
    ids = []
    for column in zip(*seen):
        names = {}
        table = np.array([names.setdefault(name, len(names)) for name in column], np.intc)
        ids.append((list(names), table[codes]))
    return ids, times, values


def _group(path, ids, times, values, rows=None):
    """Group the rows of ``_read_columns`` by (subject, variable), stably
    sorted by time, as {(subject, variable): (times, values)}, each a
    read-only slice of one pooled column.

    Rows already in (subject, variable, time) order of their codes, as fofr
    writes every file, are taken as they are; others are sorted with
    ``np.lexsort``.  The first row that repeats an earlier row's (subject,
    variable, time) raises DuplicateTimestamp naming its line of ``path``:
    row i is file row ``rows[i]`` when rows were dropped, else file row i.
    """
    (subjects, subject), (variables, variable) = ids[:2]
    step_s, step_v, step_t = np.diff(subject), np.diff(variable), np.diff(times)
    step_back = (step_s < 0) | (step_s == 0) & ((step_v < 0) | (step_v == 0) & (step_t < 0))
    later = np.s_[1:]  # where the grouped rows after the first sit in the file
    in_file = subject, variable, times
    if step_back.any():
        order = np.lexsort((times, variable, subject))
        subject, variable, times, values = (column[order]
                                            for column in (subject, variable, times, values))
        later = order[1:]
    same = (subject[1:] == subject[:-1]) & (variable[1:] == variable[:-1])
    repeat = np.zeros(len(times), dtype=bool)
    repeat[later] = same & (times[1:] == times[:-1])
    if repeat.any():
        i = int(np.argmax(repeat))
        s, v, t = (column[i] for column in in_file)
        raise DuplicateTimestamp(
            f"{path}:{(i if rows is None else rows[i]) + 2}: subject {subjects[s]!r} "
            f"variable {variables[v]!r}: duplicate time {float(t)}")
    starts = np.concatenate(([0], np.flatnonzero(~same) + 1))
    bounds = starts.tolist() + [len(times)]
    times, values = times.view(), values.view()
    times.flags.writeable = values.flags.writeable = False
    return {(subjects[s], variables[v]): (times[a:b], values[a:b])
            for s, v, a, b in zip(subject[starts].tolist(), variable[starts].tolist(),
                                  bounds, bounds[1:])}


def _read_series(path, role=None) -> dict:
    """{(subject, variable): (times, values)} of a predictions CSV, or with
    ``role``, of the rows of that role in a long CSV of either dialect.

    A role other than ``covariate`` or ``response`` raises MalformedRow
    naming its line; a repeated row raises as in ``_group``.
    """
    if role is None:
        return _group(path, *_read_columns(path, (PREDICTIONS_HEADER,)))
    ids, times, values = _read_columns(path, (CSV_HEADER, PREDICTIONS_HEADER))
    rows = None
    if len(ids) == 3:
        roles, row_role = ids.pop()
        unknown = [r for r in roles if r not in ("covariate", "response")]
        if unknown:  # roles come in order of first appearance
            i = int(np.argmax(row_role == roles.index(unknown[0])))
            raise MalformedRow(f"{path}:{i + 2}: role {unknown[0]!r} is neither "
                               f"'covariate' nor 'response'")
        keep = np.array([r == role for r in roles])[row_role]
        if not keep.any():
            raise MalformedRow(f"{path}: no {role} rows")
        rows = np.flatnonzero(keep)
        ids = [(names, codes[keep]) for names, codes in ids]
        times, values = times[keep], values[keep]
    return _group(path, ids, times, values, rows)


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

    groups = _group(path, ids, times, values)

    def series(sid, var):
        if (sid, var) not in groups:
            first = np.argmax(subject == subjects.index(sid))
            raise MissingChannel(
                f"{path}:{first + 2}: subject {sid!r} lacks declared variable {var!r}")
        return _checked_series(*groups[sid, var])  # checked over all rows

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


def _long_csv_rows(blocks):
    """The rows of a long CSV, one string per ``(ids, times, values)`` block
    holding one row ``*ids, t, v`` per observation.

    The id fields of a block are quoted once, by ``csv.writer``'s rules with
    a ``\r\n`` terminator, so that an id holding ``\r`` or ``\n`` is quoted;
    the numbers are written by ``repr``, an exact float round trip.  A block
    whose ``times`` repeat the block before it bit for bit reuses its strings
    (bits, not values: ``-0.0 == 0.0``, but their ``repr``s differ).
    """
    last = stamps = None
    for ids, times, values in blocks:
        if (key := (times.dtype.str, times.tobytes())) != last:
            last, stamps = key, [repr(t) for t in times.tolist()]
        record = io.StringIO()
        csv.writer(record, lineterminator="\r\n").writerow(ids)
        prefix = record.getvalue()[:-2]
        yield "".join([f"{prefix},{t},{v!r}\n" for t, v in zip(stamps, values.tolist())])


def _write_long_csv(path, header, blocks):
    """Write a long CSV: ``header``, then the rows of the list ``blocks`` of
    ``(ids, times, values)`` series (see ``_long_csv_rows``).

    A file of at least ``SPLIT_ROWS`` rows is cut between the series that
    halve its rows: a forked child formats the series after the cut while
    this process writes those before it, then sends its bytes to follow
    them.  The bytes are those of the one-process write.
    """
    ends = np.cumsum([len(times) for _, times, _ in blocks])
    total = int(ends[-1]) if len(ends) else 0
    mid = int(np.searchsorted(ends, total / 2, side="right"))

    def write(blocks, tail=None):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.writelines(_long_csv_rows(blocks))
            if tail is not None:
                fh.flush()
                shutil.copyfileobj(tail, fh.buffer)

    if _two_processes(total, SPLIT_ROWS) and 0 < mid < len(blocks):
        def work(out):
            out.write("".join(_long_csv_rows(blocks[mid:])).encode("utf-8"))

        try:
            with _forked(work) as pipe:
                write(blocks[:mid], pipe)
            logger.debug("wrote %s in two processes: %d + %d rows",
                         path, ends[mid - 1], total - ends[mid - 1])
            return
        except _Serial:
            logger.debug("wrote %s in one process: the second half failed", path)
    write(blocks)


def write_dataset(dataset: FunctionalDataset, path):
    """Write a dataset in the long CSV format; exact float round-trip via repr."""
    sides = [("covariate", dataset.covariate_names, dataset.covariates)]
    if dataset.responses is not None:
        sides.append(("response", dataset.response_names, dataset.responses))
    _write_long_csv(path, CSV_HEADER, [((sid, name, role), series.times, series.values)
                                       for i, sid in enumerate(dataset.subject_ids)
                                       for role, names, rows in sides
                                       for name, series in zip(names, rows[i])])


def write_schema(schema: DatasetSchema, path):
    _write_json(path, schema.to_dict(), indent=2)
