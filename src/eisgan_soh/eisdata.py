"""Data model and I/O for EIS spectra and capacities.

CSV schema (External Interfaces):
    eis.csv      header: cell_id,stage,cycle,point_index,freq_hz,re_z_ohm,im_z_ohm
    capacity.csv header: cell_id,cycle,capacity_mah
point_index is 0-based ascending and maps to strictly descending frequency.
Floats are rendered with repr(), so ingest -> serialize -> ingest is lossless.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

EIS_HEADER = ["cell_id", "stage", "cycle", "point_index", "freq_hz", "re_z_ohm", "im_z_ohm"]
CAPACITY_HEADER = ["cell_id", "cycle", "capacity_mah"]

#: canonical number of frequency points per resampled curve
T_POINTS = 60


class DataError(Exception):
    """Malformed input data or file."""


@dataclass(frozen=True)
class EisCurve:
    """One impedance spectrum: complex Z sampled on a descending frequency grid."""

    cell_id: str
    stage: int
    cycle: int
    freq_hz: np.ndarray
    re_z_ohm: np.ndarray
    im_z_ohm: np.ndarray

    def __post_init__(self):
        for name in ("freq_hz", "re_z_ohm", "im_z_ohm"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not 1 <= self.stage <= 9:
            raise DataError(f"stage must be in 1..9, got {self.stage}")
        if self.cycle < 0:
            raise DataError(f"cycle must be nonnegative, got {self.cycle}")
        n = len(self.freq_hz)
        if len(self.re_z_ohm) != n or len(self.im_z_ohm) != n:
            raise DataError(f"curve {self.key()} has ragged arrays")
        if n and (np.any(self.freq_hz <= 0) or np.any(np.diff(self.freq_hz) >= 0)):
            raise DataError(
                f"curve {self.key()} frequencies must be positive and strictly descending")
        for name in ("freq_hz", "re_z_ohm", "im_z_ohm"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"curve {self.key()} has non-finite {name}")

    def key(self):
        return (self.cell_id, self.stage, self.cycle)

    @property
    def n_points(self):
        return len(self.freq_hz)


def _bare_curve(cell_id, stage, cycle, freq_hz, re_z_ohm, im_z_ohm) -> EisCurve:
    """An `EisCurve` holding these fields as given, float64 arrays, with none
    of its checks run: for callers that have made them already."""
    new = object.__new__(EisCurve)
    new.__dict__.update(cell_id=cell_id, stage=stage, cycle=cycle, freq_hz=freq_hz,
                        re_z_ohm=re_z_ohm, im_z_ohm=im_z_ohm)
    return new


#: the measurement stages taken under direct current: 2 start charging, 3 after
#: 20-min charging, 6 start discharging, 7 after 10-min discharging (of nine, 1..9)
DC_STAGES = frozenset({2, 3, 6, 7})


def is_finite_real(value) -> bool:
    """True for an int or float, numpy's included but not a bool, that is
    finite as a float."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-score statistics fit on a training split."""

    re_mean: float
    re_scale: float
    im_mean: float
    im_scale: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_finite_real(value):
                raise DataError(f"normalization {f.name} must be a finite number, got {value!r}")
        if self.re_scale <= 0 or self.im_scale <= 0:
            raise DataError("normalization scale must be positive")
        # (mean, scale) as (2, 1) channel columns, to broadcast over (N, 2, T)
        object.__setattr__(self, "_columns", (np.array([[self.re_mean], [self.im_mean]]),
                                              np.array([[self.re_scale], [self.im_scale]])))


@dataclass
class Dataset:
    """Curves, (cell_id, cycle) -> capacity in mAh and a declared train/test
    cell partition. A curve needs a capacity only when one is looked up."""

    curves: list[EisCurve]
    capacities: dict[tuple[str, int], float]
    train_cells: tuple[str, ...]
    test_cells: tuple[str, ...]

    def __post_init__(self):
        if set(self.train_cells) & set(self.test_cells):
            raise DataError("train and test cell partitions overlap")

    def capacity(self, cell_id: str, cycle: int) -> float:
        try:
            return self.capacities[(cell_id, cycle)]
        except KeyError:
            raise DataError(f"no capacity record for {(cell_id, cycle)}") from None

    def curves_for(self, stage: int, cells=None) -> list[EisCurve]:
        out = [c for c in self.curves if c.stage == stage
               and (cells is None or c.cell_id in cells)]
        return sorted(out, key=lambda c: (c.cell_id, c.cycle))

    def stage_cells(self, stage: int) -> set[str]:
        return {c.cell_id for c in self.curves if c.stage == stage}


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def open_text(path, error, newline=None):
    """`path` opened as UTF-8 text. A byte that is not UTF-8 raises `error`
    naming the path and the line of the first such byte. The decoder counts
    from the chunk it was given, so the line comes from re-reading the bytes
    up to each \\n; no UTF-8 sequence holds a \\r or \\n byte. Lines end at
    \\n, \\r\\n or \\r, as the csv readers split them."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        line = 1
        with open(path, "rb") as fh:
            for raw in fh:
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    line += raw[:bad.start].count(b"\r")
                    break
                line += len(raw.splitlines())
        raise error(f"{path} line {line}: not UTF-8 text ({exc.reason})") from None


def _parse_float(value, row_num, column):
    try:
        return float(value)
    except ValueError:
        raise DataError(f"row {row_num}: non-numeric {column} value {value!r}") from None


def _parse_int(value, row_num, column):
    try:
        return int(value)
    except ValueError:
        raise DataError(f"row {row_num}: non-integer {column} value {value!r}") from None


#: eis.csv data columns as `np.loadtxt` reads them
_EIS_DTYPE = np.dtype([("cell_id", object), ("stage", np.int64), ("cycle", np.int64),
                       ("point_index", np.int64), ("freq_hz", np.float64),
                       ("re_z_ohm", np.float64), ("im_z_ohm", np.float64)])


_BLANK_LINE = re.compile(r"\n\r?\n")
_ASTRAL = re.compile("[\U00010000-\U0010ffff]")

#: characters of eis.csv `load_eis_csv` decodes at a time
_PIECE_CHARS = 2 ** 16


def _past_header(fh):
    """Rewind `fh` and read the header row; `fh` is left at the first data row."""
    fh.seek(0)
    return next(csv.reader(fh), None)


def _body_pieces(fh):
    """The rest of `fh` in pieces of about _PIECE_CHARS characters, each but
    the last ending at a \\n, so no piece holds the whole text."""
    tail = ""
    while block := fh.read(_PIECE_CHARS):
        text = tail + block
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        tail = text[cut:]
    if tail:
        yield tail


def _loadtxt_rows(fh):
    """All data rows of `fh` in one C-level pass, or None where that pass
    could differ from the row-by-row reader: loadtxt skips blank lines, strips
    \\x1c-\\x1f around numbers as whitespace and refuses fields or line endings
    that the row-by-row reader may parse or must name by row. Text with
    characters beyond U+FFFF is left to the row-by-row reader too: numpy 2.4's
    loadtxt can crash on them in numeric fields. Cell ids are interned as they
    are parsed, so the rows hold one string per distinct id, not one per row.

    loadtxt converts the text a line at a time, and each piece is checked
    before its lines reach it (a piece after the first that starts with a
    line end follows one that ends with \\n). On a refusal the rest is still
    decoded, so a file that is not UTF-8 raises UnicodeDecodeError whatever
    else it holds.
    """
    def checked(pieces):
        for i, piece in enumerate(pieces):
            if (piece.startswith(("\n", "\r") if i == 0 else ("\n", "\r\n"))
                    or _BLANK_LINE.search(piece)
                    or any(c in piece for c in "\x1c\x1d\x1e\x1f")
                    or not piece.isascii() and _ASTRAL.search(piece)):
                raise ValueError("text left to the row-by-row reader")
            yield piece

    _past_header(fh)
    lines = itertools.chain.from_iterable(map(io.StringIO, checked(_body_pieces(fh))))
    try:
        return np.loadtxt(lines, dtype=_EIS_DTYPE, delimiter=",", quotechar='"',
                          comments=None, ndmin=1, converters={0: sys.intern})
    except UnicodeDecodeError:
        raise
    except ValueError:
        while fh.read(_PIECE_CHARS):   # decodes the rest
            pass
        return None


def _csv_rows(fh):
    """The data rows of `fh` read one at a time; raises the first
    `row N: ...` error. Each cell id is interned, as `_loadtxt_rows` does."""
    _past_header(fh)
    cols = [[] for _ in EIS_HEADER]
    for row_num, row in enumerate(csv.reader(fh), start=2):
        if len(row) != len(EIS_HEADER):
            raise DataError(f"row {row_num}: expected {len(EIS_HEADER)} fields, got {len(row)}")
        cols[0].append(sys.intern(row[0]))
        for i in range(1, 4):
            cols[i].append(_parse_int(row[i], row_num, EIS_HEADER[i]))
        for i in range(4, 7):
            cols[i].append(_parse_float(row[i], row_num, EIS_HEADER[i]))
    rows = np.empty(len(cols[0]), dtype=_EIS_DTYPE)
    for name, col in zip(EIS_HEADER, cols):
        try:
            rows[name] = col
        except OverflowError:
            i = next(i for i, v in enumerate(col) if not -2 ** 63 <= v < 2 ** 63)
            raise DataError(f"row {i + 2}: {name} value {col[i]} out of range") from None
    return rows


def _group_rows(rows) -> list[EisCurve]:
    """One curve per (cell_id, stage, cycle) in sorted key order, points in
    point_index order; the checks and messages of the row-by-row grouping."""
    n = len(rows)
    # cell ids sort as str does, so groups come out in sorted((cell, stage, cycle)) order
    cells = sorted(set(rows["cell_id"].tolist()))
    code_of = {c: i for i, c in enumerate(cells)}
    codes = np.fromiter(map(code_of.__getitem__, rows["cell_id"]), np.int64, n)
    order = np.lexsort((rows["point_index"], rows["cycle"], rows["stage"], codes))
    codes, stage, cycle, idx = (codes[order], rows["stage"][order],
                                rows["cycle"][order], rows["point_index"][order])
    new = np.ones(n, dtype=bool)
    new[1:] = (codes[1:] != codes[:-1]) | (stage[1:] != stage[:-1]) | (cycle[1:] != cycle[:-1])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], n)

    def key(i):
        return (cells[codes[i]], int(stage[i]), int(cycle[i]))

    # lexsort is stable, so a repeated point sorts after its first occurrence
    repeats = np.flatnonzero(~new[1:] & (idx[1:] == idx[:-1])) + 1
    if len(repeats):
        i = repeats[np.argmin(order[repeats])]
        raise DataError(f"row {order[i] + 2}: duplicate point {idx[i]} for curve {key(i)}")

    gap = np.logical_or.reduceat(idx != np.arange(n) - np.repeat(starts, ends - starts),
                                 starts)
    freq = rows["freq_hz"][order]
    rising = np.zeros(n, dtype=bool)
    rising[1:] = (np.diff(freq) >= 0) & ~new[1:]
    faulty = np.flatnonzero(gap | np.logical_or.reduceat(rising, starts))
    # curves before the first faulty group are built first: their own checks come first
    stop = faulty[0] if len(faulty) else len(starts)
    re_z, im_z = rows["re_z_ohm"][order], rows["im_z_ohm"][order]
    # `EisCurve`'s own checks per group in one pass; point order and lengths
    # hold already. A group that fails one is built through `EisCurve`, which
    # raises its message, and every other group is built unchecked
    head = starts[:stop]
    bad_point = (freq <= 0) | ~np.isfinite(freq) | ~np.isfinite(re_z) | ~np.isfinite(im_z)
    own = ((stage[head] < 1) | (stage[head] > 9) | (cycle[head] < 0)
           | np.logical_or.reduceat(bad_point, starts)[:stop])
    curves = [(EisCurve if bad else _bare_curve)(cells[c], st, cy, freq[a:b], re_z[a:b],
                                                 im_z[a:b])
              for c, st, cy, a, b, bad in zip(
                  codes[head].tolist(), stage[head].tolist(), cycle[head].tolist(),
                  head.tolist(), ends[:stop].tolist(), own.tolist())]
    if len(faulty):
        a, b = starts[stop], ends[stop]
        if gap[stop]:
            raise DataError(f"curve {key(a)}: point_index not contiguous 0..{b - a - 1}")
        raise DataError(f"curve {key(a)}: frequency not strictly descending")
    return curves


def load_eis_csv(path) -> list[EisCurve]:
    """Parse eis.csv into curves grouped by (cell_id, stage, cycle).

    The rows are read in one `np.loadtxt` pass and grouped with one lexsort;
    a file that pass refuses is re-read row by row, which names the bad row.
    Field counts and parse errors are reported before duplicate points, gaps
    and frequency order; a byte that is not UTF-8 is reported before all of
    them. Both readers take the text from the file a piece or a line at a
    time, never as one string.
    """
    with open_text(path, DataError, newline="") as fh:
        header = _past_header(fh)
        if header != EIS_HEADER:
            raise DataError(f"{path}: header {header} != expected {EIS_HEADER}")
        if not fh.read(1):
            return []
        rows = _loadtxt_rows(fh)
        if rows is None:
            rows = _csv_rows(fh)
    curves = _group_rows(rows)
    # all groups in a file must share one grid length
    if curves:
        counts = {c.n_points for c in curves}
        if len(counts) > 1:
            expected = max(counts,
                           key=lambda n: (sum(c.n_points == n for c in curves), n))
            bad = [c.key() for c in curves if c.n_points != expected]
            raise DataError(
                f"incomplete curve group(s) {bad}: expected {expected} points")
    return curves


def save_eis_csv(path, curves) -> None:
    """Write `curves` to eis.csv in (cell_id, stage, cycle) order, one curve
    at a time, with the bytes `csv.writer` gives each row. Two curves with the
    same key raise DataError before the file is opened, as `load_eis_csv`
    would refuse the file."""
    curves = sorted(curves, key=EisCurve.key)
    for a, b in zip(curves, curves[1:]):
        if a.key() == b.key():
            raise DataError(f"duplicate curve {a.key()}")
    key = io.StringIO()
    key_writer = csv.writer(key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(EIS_HEADER)
        for c in curves:
            # the key fields csv-quoted once per curve: "cell_id,stage,cycle,"
            key.seek(0)
            key.truncate()
            key_writer.writerow((c.cell_id, c.stage, c.cycle, ""))
            prefix = key.getvalue()[:-2]
            points = zip(c.freq_hz.tolist(), c.re_z_ohm.tolist(), c.im_z_ohm.tolist())
            fh.write("".join([f"{prefix}{i},{f!r},{re_z!r},{im_z!r}\r\n"
                              for i, (f, re_z, im_z) in enumerate(points)]))


def load_capacity_csv(path) -> dict[tuple[str, int], float]:
    """capacity.csv as (cell_id, cycle) -> mAh; a bad field count or number, a
    repeated key or a capacity not positive and finite raises DataError by row."""
    capacities = {}
    with open_text(path, DataError, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CAPACITY_HEADER:
            raise DataError(f"{path}: header {header} != expected {CAPACITY_HEADER}")
        for row_num, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise DataError(f"row {row_num}: expected 3 fields, got {len(row)}")
            key = (row[0], _parse_int(row[1], row_num, "cycle"))
            if key in capacities:
                raise DataError(f"row {row_num}: duplicate capacity record for {key}")
            capacities[key] = mah = _parse_float(row[2], row_num, "capacity_mah")
            if not 0 < mah < math.inf:
                raise DataError(f"row {row_num}: capacity must be positive and finite, "
                                f"got {mah} for {key}")
    return capacities


def save_capacity_csv(path, capacities) -> None:
    """Write (cell_id, cycle) -> capacity to capacity.csv in key order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CAPACITY_HEADER)
        writer.writerows((cell_id, cycle, repr(float(mah)))
                         for (cell_id, cycle), mah in sorted(capacities.items()))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def log_grid(f_max_hz: float, f_min_hz: float, n_points: int = T_POINTS) -> np.ndarray:
    """Descending log-spaced frequency grid from f_max down to f_min."""
    if f_max_hz <= f_min_hz or f_min_hz <= 0:
        raise DataError(f"invalid grid bounds [{f_min_hz}, {f_max_hz}]")
    return np.logspace(np.log10(f_max_hz), np.log10(f_min_hz), n_points)


def resample_log_grid(curve: EisCurve, t_target: int = T_POINTS) -> EisCurve:
    """Interpolate Re and Im linearly in log10(f) onto a log-spaced grid.

    The target grid spans the measured range, so no extrapolation occurs;
    a curve already on the target grid is returned unchanged in value.
    """
    if curve.n_points < 2:
        raise DataError(f"curve {curve.key()} needs >=2 points to resample")
    target = log_grid(curve.freq_hz[0], curve.freq_hz[-1], t_target)
    logf = np.log10(curve.freq_hz)[::-1]
    logt = np.log10(target)[::-1]
    if logt[0] < logf[0] - 1e-12 or logt[-1] > logf[-1] + 1e-12:
        raise DataError(f"curve {curve.key()}: target grid requires extrapolation")
    re_z = np.interp(logt, logf, curve.re_z_ohm[::-1])[::-1]
    im_z = np.interp(logt, logf, curve.im_z_ohm[::-1])[::-1]
    return replace(curve, freq_hz=target, re_z_ohm=re_z, im_z_ohm=im_z)


def fit_norm_stats(curves) -> NormStats:
    """Per-channel mean/std over all points of the given (training) curves."""
    re_all = np.concatenate([c.re_z_ohm for c in curves])
    im_all = np.concatenate([c.im_z_ohm for c in curves])
    re_scale = float(re_all.std()) or 1.0
    im_scale = float(im_all.std()) or 1.0
    return NormStats(float(re_all.mean()), re_scale, float(im_all.mean()), im_scale)


def normalized_array(curves, stats: NormStats, raw=None) -> np.ndarray:
    """The z-scored (N, 2, T) channels of `curves`, or of `raw` holding one
    (2, T) row per curve, in one broadcast. A non-finite result (an overflow,
    say) raises DataError naming the first such curve and channel."""
    if raw is None:
        raw = np.array([(c.re_z_ohm, c.im_z_ohm) for c in curves])
    mean, scale = stats._columns
    x = (raw - mean) / scale
    if not np.isfinite(x).all():
        row, channel = np.argwhere(~np.isfinite(x).all(axis=-1))[0]
        raise DataError(f"curve {curves[row].key()} has non-finite "
                        f"{('re_z_ohm', 'im_z_ohm')[channel]}")
    return x


def normalize(curves, stats: NormStats):
    """`normalized_array` as curves: each holds its row of the array."""
    x = normalized_array(curves, stats)
    return [_bare_curve(c.cell_id, c.stage, c.cycle, c.freq_hz, x[i, 0], x[i, 1])
            for i, c in enumerate(curves)]


def curve_to_array(curve: EisCurve) -> np.ndarray:
    """Stack a curve into the (2, T) channel layout consumed by the GAN."""
    return np.stack([curve.re_z_ohm, curve.im_z_ohm])


def array_to_channels(arr: np.ndarray, stats: NormStats):
    """Split a normalized (2, T) array back into denormalized (re, im)."""
    return (arr[0] * stats.re_scale + stats.re_mean,
            arr[1] * stats.im_scale + stats.im_mean)
