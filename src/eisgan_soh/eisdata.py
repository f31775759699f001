"""Data model and I/O for EIS spectra and capacity records.

CSV schema (External Interfaces):
    eis.csv      header: cell_id,stage,cycle,point_index,freq_hz,re_z_ohm,im_z_ohm
    capacity.csv header: cell_id,cycle,capacity_mah
point_index is 0-based ascending and maps to strictly descending frequency.
Floats are rendered with repr(), so ingest -> serialize -> ingest is lossless.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field, replace

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
            raise DataError(f"curve {self.key()} frequencies must be positive and strictly descending")
        for name in ("freq_hz", "re_z_ohm", "im_z_ohm"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"curve {self.key()} has non-finite {name}")

    def key(self):
        return (self.cell_id, self.stage, self.cycle)

    @property
    def n_points(self):
        return len(self.freq_hz)


#: the measurement stages taken under direct current: 2 start charging, 3 after
#: 20-min charging, 6 start discharging, 7 after 10-min discharging (of nine, 1..9)
DC_STAGES = frozenset({2, 3, 6, 7})


@dataclass(frozen=True)
class CapacityRecord:
    cell_id: str
    cycle: int
    capacity_mah: float

    def __post_init__(self):
        if self.capacity_mah <= 0 or not np.isfinite(self.capacity_mah):
            raise DataError(
                f"capacity must be positive and finite, got {self.capacity_mah} "
                f"for ({self.cell_id}, {self.cycle})")


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-score statistics fit on a training split."""

    re_mean: float
    re_scale: float
    im_mean: float
    im_scale: float

    def __post_init__(self):
        if self.re_scale <= 0 or self.im_scale <= 0:
            raise DataError("normalization scale must be positive")


@dataclass
class Dataset:
    """Curves plus capacity records with a declared train/test cell partition.
    A curve needs a capacity record only when its capacity is looked up."""

    curves: list[EisCurve]
    capacities: list[CapacityRecord]
    train_cells: tuple[str, ...]
    test_cells: tuple[str, ...]
    _cap_map: dict = field(init=False, repr=False)

    def __post_init__(self):
        if set(self.train_cells) & set(self.test_cells):
            raise DataError("train and test cell partitions overlap")
        self._cap_map = {}
        for rec in self.capacities:
            key = (rec.cell_id, rec.cycle)
            if key in self._cap_map:
                raise DataError(f"duplicate capacity record for {key}")
            self._cap_map[key] = rec.capacity_mah

    def capacity(self, cell_id: str, cycle: int) -> float:
        try:
            return self._cap_map[(cell_id, cycle)]
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


def _loadtxt_rows(body):
    """All data rows in one C-level pass, or None where that pass could differ
    from the row-by-row reader: loadtxt skips blank lines, strips \\x1c-\\x1f
    around numbers as whitespace and refuses fields or line endings that the
    row-by-row reader may parse or must name by row. Text with characters beyond
    U+FFFF is left to the row-by-row reader too: numpy 2.4's loadtxt can crash
    on them in numeric fields.
    """
    if (body.startswith(("\n", "\r")) or _BLANK_LINE.search(body)
            or any(c in body for c in "\x1c\x1d\x1e\x1f")
            or not body.isascii() and _ASTRAL.search(body)):
        return None
    try:
        return np.loadtxt(io.StringIO(body), dtype=_EIS_DTYPE, delimiter=",",
                          quotechar='"', comments=None, ndmin=1)
    except ValueError:
        return None


def _csv_rows(body):
    """The data rows read one at a time; raises the first `row N: ...` error."""
    cols = [[] for _ in EIS_HEADER]
    for row_num, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if len(row) != len(EIS_HEADER):
            raise DataError(f"row {row_num}: expected {len(EIS_HEADER)} fields, got {len(row)}")
        cols[0].append(row[0])
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
    curves = [EisCurve(*key(a), freq[a:b], re_z[a:b], im_z[a:b])
              for a, b in zip(starts[:stop], ends[:stop])]
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
    and frequency order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header != EIS_HEADER:
            raise DataError(f"{path}: header {header} != expected {EIS_HEADER}")
        body = fh.read()
    if not body:
        return []
    rows = _loadtxt_rows(body)
    curves = _group_rows(_csv_rows(body) if rows is None else rows)
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
    rows = []
    for c in curves:
        for i in range(c.n_points):
            rows.append((c.cell_id, c.stage, c.cycle, i,
                         repr(float(c.freq_hz[i])),
                         repr(float(c.re_z_ohm[i])),
                         repr(float(c.im_z_ohm[i]))))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EIS_HEADER)
        writer.writerows(rows)


def load_capacity_csv(path) -> list[CapacityRecord]:
    records = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CAPACITY_HEADER:
            raise DataError(f"{path}: header {header} != expected {CAPACITY_HEADER}")
        for row_num, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise DataError(f"row {row_num}: expected 3 fields, got {len(row)}")
            key = (row[0], _parse_int(row[1], row_num, "cycle"))
            if key in seen:
                raise DataError(f"row {row_num}: duplicate capacity record for {key}")
            seen.add(key)
            records.append(CapacityRecord(key[0], key[1],
                                          _parse_float(row[2], row_num, "capacity_mah")))
    return records


def save_capacity_csv(path, records) -> None:
    rows = sorted(((r.cell_id, r.cycle, repr(float(r.capacity_mah))) for r in records),
                  key=lambda r: (r[0], r[1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CAPACITY_HEADER)
        writer.writerows(rows)


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


def _with_channels(curve: EisCurve, re_z: np.ndarray, im_z: np.ndarray) -> EisCurve:
    """`curve` with new float64 Re/Im arrays of its own length.

    Stage, cycle, lengths and frequencies are the checked curve's own, so of
    `EisCurve`'s checks only finiteness can fail here (an overflow, say); the
    others are not re-run.
    """
    for name, values in (("re_z_ohm", re_z), ("im_z_ohm", im_z)):
        if not np.isfinite(values).all():
            raise DataError(f"curve {curve.key()} has non-finite {name}")
    new = object.__new__(EisCurve)
    new.__dict__.update(curve.__dict__, re_z_ohm=re_z, im_z_ohm=im_z)
    return new


def normalize(curves, stats: NormStats):
    return [_with_channels(c, (c.re_z_ohm - stats.re_mean) / stats.re_scale,
                           (c.im_z_ohm - stats.im_mean) / stats.im_scale)
            for c in curves]


def curve_to_array(curve: EisCurve) -> np.ndarray:
    """Stack a curve into the (2, T) channel layout consumed by the GAN."""
    return np.stack([curve.re_z_ohm, curve.im_z_ohm])


def array_to_channels(arr: np.ndarray, stats: NormStats):
    """Split a normalized (2, T) array back into denormalized (re, im)."""
    return (arr[0] * stats.re_scale + stats.re_mean,
            arr[1] * stats.im_scale + stats.im_mean)


def perturb_curve(curve: EisCurve, sigma: float, rng: np.random.Generator) -> EisCurve:
    """Add independent N(0, sigma^2) noise to every Re and Im sample."""
    if sigma < 0:
        raise DataError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0:
        return curve
    n = curve.n_points
    return _with_channels(curve, curve.re_z_ohm + rng.normal(0.0, sigma, n),
                          curve.im_z_ohm + rng.normal(0.0, sigma, n))
