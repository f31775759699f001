import csv
import os
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eisgan_soh import ecm, eisdata, pipeline
from eisgan_soh.eisdata import EIS_HEADER, DataError, Dataset, EisCurve, NormStats


#: stats that leave a channel's values as they are, bit for bit
IDENTITY = NormStats(0.0, 1.0, 0.0, 1.0)


def make_curve(cell="C1", stage=5, cycle=0, n=60, f_max=20000.0, f_min=0.02):
    freq = eisdata.log_grid(f_max, f_min, n)
    re_z = 0.5 + 0.01 * np.arange(n)
    im_z = -0.1 - 0.005 * np.arange(n)
    return EisCurve(cell, stage, cycle, freq, re_z, im_z)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_curve_rejects_ascending_frequency():
    with pytest.raises(DataError):
        EisCurve("C1", 5, 0, [1.0, 2.0], [0.0, 0.0], [0.0, 0.0])


def test_curve_rejects_nonfinite():
    with pytest.raises(DataError):
        EisCurve("C1", 5, 0, [2.0, 1.0], [np.nan, 0.0], [0.0, 0.0])


def test_stage_table_matches_measurement_protocol():
    # of the nine stages, DC is present in 2, 3, 6 and 7
    assert eisdata.DC_STAGES == {2, 3, 6, 7}


def test_dataset_requires_capacity_records():
    # a curve needs its capacity record only when the capacity is looked up
    ds = Dataset([make_curve(cycle=0), make_curve(cycle=1)], {("C1", 0): 40.0},
                 ("C1",), ("C2",))
    assert ds.capacity("C1", 0) == 40.0
    with pytest.raises(DataError, match=r"no capacity record for \('C1', 1\)"):
        ds.capacity("C1", 1)


def test_dataset_rejects_overlapping_partition():
    with pytest.raises(DataError):
        Dataset([make_curve()], {("C1", 0): 45.0}, ("C1",), ("C1",))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_eis_csv_round_trip(tmp_path):
    curves = [make_curve(cycle=i) for i in range(3)]
    path = tmp_path / "eis.csv"
    eisdata.save_eis_csv(path, curves)
    loaded = eisdata.load_eis_csv(path)
    assert len(loaded) == 3
    for a, b in zip(curves, loaded):
        assert a.key() == b.key()
        assert np.array_equal(a.freq_hz, b.freq_hz)
        assert np.array_equal(a.re_z_ohm, b.re_z_ohm)
        assert np.array_equal(a.im_z_ohm, b.im_z_ohm)
    # second serialization is byte-identical
    path2 = tmp_path / "eis2.csv"
    eisdata.save_eis_csv(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("fault", ["\n", "C1,5,0,9,1.0,0.5\n", "\x1c"])
def test_load_eis_csv_refuses_non_utf8_before_any_other_fault(tmp_path, monkeypatch, fault):
    # a blank line, a short row or a separator early, a byte that is no UTF-8
    # in a later piece: the decode error comes first, as when the whole file
    # was decoded before parsing
    monkeypatch.setattr(eisdata, "_PIECE_CHARS", 8)
    # past the file object's own read-ahead, so that the bad byte is read late
    rows = [r for i in range(1000) for r in curve_rows(f"C{i}")]
    text = "".join(",".join(map(str, r)) + "\n" for r in rows)
    path = tmp_path / "eis.csv"
    path.write_bytes((",".join(EIS_HEADER) + "\n" + fault).encode() + text.encode()
                     + b"X,5,0,0,\xff\n")
    # the bad byte is on the last line, counted in the whole file
    line = path.read_bytes().count(b"\n")
    with pytest.raises(DataError, match=re.escape(f"{path} line {line}: not UTF-8 text")):
        eisdata.load_eis_csv(path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_load_capacity_csv_refuses_non_utf8_naming_the_line(tmp_path, end):
    # far past the decoder's first chunk, whose offsets the error would count from
    rows = "".join(f"C1,{i},45.0{end}" for i in range(20000))
    path = tmp_path / "capacity.csv"
    path.write_bytes(("cell_id,cycle,capacity_mah" + end + rows).encode()
                     + b"C\xe92,0,45.0" + end.encode() + b"C3,0,45.0" + end.encode())
    with pytest.raises(DataError, match=re.escape(f"{path} line 20002: not UTF-8 text")):
        eisdata.load_capacity_csv(path)


def reference_save_eis_csv(path, curves):
    """The writer `save_eis_csv` replaced: every row built, then all sorted."""
    rows = []
    for c in curves:
        for i in range(c.n_points):
            rows.append((c.cell_id, c.stage, c.cycle, i, repr(float(c.freq_hz[i])),
                         repr(float(c.re_z_ohm[i])), repr(float(c.im_z_ohm[i]))))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EIS_HEADER)
        writer.writerows(rows)


def test_save_eis_csv_writes_the_bytes_of_the_sort_all_rows_writer(tmp_path):
    # ids kept verbatim: "SYN10" sorts before "SYN2", spaces, comma, quote,
    # line breaks and non-ASCII; curves of several stages and cycles, shuffled
    ids = ["SYN2", "SYN10", " a b ", "c,d", 'q"x', "x\ny", "x\r\ny", "é€"]
    rng = np.random.default_rng(0)
    curves = [make_curve(cell=cell, stage=stage, cycle=cycle, n=4 + cycle)
              for cell in ids for stage in (3, 5) for cycle in (0, 1, 10)]
    curves = [replace(c, re_z_ohm=rng.standard_normal(c.n_points) / 3)
              for c in (curves[i] for i in rng.permutation(len(curves)))]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    eisdata.save_eis_csv(got, curves)
    reference_save_eis_csv(want, curves)
    assert got.read_bytes() == want.read_bytes()


def test_save_eis_csv_refuses_a_repeated_curve_before_opening_the_file(tmp_path):
    path = tmp_path / "eis.csv"
    curves = [make_curve(cell="SYN01", cycle=0), make_curve(cell="SYN01", cycle=1),
              make_curve(cell="SYN01", cycle=0)]
    with pytest.raises(DataError, match=r"duplicate curve \('SYN01', 5, 0\)"):
        eisdata.save_eis_csv(path, curves)
    assert not path.exists()


def test_load_eis_csv_peak_memory_stays_near_the_file_size(tmp_path):
    # the whole text in an io.StringIO, 4 bytes a character, peaked at 6.6x
    path = tmp_path / "eis.csv"
    eisdata.save_eis_csv(path, ecm.synth_dataset(2, 2, 60, [5], 0).curves)
    tracemalloc.start()
    try:
        eisdata.load_eis_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * os.path.getsize(path)


def test_load_eis_csv_checks_blank_lines_across_pieces(tmp_path, monkeypatch):
    # pieces of 5 characters: a blank line or a separator may straddle two
    monkeypatch.setattr(eisdata, "_PIECE_CHARS", 5)
    rows = curve_rows("C1")
    for body, message in [("\n", "row 3: expected 7 fields, got 0"),
                          ("\r\n", "row 3: expected 7 fields, got 0"),
                          ("", None)]:
        path = tmp_path / "eis.csv"
        text = "".join(",".join(map(str, r)) + "\n" for r in rows)
        first = len(",".join(map(str, rows[0]))) + 1
        path.write_bytes((",".join(EIS_HEADER) + "\n" + text[:first] + body
                          + text[first:]).encode())
        outcome = load_outcome(eisdata.load_eis_csv, path)
        assert outcome == load_outcome(reference_load_eis_csv, path)
        assert outcome == message if message else isinstance(outcome, list)


def test_eis_csv_60_point_group(tmp_path):
    path = tmp_path / "eis.csv"
    eisdata.save_eis_csv(path, [make_curve()])
    (curve,) = eisdata.load_eis_csv(path)
    assert curve.n_points == 60
    assert curve.freq_hz[0] == pytest.approx(20000.0)
    assert curve.freq_hz[-1] == pytest.approx(0.02)


def test_eis_csv_empty_file(tmp_path):
    path = tmp_path / "eis.csv"
    path.write_text(",".join(eisdata.EIS_HEADER) + "\n")
    assert eisdata.load_eis_csv(path) == []


def test_eis_csv_incomplete_group_rejected(tmp_path):
    path = tmp_path / "eis.csv"
    eisdata.save_eis_csv(path, [make_curve(cycle=0), make_curve(cycle=1)])
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop point 59 of cycle 1
    with pytest.raises(DataError, match=r"incomplete.*'C1', 5, 1"):
        eisdata.load_eis_csv(path)


def test_eis_csv_gap_in_point_index_rejected(tmp_path):
    path = tmp_path / "eis.csv"
    path.write_text(",".join(eisdata.EIS_HEADER) + "\n"
                    "C1,5,0,0,20000.0,0.5,0.0\n"
                    "C1,5,0,2,10.0,0.5,0.0\n")
    with pytest.raises(DataError, match="contiguous"):
        eisdata.load_eis_csv(path)


def test_eis_csv_bad_header(tmp_path):
    path = tmp_path / "eis.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(DataError, match="header"):
        eisdata.load_eis_csv(path)


def test_eis_csv_nonnumeric_field_names_row(tmp_path):
    path = tmp_path / "eis.csv"
    path.write_text(",".join(eisdata.EIS_HEADER) + "\n"
                    "C1,5,0,0,20000.0,abc,0.0\n")
    with pytest.raises(DataError, match="row 2"):
        eisdata.load_eis_csv(path)


def test_eis_csv_duplicate_point_rejected(tmp_path):
    path = tmp_path / "eis.csv"
    path.write_text(",".join(eisdata.EIS_HEADER) + "\n"
                    "C1,5,0,0,20000.0,0.5,0.0\n"
                    "C1,5,0,0,20000.0,0.5,0.0\n")
    with pytest.raises(DataError, match="duplicate"):
        eisdata.load_eis_csv(path)


# ---------------------------------------------------------------------------
# eis.csv ingest against the row-by-row reference
# ---------------------------------------------------------------------------

def reference_load_eis_csv(path):
    """The row-by-row loader `load_eis_csv` replaced: one csv row at a time,
    grouped through a dict, first fault by row."""
    groups = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != EIS_HEADER:
            raise DataError(f"{path}: header {header} != expected {EIS_HEADER}")
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(EIS_HEADER):
                raise DataError(f"row {row_num}: expected {len(EIS_HEADER)} fields, got {len(row)}")
            cell, stage, cycle, idx = (row[0],
                                       eisdata._parse_int(row[1], row_num, "stage"),
                                       eisdata._parse_int(row[2], row_num, "cycle"),
                                       eisdata._parse_int(row[3], row_num, "point_index"))
            freq = eisdata._parse_float(row[4], row_num, "freq_hz")
            re_z = eisdata._parse_float(row[5], row_num, "re_z_ohm")
            im_z = eisdata._parse_float(row[6], row_num, "im_z_ohm")
            key = (cell, stage, cycle)
            points = groups.setdefault(key, {})
            if idx in points:
                raise DataError(f"row {row_num}: duplicate point {idx} for curve {key}")
            points[idx] = (freq, re_z, im_z)

    curves = []
    for key in sorted(groups):
        points = groups[key]
        n = len(points)
        if sorted(points) != list(range(n)):
            raise DataError(f"curve {key}: point_index not contiguous 0..{n - 1}")
        freq = np.array([points[i][0] for i in range(n)])
        re_z = np.array([points[i][1] for i in range(n)])
        im_z = np.array([points[i][2] for i in range(n)])
        if np.any(np.diff(freq) >= 0):
            raise DataError(f"curve {key}: frequency not strictly descending")
        curves.append(EisCurve(key[0], key[1], key[2], freq, re_z, im_z))
    if curves:
        counts = {c.n_points for c in curves}
        if len(counts) > 1:
            expected = max(counts,
                           key=lambda n: (sum(c.n_points == n for c in curves), n))
            bad = [c.key() for c in curves if c.n_points != expected]
            raise DataError(
                f"incomplete curve group(s) {bad}: expected {expected} points")
    return curves


def assert_same_curves(got, want):
    assert [c.key() for c in got] == [c.key() for c in want]
    for a, b in zip(got, want):
        for name in ("freq_hz", "re_z_ohm", "im_z_ohm"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (a.key(), name)


def write_eis(path, rows, lineterminator="\r\n"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(EIS_HEADER)
        writer.writerows(rows)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=5e-324, allow_infinity=False)


@st.composite
def eis_files(draw):
    """Rows of valid curves with arbitrary cell ids and floats, shuffled."""
    cells = draw(st.lists(st.text(max_size=6), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 4))
    rows = []
    for cell in cells:
        for stage, cycle in draw(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 3)),
                                          min_size=1, max_size=3, unique=True)):
            freq = sorted(draw(st.lists(positive, min_size=n, max_size=n, unique=True)),
                          reverse=True)
            for i, f in enumerate(freq):
                rows.append([cell, stage, cycle, i, repr(f),
                             repr(draw(finite)), repr(draw(finite))])
    return draw(st.permutations(rows)), draw(st.sampled_from(["\r\n", "\n"]))


def load_outcome(load, path):
    """Keys and the bytes of every array, or the DataError message."""
    try:
        return [(c.key(), c.freq_hz.tobytes(), c.re_z_ohm.tobytes(), c.im_z_ohm.tobytes())
                for c in load(path)]
    except DataError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(eis_files())
def test_load_eis_csv_matches_row_by_row_reference(case):
    # an id with a bare "\r" is not quoted under a "\n" terminator, so some
    # files are broken: both loaders must then raise the same error
    rows, lineterminator = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "eis.csv")
        write_eis(path, rows, lineterminator)
        assert (load_outcome(eisdata.load_eis_csv, path)
                == load_outcome(reference_load_eis_csv, path))


def test_quoted_cell_ids_take_the_loadtxt_pass(tmp_path, monkeypatch):
    def no_row_by_row(body):
        raise AssertionError("row-by-row reader used")

    monkeypatch.setattr(eisdata, "_csv_rows", no_row_by_row)
    curves = [make_curve(cell=cell, n=3) for cell in ("SYN,01", 'a"b', "x\r\ny", " #é ")]
    path = tmp_path / "eis.csv"
    eisdata.save_eis_csv(path, curves)
    assert_same_curves(eisdata.load_eis_csv(path), reference_load_eis_csv(path))


@pytest.mark.parametrize("cycle", [" 10 ", "1_0", "١٠"])
def test_integer_fields_read_as_int_does(tmp_path, cycle):
    # int() reads each as 10: loadtxt reads the first, the row-by-row reader the others
    path = tmp_path / "eis.csv"
    write_eis(path, [["C1", 5, cycle, 0, "2.0", "0.5", "-0.1"],
                     ["C1", 5, cycle, 1, "1.0", "0.6", "-0.2"]])
    (curve,) = eisdata.load_eis_csv(path)
    assert curve.key() == ("C1", 5, 10)
    assert_same_curves([curve], reference_load_eis_csv(path))


@pytest.mark.parametrize("body, message", [
    ("C1,5,0,0,2.0,0.5,-0.1\nC1,5,0,1,1.0,0.5\n",
     "row 3: expected 7 fields, got 6"),
    ("C1,5,0,0,2.0,0.5,-0.1,\n",
     "row 2: expected 7 fields, got 8"),
    ("C1,5,0,0,2.0,0.5,-0.1\nC1,5,x,1,1.0,0.5,-0.1\n",
     "row 3: non-integer cycle value 'x'"),
    ("C1,5,0,0,2.0,0.5,-0.1\nC1,5,0,1,1.0,0.5,abc\n",
     "row 3: non-numeric im_z_ohm value 'abc'"),
    ("C1,5,0,0,2.0,0.5,-0.1\nC1,5,0,1,1.0,0.5,-0.1\nC1,5,0,1,1.0,0.5,-0.1\n",
     "row 4: duplicate point 1 for curve ('C1', 5, 0)"),
    ("C1,5,0,0,2.0,0.5,-0.1\nC1,5,0,2,1.0,0.5,-0.1\n",
     "curve ('C1', 5, 0): point_index not contiguous 0..1"),
    ("C1,5,0,1,2.0,0.5,-0.1\nC1,5,0,0,1.0,0.5,-0.1\n",
     "curve ('C1', 5, 0): frequency not strictly descending"),
    ("C1,5,0,0,2.0,0.5,-0.1\nC1,5,0,1,1.0,0.5,-0.1\nC1,5,1,0,2.0,0.5,-0.1\n",
     "incomplete curve group(s) [('C1', 5, 1)]: expected 2 points"),
    # loadtxt would skip a blank line; it stays an error, as it always was
    ("C1,5,0,0,2.0,0.5,-0.1\n\nC1,5,0,1,1.0,0.5,-0.1\n",
     "row 3: expected 7 fields, got 0"),
    ("C1,5,0,0,2.0,0.5,-0.1\r\n\r\nC1,5,0,1,1.0,0.5,-0.1\r\n",
     "row 3: expected 7 fields, got 0"),
    ("C1,5,0,0,2.0,0.5,-0.1\nC1,5,0,1,1.0,0.5,-0.1\n\n",
     "row 4: expected 7 fields, got 0"),
    ("C1,5,0,0,2.0,0.5,-0.1\n   \nC1,5,0,1,1.0,0.5,-0.1\n",
     "row 3: expected 7 fields, got 1"),
    # loadtxt strips \x1c around numbers as whitespace; float() does not
    ("C1,5,0,0,2.0\x1c,0.5,-0.1\n",
     "row 2: non-numeric freq_hz value '2.0\\x1c'"),
    # non-BMP characters in a numeric field
    ("C1,5,0,0,2.0\U0001F600,0.5,-0.1\n",
     "row 2: non-numeric freq_hz value '2.0\U0001F600'"),
    # checks inside EisCurve run in group order, before a later group's gap
    ("A,0,0,0,2.0,0.5,-0.1\nB,5,0,1,2.0,0.5,-0.1\n",
     "stage must be in 1..9, got 0"),
])
def test_eis_csv_errors_match_reference(tmp_path, body, message):
    path = tmp_path / "eis.csv"
    path.write_bytes((",".join(EIS_HEADER) + "\n" + body).encode("utf-8"))
    for load in (eisdata.load_eis_csv, reference_load_eis_csv):
        with pytest.raises(DataError) as exc:
            load(path)
        assert str(exc.value) == message, load.__name__


def curve_rows(cell, stage=5, cycle=0, fault=None, order=None):
    """The three rows of one curve. `fault` breaks one of `EisCurve`'s own
    checks: ("stage", v) or ("cycle", v) for the curve, or (column, v) on its
    last point. `order` breaks point order: "gap" skips point_index 2,
    "rising" swaps the first two frequencies."""
    freq, idx = [3.0, 2.0, 1.0], [0, 1, 2]
    re_z, im_z = [0.5, 0.6, 0.7], [-0.1, -0.2, -0.3]
    columns = {"freq_hz": freq, "re_z_ohm": re_z, "im_z_ohm": im_z}
    if fault and fault[0] in columns:
        columns[fault[0]][-1] = fault[1]
    elif fault:
        stage, cycle = (fault[1], cycle) if fault[0] == "stage" else (stage, fault[1])
    if order == "gap":
        idx[-1] = 3
    elif order == "rising":
        freq[:2] = freq[1::-1]
    return [[cell, stage, cycle, i, repr(f), repr(r), repr(m)]
            for i, f, r, m in zip(idx, freq, re_z, im_z)]


OWN_FAULTS = [("stage", 0), ("stage", 10), ("cycle", -1), ("freq_hz", 0.0),
              ("freq_hz", np.nan), ("re_z_ohm", np.nan), ("im_z_ohm", np.nan)]


@pytest.mark.parametrize("order", ["gap", "rising"])
@pytest.mark.parametrize("fault", OWN_FAULTS, ids=lambda f: f"{f[0]}={f[1]}")
def test_own_curve_checks_match_reference_around_an_order_fault(tmp_path, fault, order):
    # the curve failing `fault` sorts before, with or after the curve with
    # the order fault, or there is no order fault at all
    for own_cell, order_cell in (("A", "C"), ("C", "C"), ("E", "C"), ("C", None)):
        rows = []
        for cell in "ABCDE":
            rows += curve_rows(cell, fault=fault if cell == own_cell else None,
                               order=order if cell == order_cell else None)
        path = tmp_path / f"{own_cell}{order_cell}.csv"
        write_eis(path, rows[::-1])
        got = load_outcome(eisdata.load_eis_csv, path)
        assert isinstance(got, str), (own_cell, order_cell)
        assert got == load_outcome(reference_load_eis_csv, path), (own_cell, order_cell)


def test_eis_csv_reports_parse_errors_before_duplicates(tmp_path):
    path = tmp_path / "eis.csv"
    path.write_text(",".join(EIS_HEADER) + "\n"
                    "C1,5,0,0,2.0,0.5,-0.1\n"
                    "C1,5,0,0,2.0,0.5,-0.1\n"
                    "C1,5,0,1,1.0,0.5,abc\n")
    with pytest.raises(DataError, match="row 3: duplicate point 0"):
        reference_load_eis_csv(path)
    with pytest.raises(DataError, match="row 4: non-numeric im_z_ohm value 'abc'"):
        eisdata.load_eis_csv(path)


def test_eis_csv_rejects_integers_beyond_64_bits(tmp_path):
    path = tmp_path / "eis.csv"
    path.write_text(",".join(EIS_HEADER) + "\n"
                    "C1,5,0,0,2.0,0.5,-0.1\n"
                    "C1,5,99999999999999999999,0,2.0,0.5,-0.1\n")
    with pytest.raises(DataError, match="row 3: cycle value 99999999999999999999 out of range"):
        eisdata.load_eis_csv(path)


@pytest.mark.parametrize("header", ["", "\n", "\r\n"])
def test_eis_csv_header_only_gives_no_curves_and_no_warning(tmp_path, header):
    path = tmp_path / "eis.csv"
    path.write_bytes((",".join(EIS_HEADER) + header).encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eisdata.load_eis_csv(path) == []


def test_capacity_csv_round_trip(tmp_path):
    # written in (cell_id, cycle) order whatever order the mapping holds
    capacities = {("C2", 0): 44.5, **{("C1", i): 45.0 - 0.01 * i for i in (10, 2, 0, 1)}}
    path = tmp_path / "capacity.csv"
    eisdata.save_capacity_csv(path, capacities)
    assert path.read_text().splitlines()[1:] == [
        "C1,0,45.0", "C1,1,44.99", "C1,2,44.98", "C1,10,44.9", "C2,0,44.5"]
    loaded = eisdata.load_capacity_csv(path)
    assert loaded == capacities
    path2 = tmp_path / "capacity2.csv"
    eisdata.save_capacity_csv(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def write_capacity_rows(tmp_path, *rows):
    path = tmp_path / "capacity.csv"
    path.write_text("".join(f"{row}\n" for row in ("cell_id,cycle,capacity_mah",) + rows))
    return path


def test_capacity_must_be_positive(tmp_path):
    path = write_capacity_rows(tmp_path, "C1,0,45.0", "C1,1,-1.0")
    with pytest.raises(DataError, match=re.escape(
            "row 3: capacity must be positive and finite, got -1.0 for ('C1', 1)")):
        eisdata.load_capacity_csv(path)


@pytest.mark.parametrize("row, message", [
    ("C1,1,0.0", "capacity must be positive and finite, got 0.0 for ('C1', 1)"),
    ("C1,1,nan", "capacity must be positive and finite, got nan for ('C1', 1)"),
    ("C1,1,inf", "capacity must be positive and finite, got inf for ('C1', 1)"),
    ("C1,1,-inf", "capacity must be positive and finite, got -inf for ('C1', 1)"),
    ("C1,0,44.0", "duplicate capacity record for ('C1', 0)"),
    ("C1,1", "expected 3 fields, got 2"),
    ("C1,one,44.0", "non-integer cycle value 'one'"),
    ("C1,1,big", "non-numeric capacity_mah value 'big'"),
], ids=["zero", "nan", "inf", "-inf", "duplicate", "short", "bad cycle", "bad capacity"])
def test_load_capacity_csv_refuses_a_bad_row_naming_it(tmp_path, row, message):
    path = write_capacity_rows(tmp_path, "C1,0,45.0", "C2,0,45.0", row, "C3,0,45.0")
    with pytest.raises(DataError, match=re.escape(f"row 4: {message}")):
        eisdata.load_capacity_csv(path)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_resample_fixed_point():
    curve = make_curve(n=60)
    out = eisdata.resample_log_grid(curve, 60)
    np.testing.assert_allclose(out.re_z_ohm, curve.re_z_ohm, atol=1e-9)
    np.testing.assert_allclose(out.im_z_ohm, curve.im_z_ohm, atol=1e-9)


def test_resample_two_point_midpoint():
    curve = EisCurve("C1", 5, 0, [100.0, 1.0], [1.0, 3.0], [-1.0, -3.0])
    out = eisdata.resample_log_grid(curve, 3)
    # middle of the log-f grid is the geometric mean -> arithmetic mean of values
    assert out.freq_hz[1] == pytest.approx(10.0)
    assert out.re_z_ohm[1] == pytest.approx(2.0)
    assert out.im_z_ohm[1] == pytest.approx(-2.0)


def test_resample_output_length():
    curve = make_curve(n=97)
    out = eisdata.resample_log_grid(curve, 60)
    assert out.n_points == 60


def test_resample_needs_two_points():
    curve = EisCurve("C1", 5, 0, [1.0], [1.0], [0.0])
    with pytest.raises(DataError):
        eisdata.resample_log_grid(curve, 60)


def test_normalize_identity_stats():
    curve = make_curve()
    stats = NormStats(0.0, 1.0, 0.0, 1.0)
    (out,) = eisdata.normalize([curve], stats)
    np.testing.assert_array_equal(out.re_z_ohm, curve.re_z_ohm)


def test_normalize_constant_channel_zeros():
    curve = make_curve()
    stats = NormStats(float(curve.re_z_ohm[0]), 1.0, 0.0, 1.0)
    flat = curve.re_z_ohm * 0 + curve.re_z_ohm[0]
    (out,) = eisdata.normalize([replace(curve, re_z_ohm=flat)], stats)
    assert np.all(out.re_z_ohm == 0.0)


def test_normalize_round_trip():
    curves = [make_curve(cycle=i) for i in range(4)]
    stats = eisdata.fit_norm_stats(curves)
    for a, b in zip(curves, eisdata.normalize(curves, stats)):
        re_z, im_z = eisdata.array_to_channels(eisdata.curve_to_array(b), stats)
        np.testing.assert_allclose(a.re_z_ohm, re_z, atol=1e-12)
        np.testing.assert_allclose(a.im_z_ohm, im_z, atol=1e-12)


def _replace_reference(curve, re_z, im_z):
    return replace(curve, re_z_ohm=re_z, im_z_ohm=im_z)


def _assert_same_curve(out, ref):
    assert type(out) is EisCurve
    assert out.key() == ref.key()
    for name in ("freq_hz", "re_z_ohm", "im_z_ohm"):
        got, want = getattr(out, name), getattr(ref, name)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)


def test_transforms_equal_dataclasses_replace_bit_for_bit():
    rng = np.random.default_rng(5)
    curves = [EisCurve(f"C{i}", 1 + i % 9, i, eisdata.log_grid(2e4, 0.02, 60),
                       rng.normal(0.4, 0.2, 60), rng.normal(-0.1, 0.05, 60))
              for i in range(12)]
    stats = NormStats(0.37, 0.21, -0.08, 0.047)
    for out, c in zip(eisdata.normalize(curves, stats), curves):
        _assert_same_curve(out, _replace_reference(
            c, (c.re_z_ohm - stats.re_mean) / stats.re_scale,
            (c.im_z_ohm - stats.im_mean) / stats.im_scale))
    x = eisdata.normalized_array(curves, stats)
    assert x.dtype == np.float64 and x.flags.c_contiguous
    assert x.tobytes() == np.stack([eisdata.curve_to_array(c) for c in
                                    eisdata.normalize(curves, stats)]).tobytes()
    for c in curves:
        out = pipeline._noisy_array(c, 0.003, 2, np.random.default_rng(c.cycle))
        rng = np.random.default_rng(c.cycle)
        for row in out:
            ref = [c.re_z_ohm + rng.normal(0.0, 0.003, 60),
                   c.im_z_ohm + rng.normal(0.0, 0.003, 60)]
            assert row.tobytes() == np.stack(ref).tobytes()


def test_transform_results_stay_frozen_and_independent():
    curve = make_curve()
    (out,) = eisdata.normalize([curve], NormStats(0.1, 2.0, 0.0, 1.0))
    with pytest.raises(AttributeError):
        out.re_z_ohm = curve.re_z_ohm
    assert out.freq_hz is curve.freq_hz
    assert out.re_z_ohm is not curve.re_z_ohm
    assert np.array_equal(curve.re_z_ohm, make_curve().re_z_ohm)


@pytest.mark.parametrize("transform, channel", [
    (lambda c: eisdata.normalize([c], NormStats(0.0, 1e-310, 0.0, 1.0)), "re_z_ohm"),
    (lambda c: eisdata.normalize([c], NormStats(0.0, 1.0, 0.0, 1e-310)), "im_z_ohm"),
    (lambda c: pipeline.FeatureMap(None, IDENTITY)(
        [c] * 3, pipeline._noisy_array(c, 1e308, 3, np.random.default_rng(0))), "re_z_ohm"),
], ids=["normalize-re", "normalize-im", "perturb"])
def test_transforms_raise_data_error_on_overflow(transform, channel):
    curve = make_curve(cell="CX", stage=3, cycle=7)
    with np.errstate(over="ignore"), pytest.raises(
            DataError, match=rf"curve \('CX', 3, 7\) has non-finite {channel}"):
        transform(curve)


def test_normalized_array_names_the_first_non_finite_curve():
    curves = [make_curve(cycle=i) for i in range(3)]
    curves[2] = replace(curves[2], im_z_ohm=curves[2].im_z_ohm * 1e300)
    curves[1] = replace(curves[1], im_z_ohm=curves[1].im_z_ohm * 1e300)
    with np.errstate(over="ignore"), pytest.raises(
            DataError, match=r"curve \('C1', 5, 1\) has non-finite im_z_ohm"):
        eisdata.normalized_array(curves, NormStats(0.0, 1.0, 0.0, 1e-10))


def test_perturb_sigma_zero_identity():
    curve = make_curve()
    out = pipeline._noisy_array(curve, 0.0, 3, np.random.default_rng(0))
    assert out.shape == (3, 2, 60)
    for row in out:
        assert row.tobytes() == eisdata.curve_to_array(curve).tobytes()


def test_perturb_reproducible_under_seed():
    curve = make_curve()
    a = pipeline._noisy_array(curve, 0.003, 4, np.random.default_rng(42))
    b = pipeline._noisy_array(curve, 0.003, 4, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert not np.array_equal(a[0], a[1])


def test_perturb_sample_std():
    curve = make_curve(n=60)
    # 1000 copies x 120 samples > 1e5 draws
    out = pipeline._noisy_array(curve, 0.003, 1000, np.random.default_rng(1))
    std = (out - eisdata.curve_to_array(curve)).std()
    assert abs(std - 0.003) / 0.003 < 0.02


def test_perturb_preserves_metadata():
    # the draw adds to a copy: the clean curve keeps its key, grid and values
    curve = make_curve(cell="CX", stage=3, cycle=7)
    before = eisdata.curve_to_array(curve)
    pipeline._noisy_array(curve, 0.001, 2, np.random.default_rng(0))
    assert curve.key() == ("CX", 3, 7)
    assert np.array_equal(curve.freq_hz, make_curve().freq_hz)
    assert eisdata.curve_to_array(curve).tobytes() == before.tobytes()


@settings(max_examples=200, deadline=None)
@given(log_f=st.lists(st.floats(-3.0, 5.0), min_size=2, max_size=80, unique=True),
       t_target=st.integers(2, 120), seed=st.integers(0, 2**32 - 1))
def test_resample_idempotent_on_target_grid(log_f, t_target, seed):
    freq = 10.0 ** np.sort(np.array(log_f))[::-1]
    assume(np.all(np.diff(freq) < 0))   # two logs may round to one frequency
    rng = np.random.default_rng(seed)
    curve = EisCurve("C1", 5, 0, freq, rng.uniform(0.01, 2.0, len(freq)),
                     rng.uniform(-1.0, 0.2, len(freq)))
    grid = eisdata.log_grid(freq[0], freq[-1], t_target)
    if np.any(np.diff(grid) >= 0):
        # A span of a few ulps cannot hold t_target distinct frequencies, and
        # EisCurve rejects the resampled curve.
        with pytest.raises(DataError):
            eisdata.resample_log_grid(curve, t_target)
        return
    once = eisdata.resample_log_grid(curve, t_target)
    twice = eisdata.resample_log_grid(once, t_target)
    np.testing.assert_allclose(twice.freq_hz, once.freq_hz, rtol=1e-12, atol=0)
    np.testing.assert_allclose(twice.re_z_ohm, once.re_z_ohm, rtol=0, atol=1e-9)
    np.testing.assert_allclose(twice.im_z_ohm, once.im_z_ohm, rtol=0, atol=1e-9)
