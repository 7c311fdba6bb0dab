import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy import (
    DivergenceMatrix,
    ExponentialParams,
    SampleBatch,
    SeededSampler,
    load_csv,
    pairwise_matrix,
    sample_batch,
)
from extropy import grouping
from extropy.errors import CsvParseError, InvalidParameter, MissingColumn, TooFewObservations
from extropy.estimation import _sorted_quantile
from extropy.grouping import GroupedDataset
from extropy.reports import matrix_csv_text
from oracles import load_csv_rows, load_sample_rows


def write_csv(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def customers_csv(tmp_path):
    rng = np.random.default_rng(99)
    rows = ["income,spending,gender"]
    for _ in range(200):
        income = float(rng.uniform(15, 137))
        spending = float(rng.normal(50, 15))
        gender = "m" if rng.random() < 0.5 else "f"
        rows.append(f"{income:.1f},{spending:.2f},{gender}")
    return write_csv(tmp_path / "customers.csv", rows)


def test_group_by_label_column(customers_csv):
    ds = load_csv(customers_csv, "spending", group_column="gender")
    assert ds.labels == ("f", "m")
    assert sum(batch.n for _, batch in ds.groups) == 200
    assert ds.dropped_rows == 0


def test_quantile_grouping_labels_and_partition(customers_csv):
    ds = load_csv(customers_csv, "spending", "income", cut_probabilities=(0.2, 0.4, 0.6, 0.8))
    assert len(ds.groups) == 5
    assert ds.labels[0].startswith("[") and ds.labels[0].endswith("]")
    for label in ds.labels[1:]:
        assert label.startswith("(") and label.endswith("]")
    assert sum(batch.n for _, batch in ds.groups) == 200


def test_quantile_edges_use_linear_interpolation(tmp_path):
    values = list(range(1, 101))
    rows = ["x,y"] + [f"{v},{v * 2}" for v in values]
    path = write_csv(tmp_path / "grid.csv", rows)
    ds = load_csv(path, "y", "x", cut_probabilities=(0.5,))
    median = float(np.quantile(np.array(values, dtype=float), 0.5))
    assert ds.labels == (f"[1,{median:g}]", f"({median:g},100]")


def test_quantile_tie_goes_to_lower_interval(tmp_path):
    # quantile 0.5 of 1..11 is exactly 6; the row with x=6 must join the lower band
    rows = ["x,y"] + [f"{v},{v}.5" for v in range(1, 12)]
    path = write_csv(tmp_path / "tie.csv", rows)
    ds = load_csv(path, "y", "x", cut_probabilities=(0.5,))
    assert ds.groups[0][1].n == 6  # 1..6 inclusive
    assert ds.groups[1][1].n == 5


def test_missing_values_dropped_and_counted(tmp_path):
    rows = ["g,v", "a,1", "a,", "a,2", ",3", "a,4", "a,5", "a,6",
            "b,1", "b,2", "b,3", "b,4", "b,5"]
    path = write_csv(tmp_path / "gaps.csv", rows)
    ds = load_csv(path, "v", group_column="g")
    assert ds.dropped_rows == 2
    assert dict((l, b.n) for l, b in ds.groups) == {"a": 5, "b": 5}


@pytest.mark.parametrize("load", ["load_csv", "load_sample"])
def test_csv_rows_are_streamed(tmp_path, load):
    # 8,000 rows in the form of the benchmark's customer CSV: the rows stream
    # from the reader, so a list of 8,000 row dicts (about 3.2 MB) is never held
    rng = np.random.default_rng(8)
    rows = [f"{i:.2f},{s:.3f}" for i, s in zip(rng.uniform(15.0, 137.0, 8000), rng.normal(50.0, 11.0, 8000))]
    path = write_csv(tmp_path / "customers.csv", ["income,spending", *rows])
    tracemalloc.start()
    try:
        if load == "load_csv":
            load_csv(path, "spending", "income", cut_probabilities=(0.1, 0.3, 0.6))
        else:
            grouping.load_sample(path, "spending")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


def test_load_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(str(tmp_path / "absent.csv"), "v", group_column="g")

    path = write_csv(tmp_path / "bad.csv", ["g,v", "a,1"])
    with pytest.raises(MissingColumn):
        load_csv(path, "nope", group_column="g")

    path = write_csv(tmp_path / "parse.csv", ["g,v", "a,1", "a,zzz"])
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "v", group_column="g")
    assert err.value.row == 3 and err.value.column == "v"

    path = write_csv(
        tmp_path / "small.csv", ["g,v"] + [f"a,{i}" for i in range(5)] + ["b,1", "b,2", "b,3"]
    )
    with pytest.raises(TooFewObservations):
        load_csv(path, "v", group_column="g")

    with pytest.raises(InvalidParameter, match="strictly increasing"):
        load_csv(path, "v", "g", cut_probabilities=(0.4, 0.2))
    with pytest.raises(InvalidParameter, match="strictly inside"):
        load_csv(path, "v", "g", cut_probabilities=(0.5, 1.0))

    for rows in (["g,v"], ["g,v", "1,1"]):  # no rows once raised an IndexError
        path = write_csv(tmp_path / "tiny.csv", rows)
        for cuts in (None, (0.5,)):
            with pytest.raises(TooFewObservations):
                load_csv(path, "v", "g", cut_probabilities=cuts)


# --- pairwise matrix ------------------------------------------------------------


def _dataset(groups):
    return GroupedDataset(groups=tuple(groups), dropped_rows=0)


def test_matrix_identical_groups_zero():
    s = SeededSampler(1)
    g = sample_batch(ExponentialParams(1.0), 50, s)
    ds = _dataset([("a", g), ("b", SampleBatch(g.values.copy()))])
    m = pairwise_matrix(ds)
    assert m.values[0, 1] == 0.0


def test_matrix_seeded_exponential_pair_near_truth():
    s = SeededSampler(20260810)
    gx = sample_batch(ExponentialParams(1.0), 200, s, substream=0)
    gy = sample_batch(ExponentialParams(2.0), 200, s, substream=1)
    m = pairwise_matrix(_dataset([("x", gx), ("y", gy)]))
    assert abs(m.values[0, 1] - 0.0833) <= 0.03
    assert len(m.bandwidths) == 2


def test_matrix_mirrored_and_invariants():
    s = SeededSampler(5)
    groups = [
        (f"g{i}", sample_batch(ExponentialParams(1.0 + 0.4 * i), 40, s, substream=i))
        for i in range(4)
    ]
    m = pairwise_matrix(_dataset(groups))
    assert m.values.shape == (4, 4)
    for i in range(4):
        assert m.values[i, i] == 0.0
        for j in range(4):
            assert m.values[i, j] == m.values[j, i]
            assert m.values[i, j] >= 0.0


def test_matrix_validation_rejects_bad_input():
    with pytest.raises(InvalidParameter):
        DivergenceMatrix(labels=("a", "b"), values=np.array([[0.0, 1.0], [0.9, 0.0]]))
    with pytest.raises(InvalidParameter):
        DivergenceMatrix(labels=("a", "b"), values=np.array([[0.1, 1.0], [1.0, 0.0]]))
    with pytest.raises(InvalidParameter):
        DivergenceMatrix(labels=("a", "b"), values=np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_matrix_csv_quotes_comma_labels():
    m = DivergenceMatrix(labels=("[15,37.8]", "(37.8,54]"), values=np.array([[0.0, 0.5], [0.5, 0.0]]))
    text = matrix_csv_text(m)
    header = text.splitlines()[0]
    assert header == 'group,"[15,37.8]","(37.8,54]"'


def test_heatmap_cells_and_ramp():
    from extropy.reports import heatmap_svg

    k = 5
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                values[i, j] = 0.01 * abs(i - j)
    m = DivergenceMatrix(labels=tuple(f"g{i}" for i in range(k)), values=values)
    svg = heatmap_svg(m)
    assert svg.count("<rect") == 25
    assert "color ramp" in svg.splitlines()[1]

    def fill_of(i, j):
        # cells are emitted row-major after the axis labels
        rects = [line for line in svg.splitlines() if line.startswith("<rect")]
        line = rects[i * k + j]
        return line.split('fill="')[1].split('"')[0]

    def brightness(fill):
        r, g, b = (int(v) for v in fill[4:-1].split(","))
        return r + g + b

    # larger value -> darker cell; zero diagonal is white
    assert brightness(fill_of(0, 4)) < brightness(fill_of(0, 1))
    assert fill_of(0, 0) == "rgb(255,255,255)"


def test_quantile_key_parse_error_reports_file_line(tmp_path):
    # a dropped row (its value cell is missing) must not shift reported line numbers
    rows = ["x,y", "1,", "zzz,2", "3,3"]
    path = write_csv(tmp_path / "lines.csv", rows)
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "y", "x", cut_probabilities=(0.5,))
    assert err.value.row == 3 and err.value.column == "x"


def test_parse_errors_report_file_line_after_a_multiline_cell(tmp_path):
    # the second record's quoted note spans file lines 3-4, so the bad row is on line 10
    rows = ["g,v,note", "1,1,x", '2,2,"two', 'lines"'] + [f"{i},{i},x" for i in range(3, 8)]
    path = write_csv(tmp_path / "note.csv", rows + ["b,bad,x", "9,9,x"])
    loads = (lambda: grouping.load_sample(path, "v"), lambda: load_csv(path, "v", "g"))
    for load in loads:
        with pytest.raises(CsvParseError) as err:
            load()
        assert err.value.row == 10 and err.value.column == "v"
    path = write_csv(tmp_path / "key.csv", rows + ["bad,1,x", "9,9,x"])
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "v", "g", cut_probabilities=(0.5,))
    assert err.value.row == 10 and err.value.column == "g"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e150, 1e150)), min_size=1, max_size=80),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=6, unique=True),
)
def test_quantile_cuts_match_numpy_quantile(keys, ps):
    # load_csv reads its cuts off the sorted key column, where a key of -0 is
    # read as 0; np.quantile would import numpy.ma
    ps = sorted(ps)
    arr = np.asarray(keys) + 0.0
    cuts = [_sorted_quantile(np.sort(arr), p) for p in ps]
    assert np.array(cuts).tobytes() == np.quantile(arr, ps).tobytes()


def test_quantile_bands_match_numpy_quantile(tmp_path):
    # integer keys put ties on the cuts; the bands are those np.quantile's cuts give
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 40, 600).astype(float)
    path = write_csv(tmp_path / "ties.csv", ["x,y"] + [f"{k:g},{i}" for i, k in enumerate(keys)])
    for ps in ((0.1, 0.3, 0.6), (0.25, 0.5, 0.75), (1 / 3, 2 / 3)):
        band = np.searchsorted(np.quantile(keys, ps), keys, side="left")
        ds = load_csv(path, "y", "x", cut_probabilities=ps)
        assert [b.n for _, b in ds.groups] == np.bincount(band).tolist()
    # a key of -0 is 0, so no edge reads "-0" whichever zero numpy would have picked
    keys = [*range(-10, 0), "0", "0", "0", *["-0"] * 6, "0", *range(1, 11)]
    path = write_csv(tmp_path / "zeros.csv", ["x,y"] + [f"{k},{i}" for i, k in enumerate(keys)])
    assert load_csv(path, "y", "x", cut_probabilities=(0.5,)).labels == ("[-10,0]", "(0,10]")


def test_matrix_propagates_an_error_that_is_not_the_packages(monkeypatch):
    # only a package error is relabelled with its group: one whose constructor
    # takes other arguments (numpy's _ArrayMemoryError(shape, dtype)) came out a TypeError
    class ShapeError(MemoryError):
        def __init__(self, shape, dtype):
            super().__init__(f"cannot allocate {shape} of {dtype}")

    raised = ShapeError((1 << 40,), "float64")

    def fail(batch):
        raise raised

    monkeypatch.setattr(grouping, "sheather_jones_bandwidth", fail)
    s = SeededSampler(4)
    ds = _dataset([("a", sample_batch(ExponentialParams(1.0), 50, s, substream=0)),
                   ("b", sample_batch(ExponentialParams(2.0), 50, s, substream=1))])
    with pytest.raises(ShapeError) as err:
        pairwise_matrix(ds)
    assert err.value is raised


def _quirky_csv(path, records, plant=None, seed=3):
    """``records`` (label, income, spending) rows with every quirk the reader keeps.

    Blank lines, short rows, padded and whitespace-only cells, notes quoted
    across lines, the spellings 1e3, 1_0, .5, " -0 " and +2, and a repeated
    header name whose last column is the one read (the first holds "x").
    ``plant`` maps a record index to column names and the cells to put
    there, and "before" to the lines to put before the record.
    """
    rng = np.random.default_rng(seed)
    spellings = ["1e3", "1_0", ".5", " -0 ", "+2"]
    lines = ["label,income,spending,note,spending"]
    for r in range(records):
        cells = {
            "label": f"  {'abc'[rng.integers(3)]} ",
            "income": f"{rng.uniform(15.0, 137.0):.2f}",
            "spending": f" {rng.normal(50.0, 11.0):.3f}",
            "note": rng.choice(["n", '"a,b"', '"one\ntwo\nthree"', '"two\nlines"'], p=[0.85, 0.05, 0.05, 0.05]),
        }
        for col in ("income", "spending"):
            if rng.random() < 0.04:
                cells[col] = spellings[rng.integers(len(spellings))]
            elif rng.random() < 0.01:
                cells[col] = "   "
        cells.update((plant or {}).get(r, {}))
        lines.extend(cells.get("before", []))
        row = [cells["label"], cells["income"], "x", cells["note"], cells["spending"]]
        width = len(row) if rng.random() > 0.03 else int(rng.integers(1, len(row)))
        lines.append(",".join(row[:width]))
        lines.extend([""] * int(rng.integers(1, 3)) if rng.random() < 0.02 else [])
    return write_csv(path, lines)


def _outcome(load):
    """What a load gives: its labels, each group's bytes and the dropped count, or its error."""
    try:
        got = load()
    except (CsvParseError, MissingColumn, TooFewObservations) as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    if isinstance(got, tuple):  # load_sample's batch and dropped count
        batch, dropped = got
        return batch.values.tobytes(), dropped
    return got.labels, [batch.values.tobytes() for _, batch in got.groups], got.dropped_rows


_PLANTS = {
    "clean": {},
    # bad cells early, late, in either column, after a bad cell of the other
    # column, and both in one row (the value column is named first)
    "nan value early": {40: {"spending": "nan"}},
    "inf key late": {900: {"income": "inf"}},
    "x value late": {700: {"spending": "x"}},
    "-inf key early, x value later": {30: {"income": "-inf"}, 600: {"spending": "x"}},
    "nan value early, x key later": {100: {"spending": "nan"}, 500: {"income": "x"}},
    "both cells bad": {650: {"income": "zzz", "spending": "inf"}},
    "blank and bad in one row": {300: {"income": "   ", "spending": "x"}, 310: {"spending": "   "}},
    # blank lines and a cell quoted across lines before a bad record
    "bad after blank lines": {420: {"before": ["", ""], "spending": "nan", "income": ".5"}},
    "bad after a quoted cell": {419: {"note": '"one\n\ntwo"'}, 420: {"income": "x"}},
}


@pytest.mark.parametrize("plant", list(_PLANTS))
def test_csv_readers_match_the_row_at_a_time_oracle(tmp_path, plant):
    # 1,000 records are four chunks of grouping._CHUNK_ROWS = 256 rows
    path = _quirky_csv(tmp_path / "quirky.csv", 1000, _PLANTS[plant])
    loads = [
        (lambda f: f(path, "spending", "label"), load_csv, load_csv_rows),
        (lambda f: f(path, "spending", "income", (0.1, 0.3, 0.6)), load_csv, load_csv_rows),
        (lambda f: f(path, "income", "label", (0.5,)), load_csv, load_csv_rows),
        (lambda f: f(path, "spending"), grouping.load_sample, load_sample_rows),
        (lambda f: f(path, "income"), grouping.load_sample, load_sample_rows),
        (lambda f: f(path, "spending", "absent"), load_csv, load_csv_rows),
    ]
    for call, load, oracle in loads:
        assert _outcome(lambda: call(load)) == _outcome(lambda: call(oracle))


@pytest.mark.parametrize(
    "text", ["", "\n", "\nlabel,spending\n", "label,spending\n", "label,spending\n\n\n", "label\na\n"]
)
def test_csv_readers_match_the_oracle_on_degenerate_files(tmp_path, text):
    path = tmp_path / "degenerate.csv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(lambda: load_csv(str(path), "spending", "label")) == _outcome(
        lambda: load_csv_rows(str(path), "spending", "label")
    )
    assert _outcome(lambda: grouping.load_sample(str(path), "spending")) == _outcome(
        lambda: load_sample_rows(str(path), "spending")
    )


def _customer_lines(records, seed=11):
    rng = np.random.default_rng(seed)
    return [f"{i:.2f},{s:.3f},n" for i, s in zip(rng.uniform(15.0, 137.0, records), rng.normal(50.0, 11.0, records))]


def test_parse_error_several_chunks_past_a_multiline_cell_names_its_line(tmp_path):
    # record 3's note spans file lines 4-6; record 1,500 (file line 1,503), far
    # past the first chunk of rows, holds the bad value
    lines = _customer_lines(2000)
    lines[2] = lines[2][:-1] + '"one\ntwo\nthree"'
    lines[1499] = "71.50,zzz,n"
    path = write_csv(tmp_path / "late.csv", ["income,spending,note", *lines])
    loads = (
        lambda: load_csv(path, "spending", "income", cut_probabilities=(0.1, 0.3, 0.6)),
        lambda: load_csv(path, "spending", "note"),
        lambda: grouping.load_sample(path, "spending"),
    )
    for load in loads:
        with pytest.raises(CsvParseError) as err:
            load()
        assert (err.value.row, err.value.column) == (1503, "spending")


def test_parse_error_names_a_bad_key_before_a_later_bad_value(tmp_path):
    lines = _customer_lines(2000)
    lines[1200] = "nan,41.250,n"  # file line 1,202
    lines[1700] = "88.10,inf,n"  # file line 1,702
    path = write_csv(tmp_path / "two.csv", ["income,spending,note", *lines])
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "spending", "income", cut_probabilities=(0.5,))
    assert (err.value.row, err.value.column) == (1202, "income")


def test_parse_error_in_a_row_with_both_cells_bad_names_the_value(tmp_path):
    lines = _customer_lines(2000)
    lines[900] = "x,-inf,n"  # file line 902
    path = write_csv(tmp_path / "both.csv", ["income,spending,note", *lines])
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "spending", "income", cut_probabilities=(0.5,))
    assert (err.value.row, err.value.column) == (902, "spending")


def test_a_byte_order_mark_reads_as_the_same_bytes_without_it(tmp_path):
    # Excel's "CSV UTF-8" starts the file with the UTF-8 byte-order mark EF BB BF;
    # the first header name is "arm", not "﻿arm"
    rng = np.random.default_rng(3)
    text = "arm,value\n" + "".join(f"{'ab'[i % 2]},{v:.4f}\n" for i, v in enumerate(rng.normal(size=40)))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for load in (
        lambda path: load_csv(str(path), "value", "arm"),
        lambda path: load_csv(str(path), "value", "arm", cut_probabilities=(0.5,)),
        lambda path: grouping.load_sample(str(path), "value"),
    ):
        assert _outcome(lambda: load(marked)) == _outcome(lambda: load(plain))
    ds = load_csv(str(marked), "value", "arm")
    assert ds.labels == ("a", "b") and [b.n for _, b in ds.groups] == [20, 20]
    # a bad cell is named on the same line
    bad = text.replace("\nb,", "\nb,x", 1)
    plain.write_bytes(bad.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + bad.encode("utf-8"))
    with pytest.raises(CsvParseError) as err:
        load_csv(str(marked), "value", "arm")
    assert (err.value.row, err.value.column) == (3, "value")
