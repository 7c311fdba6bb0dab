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
