"""Stage construction, single-pass batching, synthetic data, CSV IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_step
from uer.numeric import make_rng
from uer.stream import (CsvFormatError, Dataset, LabeledData, StreamConfig,
                        SyntheticSpec, _parse_lines, build_stages, gen_synthetic,
                        iterate_batches, load_csv_dataset, make_sphere_spec,
                        save_csv_dataset, split_gauss_10, split_stages, sphere_means)


def toy_dataset(classes=10, per_class=6, dim=3, seed=0):
    rng = make_rng(seed)
    spec = SyntheticSpec(input_dim=dim,
                         means=4.0 * np.eye(classes, dim) + np.arange(classes)[:, None],
                         stddev=0.5,
                         train_per_class=per_class,
                         test_per_class=2)
    return gen_synthetic(spec, rng)


# ---------------------------------------------------------------- stages


def test_build_stages_partitions_disjointly():
    ds = toy_dataset()
    stages = build_stages(ds, StreamConfig(stages=5, classes_per_stage=2), make_rng(1))
    assert len(stages) == 5
    all_classes = [c for s in stages for c in s.class_set]
    assert sorted(all_classes) == list(range(10))
    for s in stages:
        assert len(s.class_set) == 2
        assert set(np.unique(s.train.y)) == set(s.class_set)
        assert set(np.unique(s.test.y)) == set(s.class_set)
        assert len(s.train) == 12 and len(s.test) == 4


def test_build_stages_single_stage_takes_all():
    ds = toy_dataset(classes=4)
    stages = build_stages(ds, StreamConfig(stages=1, classes_per_stage=4), make_rng(2))
    assert len(stages) == 1
    assert sorted(stages[0].class_set) == [0, 1, 2, 3]


def test_build_stages_deterministic_per_rng_seed():
    ds = toy_dataset()
    cfg = StreamConfig(stages=5, classes_per_stage=2)
    a = build_stages(ds, cfg, make_rng(3))
    b = build_stages(ds, cfg, make_rng(3))
    assert [s.class_set for s in a] == [s.class_set for s in b]


def test_build_stages_shuffle_seed_overrides_rng():
    ds = toy_dataset()
    cfg = StreamConfig(stages=5, classes_per_stage=2, shuffle_seed=42)
    a = build_stages(ds, cfg, make_rng(0))
    b = build_stages(ds, cfg, make_rng(999))
    assert [s.class_set for s in a] == [s.class_set for s in b]


def test_build_stages_rejects_class_mismatch():
    ds = toy_dataset(classes=9)
    with pytest.raises(ValueError, match="need 10 classes"):
        build_stages(ds, StreamConfig(stages=5, classes_per_stage=2), make_rng(0))


def test_build_stages_rejects_stage_without_test_rows():
    ds = toy_dataset(classes=4)
    keep = ds.test.y != 3
    ds.test = LabeledData(ds.test.x[keep], ds.test.y[keep])
    cfg = StreamConfig(stages=4, classes_per_stage=1, shuffle_seed=0)
    stage = 1 + [s.class_set for s in build_stages(toy_dataset(classes=4), cfg,
                                                    make_rng(0))].index((3,))
    with pytest.raises(ValueError, match=rf"^stage {stage} \(classes 3\) has no test rows$"):
        build_stages(ds, cfg, make_rng(0))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_stage_class_sets_always_disjoint(seed):
    ds = toy_dataset(per_class=2)
    stages = build_stages(ds, StreamConfig(stages=5, classes_per_stage=2),
                          make_rng(seed))
    seen = set()
    for s in stages:
        assert not (set(s.class_set) & seen)
        seen |= set(s.class_set)
    assert seen == set(range(10))


# --------------------------------------------------------------- batches


def test_iterate_batches_remainder():
    ds = toy_dataset(classes=1, per_class=25)
    stage = build_stages(ds, StreamConfig(stages=1, classes_per_stage=1,
                                          batch_size_current=10), make_rng(0))[0]
    sizes = [len(y) for _, y in iterate_batches(
        stage, StreamConfig(stages=1, classes_per_stage=1, batch_size_current=10),
        make_rng(1))]
    assert sizes == [10, 10, 5]


def test_iterate_batches_exact_fit_single_batch():
    ds = toy_dataset(classes=1, per_class=10)
    cfg = StreamConfig(stages=1, classes_per_stage=1, batch_size_current=10)
    stage = build_stages(ds, cfg, make_rng(0))[0]
    batches = list(iterate_batches(stage, cfg, make_rng(1)))
    assert len(batches) == 1 and len(batches[0][1]) == 10


def test_iterate_batches_single_pass_multiset_law():
    ds = toy_dataset(classes=2, per_class=13)
    cfg = StreamConfig(stages=1, classes_per_stage=2, batch_size_current=4)
    stage = build_stages(ds, cfg, make_rng(0))[0]
    xs, ys = [], []
    for rows, yb in iterate_batches(stage, cfg, make_rng(7)):
        xs.append(stage.train.x[rows])  # a Stage's rows index its own split
        ys.append(yb)
    X = np.concatenate(xs)
    Y = np.concatenate(ys)
    assert len(Y) == len(stage.train)
    # emitted samples are a permutation of the stage training split
    order_emitted = np.lexsort(np.vstack([Y, X.T]))
    order_stage = np.lexsort(np.vstack([stage.train.y, stage.train.x.T]))
    np.testing.assert_array_equal(X[order_emitted], stage.train.x[order_stage])
    np.testing.assert_array_equal(Y[order_emitted], stage.train.y[order_stage])


def test_stage_rows_batch_as_their_gathered_stage_does():
    # the rows of a StageRows, read from the dataset, give the batches of
    # the Stage they gather into, read from its own split, from the same
    # permutation draw, as the per-batch indexing of the gathered copy
    # gave them; a StageRows batch is the stage's rows in that order
    ds = toy_dataset(classes=4, per_class=13)
    cfg = StreamConfig(stages=2, classes_per_stage=2, batch_size_current=4)
    for rows in split_stages(ds, cfg, make_rng(0)):
        stage = rows.gather(ds)
        order = make_rng(5).permutation(len(stage.train))
        want = [(stage.train.x[order[lo:lo + 4]], stage.train.y[order[lo:lo + 4]])
                for lo in range(0, len(order), 4)]
        for got, source in ((list(iterate_batches(rows, cfg, make_rng(5), ds)), ds.train),
                            (list(iterate_batches(stage, cfg, make_rng(5))), stage.train)):
            assert len(got) == len(want) == 7
            for (r, y), (wx, wy) in zip(got, want):
                assert source.x[r].tobytes() == wx.tobytes() and y.tolist() == wy.tolist()
        got = np.concatenate([r for r, _ in iterate_batches(rows, cfg, make_rng(5), ds)])
        assert got.tolist() == rows.train_rows[order].tolist()


def test_batches_are_read_only_views_of_one_stage_block():
    # every batch is a view of the stage's one shuffled row block and its
    # one label block, so a consumer that writes into a batch would write
    # into the batches after it: the blocks are read-only and such a write
    # fails. No features are copied: a batch holds dataset rows
    ds = toy_dataset(classes=2, per_class=10)
    cfg = StreamConfig(stages=1, classes_per_stage=2, batch_size_current=6)
    rows = split_stages(ds, cfg, make_rng(0))[0]
    batches = list(iterate_batches(rows, cfg, make_rng(1), ds))
    assert [len(y) for _, y in batches] == [6, 6, 6, 2]
    for j in (0, 1):
        block = batches[0][j].base
        assert block is not None and all(batch[j].base is block for batch in batches)
    for r, y in batches:
        assert r.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            r[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            y[0] = 0
    before = ds.train.y.copy()
    with pytest.raises(ValueError, match="read-only"):
        batches[1][1] *= 2
    assert ds.train.y.tobytes() == before.tobytes()  # the dataset is not the block


def test_iterate_batches_changes_order_not_content():
    ds = toy_dataset(classes=1, per_class=30)
    cfg = StreamConfig(stages=1, classes_per_stage=1, batch_size_current=30)
    stage = build_stages(ds, cfg, make_rng(0))[0]
    (r1, _), = iterate_batches(stage, cfg, make_rng(1))
    (r2, _), = iterate_batches(stage, cfg, make_rng(2))
    x1, x2 = stage.train.x[r1], stage.train.x[r2]
    assert not np.array_equal(x1, x2)
    np.testing.assert_array_equal(np.sort(x1, axis=0), np.sort(x2, axis=0))


# -------------------------------------------------------------- synthetic


def test_gen_synthetic_near_degenerate_spread_hugs_means():
    means = np.array([[0.0, 0.0], [10.0, -3.0]])
    spec = SyntheticSpec(input_dim=2, means=means, stddev=1e-12,
                         train_per_class=5, test_per_class=3)
    ds = gen_synthetic(spec, make_rng(0))
    for c in range(2):
        assert np.abs(ds.train.x[ds.train.y == c] - means[c]).max() < 1e-10
        assert np.abs(ds.test.x[ds.test.y == c] - means[c]).max() < 1e-10


def test_gen_synthetic_sample_mean_clt_bound():
    n = 10_000
    means = np.array([[1.0, -2.0, 0.5]])
    spec = SyntheticSpec(input_dim=3, means=means, stddev=2.0,
                         train_per_class=n, test_per_class=1)
    ds = gen_synthetic(spec, make_rng(42))
    bound = 5.0 * 2.0 / np.sqrt(n)
    assert np.all(np.abs(ds.train.x.mean(axis=0) - means[0]) < bound)


def test_gen_synthetic_determinism_and_seed_sensitivity():
    spec = SyntheticSpec(input_dim=2, means=np.array([[0.0, 0.0], [3.0, 3.0]]),
                         stddev=1.0, train_per_class=4, test_per_class=2)
    a = gen_synthetic(spec, make_rng(5))
    b = gen_synthetic(spec, make_rng(5))
    c = gen_synthetic(spec, make_rng(6))
    np.testing.assert_array_equal(a.train.x, b.train.x)
    assert not np.array_equal(a.train.x, c.train.x)


@pytest.mark.parametrize("classes, dim, train, test", [(10, 20, 500, 100), (10, 128, 1000, 100)],
                         ids=["split-gauss-10", "128d-1000-per-class"])
def test_gen_synthetic_writes_the_bytes_of_the_concatenated_draws(classes, dim, train, test):
    # the in-place generator makes the draws of the per-class blocks it
    # replaced (legacy_step.gen_synthetic), in the same order, bit for bit
    spec = make_sphere_spec(classes, dim, 3.0, 1.0, train, test, make_rng(1))
    new_rng, old_rng = make_rng([4, 0]), make_rng([4, 0])
    new, old = gen_synthetic(spec, new_rng), legacy_step.gen_synthetic(spec, old_rng)
    for a, b in ((new.train, old.train), (new.test, old.test)):
        for got, want in ((a.x, b.x), (a.y, b.y)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert (new.num_classes, new.input_dim) == (old.num_classes, old.input_dim)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_synthetic_spec_validation():
    with pytest.raises(ValueError, match="stddev"):
        SyntheticSpec(2, np.zeros((2, 2)) + [[0, 0], [1, 1]], 0.0, 1, 1)
    with pytest.raises(ValueError, match="distinct"):
        SyntheticSpec(2, np.zeros((2, 2)), 1.0, 1, 1)
    with pytest.raises(ValueError, match="at least 1"):
        SyntheticSpec(2, np.array([[0.0, 0.0], [1.0, 1.0]]), 1.0, 0, 1)


@given(classes=st.integers(0, 5), dim=st.integers(0, 3),
       values=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, float("nan")]),
                       min_size=15, max_size=15))
@settings(max_examples=300, deadline=None)
def test_means_are_distinct_as_np_unique_counts_their_rows(classes, dim, values):
    # rows compare as floats: -0.0 equals 0.0, and a row holding nan equals
    # no row, itself included
    means = np.array(values[:classes * dim], dtype=np.float64).reshape(classes, dim)
    distinct = len(np.unique(means, axis=0)) == classes
    if distinct:
        SyntheticSpec(dim, means, 1.0, 1, 1)
    else:
        with pytest.raises(ValueError, match="^class means must be distinct$"):
            SyntheticSpec(dim, means, 1.0, 1, 1)


def test_sphere_means_sit_on_the_sphere():
    m = sphere_means(6, 8, 3.0, make_rng(1))
    np.testing.assert_allclose(np.linalg.norm(m, axis=1), 3.0, atol=1e-12)


def test_split_gauss_10_shape_contract():
    ds = split_gauss_10(make_rng(0))
    assert ds.num_classes == 10 and ds.input_dim == 20
    assert ds.train.x.shape == (5000, 20) and ds.test.x.shape == (1000, 20)
    assert np.bincount(ds.train.y).tolist() == [500] * 10
    assert np.bincount(ds.test.y).tolist() == [100] * 10


def test_make_sphere_spec_round_numbers():
    spec = make_sphere_spec(4, 6, 2.0, 0.7, 11, 3, make_rng(2))
    assert spec.means.shape == (4, 6)
    assert spec.stddev == 0.7 and spec.train_per_class == 11


# -------------------------------------------------------------------- csv


def test_csv_two_line_example(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("1,0.5,0.25\n0,1.0,0.0\n")
    data = load_csv_dataset(path)
    assert len(data) == 2 and data.x.shape == (2, 2)
    # labels densify in first-occurrence order: file label 1 -> 0, 0 -> 1
    assert data.y.tolist() == [0, 1]
    np.testing.assert_array_equal(data.x, [[0.5, 0.25], [1.0, 0.0]])


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError, match="empty"):
        load_csv_dataset(path)


def test_csv_round_trip_identity(tmp_path):
    # labels already in first-occurrence order, so the loader's dense
    # remapping is the identity and the trip is lossless
    rng = make_rng(8)
    data = LabeledData(rng.normal(size=(7, 3)),
                       np.array([0, 1, 2, 0, 2, 1, 2]))
    path = tmp_path / "round.csv"
    save_csv_dataset(path, data)
    back = load_csv_dataset(path)
    np.testing.assert_array_equal(back.x, data.x)  # repr() round-trips floats
    np.testing.assert_array_equal(back.y, data.y)


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0,2.0\nx,3.0,4.0\n")
    with pytest.raises(CsvFormatError, match=r"bad\.csv:2: invalid label"):
        load_csv_dataset(path)

    path.write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(CsvFormatError, match=r"bad\.csv:2: expected 2 features"):
        load_csv_dataset(path)

    path.write_text("0,1.0,oops\n")
    with pytest.raises(CsvFormatError, match=r"bad\.csv:1: invalid feature"):
        load_csv_dataset(path)

    path.write_text("7\n")
    with pytest.raises(CsvFormatError, match=r"bad\.csv:1: need a label"):
        load_csv_dataset(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_csv_non_finite_feature_rejected_with_line(tmp_path, bad):
    # blank lines count toward the reported line number
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"0,1.0,2.0\n\n1,3.0,4.0\n0,5.0,{bad}\n")
    with pytest.raises(CsvFormatError, match=r"nonfinite\.csv:4: non-finite feature"):
        load_csv_dataset(path)


@pytest.mark.parametrize("later", ["1,1,2", "x,1", "1,y", "1"])
def test_csv_errors_are_reported_in_line_order(tmp_path, later):
    # a non-finite value is caught after reading, but an error on a later
    # line must not be reported ahead of it
    path = tmp_path / "bad.csv"
    path.write_text(f"0,1\n\n0,nan\n{later}\n")
    with pytest.raises(CsvFormatError, match=r"bad\.csv:3: non-finite feature value"):
        load_csv_dataset(path)
    path.write_text(f"0,1\n0,2\n{later}\n")  # without it, the later line's error
    with pytest.raises(CsvFormatError, match=r"bad\.csv:3: (?!non-finite)"):
        load_csv_dataset(path)


# fields that float() and np.loadtxt may read differently: whitespace
# (the ASCII separators \x1c-\x1f are whitespace to np.loadtxt only),
# non-finite spellings, underscores, hex, empty fields, non-ASCII digits
# and spaces, a trailing e, NUL
_ODD_FIELDS = ["1.5", " 2", "3 ", "\t-4e-3", "nan", "-inf", "Infinity", "1_0", "0x10", "",
               " ", "1e", "1e5", "+.5", "\u0661", "\u3000" + "7", "8\xa0", "\x1c" + "9",
               "9\x1f", "\x0b" + "1", "1\x0c", "\x00", "1e400", "-0", "abc", "1,5"]
_ODD_LABELS = ["0", "1", " 2", "3 ", "+1", "1_0", "\u0662", "-1", "x", "", "1.0"]


@st.composite
def _odd_rows(draw):
    """A valid grid of label and feature fields with up to two fields
    replaced by odd ones, and sometimes a row cut short."""
    n, width = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = [[draw(st.sampled_from(["0", "1", "2"]))]
            + [draw(st.sampled_from(["1.5", "-2", "0.25e1"])) for _ in range(width)]
            for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, width))
        rows[row][col] = draw(st.sampled_from(_ODD_FIELDS if col else _ODD_LABELS))
    if draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, n - 1))].pop()
    return [",".join(row) for row in rows]


@given(lines=_odd_rows(), blank=st.sampled_from(["", "  ", "\t"]),
       width=st.sampled_from([None, 1, 2]), known=st.booleans())
@settings(max_examples=300, deadline=None)
def test_csv_whole_file_parse_equals_the_line_loop(tmp_path_factory, lines, blank, width,
                                                   known):
    # the vectorised parse gives the loop's arrays and labels, or falls
    # back to the loop, which then gives every error (load_csv_dataset
    # raises exactly what _parse_lines raises)
    path = tmp_path_factory.mktemp("csv") / "odd.csv"
    path.write_text("\n".join(lines[:2] + [blank] + lines[2:]) + "\n", encoding="utf-8")
    remap = {0: 0, 2: 1} if known else None
    try:
        want_x, want_labels = _parse_lines(path, width, dict(remap or {}), known)
    except CsvFormatError as err:
        with pytest.raises(CsvFormatError) as info:
            load_csv_dataset(path, dict(remap) if remap else None, width, known)
        assert str(info.value) == str(err)
        return
    got = load_csv_dataset(path, dict(remap) if remap else None, width, known)
    assert got.x.tobytes() == want_x.tobytes() and got.x.shape == want_x.shape
    dense = dict(remap or {})
    for label in want_labels:
        dense.setdefault(label, len(dense))
    assert got.y.tolist() == [dense[label] for label in want_labels]


def test_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("0,1.0\n\n  \n1,2.0\n")
    data = load_csv_dataset(path)
    assert len(data) == 2


def test_csv_shared_label_map_across_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("5,1.0\n9,2.0\n")
    test.write_text("9,3.0\n5,4.0\n")
    label_map = {}
    tr = load_csv_dataset(train, label_map)
    te = load_csv_dataset(test, label_map)
    assert tr.y.tolist() == [0, 1]
    assert te.y.tolist() == [1, 0]  # same mapping, not re-densified
    assert label_map == {5: 0, 9: 1}


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(stages=0)
    with pytest.raises(ValueError):
        StreamConfig(batch_size_current=0)
    with pytest.raises(ValueError):
        StreamConfig(batch_size_memory=-1)
    assert StreamConfig(batch_size_memory=0).batch_size_memory == 0


def test_labeled_data_validation():
    with pytest.raises(ValueError):
        LabeledData(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        LabeledData(np.zeros(3), np.zeros(3, dtype=int))


def test_dataset_fields():
    ds = toy_dataset(classes=2, per_class=3, dim=4)
    assert isinstance(ds, Dataset)
    assert ds.num_classes == 2 and ds.input_dim == 4
