"""Stage construction, single-pass batching, synthetic data, CSV IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uer.numeric import make_rng
from uer.stream import (CsvFormatError, Dataset, LabeledData, StreamConfig,
                        SyntheticSpec, build_stages, gen_synthetic,
                        iterate_batches, load_csv_dataset, make_sphere_spec,
                        save_csv_dataset, split_gauss_10, sphere_means)


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
    for xb, yb in iterate_batches(stage, cfg, make_rng(7)):
        xs.append(xb)
        ys.append(yb)
    X = np.concatenate(xs)
    Y = np.concatenate(ys)
    assert len(Y) == len(stage.train)
    # emitted samples are a permutation of the stage training split
    order_emitted = np.lexsort(np.vstack([Y, X.T]))
    order_stage = np.lexsort(np.vstack([stage.train.y, stage.train.x.T]))
    np.testing.assert_array_equal(X[order_emitted], stage.train.x[order_stage])
    np.testing.assert_array_equal(Y[order_emitted], stage.train.y[order_stage])


def test_iterate_batches_changes_order_not_content():
    ds = toy_dataset(classes=1, per_class=30)
    cfg = StreamConfig(stages=1, classes_per_stage=1, batch_size_current=30)
    stage = build_stages(ds, cfg, make_rng(0))[0]
    (x1, _), = iterate_batches(stage, cfg, make_rng(1))
    (x2, _), = iterate_batches(stage, cfg, make_rng(2))
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


def test_synthetic_spec_validation():
    with pytest.raises(ValueError, match="stddev"):
        SyntheticSpec(2, np.zeros((2, 2)) + [[0, 0], [1, 1]], 0.0, 1, 1)
    with pytest.raises(ValueError, match="distinct"):
        SyntheticSpec(2, np.zeros((2, 2)), 1.0, 1, 1)
    with pytest.raises(ValueError, match="at least 1"):
        SyntheticSpec(2, np.array([[0.0, 0.0], [1.0, 1.0]]), 1.0, 0, 1)


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
