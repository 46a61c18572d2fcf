"""Unit tests for IDX parsing, noise variation and task streams."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from pss.cli import EXIT_DATA, main
from pss.container import ContainerError, read_container, write_container
from pss.data import (
    MNIST_FILES,
    DataFormatError,
    ImageDataset,
    Task,
    TaskDataset,
    TaskStream,
    _permute_rows,
    build_task_stream,
    find_mnist,
    load_idx,
    make_variation,
    save_idx,
    synthetic_digits,
)


def random_idx_pair(tmp_path, n=60, side=28, seed=0, gzipped=False):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    ipath = tmp_path / "images-idx3-ubyte"
    lpath = tmp_path / "labels-idx1-ubyte"
    save_idx(ipath, lpath, images, labels)
    if gzipped:
        for p in (ipath, lpath):
            gz = p.with_suffix(p.suffix + ".gz")
            gz.write_bytes(gzip.compress(p.read_bytes()))
            p.unlink()
        ipath = ipath.with_suffix(ipath.suffix + ".gz")
        lpath = lpath.with_suffix(lpath.suffix + ".gz")
    return ipath, lpath, images, labels


class TestIdxRoundTrip:
    def test_plain_files(self, tmp_path):
        ipath, lpath, images, labels = random_idx_pair(tmp_path)
        ds = load_idx(ipath, lpath)
        assert ds.images.shape == (60, 784)
        np.testing.assert_array_equal(ds.images,
                                      images.reshape(60, 784) / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_gzipped_files(self, tmp_path):
        ipath, lpath, images, labels = random_idx_pair(tmp_path, gzipped=True)
        ds = load_idx(ipath, lpath)
        np.testing.assert_array_equal(ds.images,
                                      images.reshape(60, 784) / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_bad_magic_rejected(self, tmp_path):
        ipath, lpath, _, _ = random_idx_pair(tmp_path)
        blob = bytearray(ipath.read_bytes())
        blob[3] = 99
        ipath.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(ipath, lpath)

    def test_truncated_file_rejected(self, tmp_path):
        ipath, lpath, _, _ = random_idx_pair(tmp_path)
        ipath.write_bytes(ipath.read_bytes()[:100])
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(ipath, lpath)

    def test_count_mismatch_rejected(self, tmp_path):
        ipath, lpath, _, labels = random_idx_pair(tmp_path)
        other_l = tmp_path / "short-labels-idx1-ubyte"
        save_idx(tmp_path / "short-images-idx3-ubyte", other_l,
                 np.zeros((10, 28, 28), dtype=np.uint8), labels[:10])
        with pytest.raises(DataFormatError, match="mismatch"):
            load_idx(ipath, other_l)

    def test_save_rejects_non_uint8(self, tmp_path):
        with pytest.raises(DataFormatError):
            save_idx(tmp_path / "i", tmp_path / "l",
                     np.zeros((3, 4, 4)), np.zeros(3, dtype=np.uint8))

    def test_flat_images_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(5, 784), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5, dtype=np.uint8)
        save_idx(tmp_path / "i", tmp_path / "l", images, labels)
        ds = load_idx(tmp_path / "i", tmp_path / "l")
        np.testing.assert_array_equal(ds.images, images / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_save_rejects_non_square_flat_images(self, tmp_path):
        with pytest.raises(DataFormatError, match="square pixel count"):
            save_idx(tmp_path / "i", tmp_path / "l",
                     np.zeros((3, 783), dtype=np.uint8), np.zeros(3, dtype=np.uint8))

    @pytest.mark.parametrize("images,labels,message", [
        (np.zeros(4), np.zeros(4), "images must be"),
        (np.zeros((4, 9)), np.zeros(3), "one label per image"),
    ])
    def test_dataset_rejects_bad_shapes(self, images, labels, message):
        with pytest.raises(DataFormatError, match=message):
            ImageDataset(images, labels, "bad")


def gzip_cut_in_half(path):
    blob = gzip.compress(path.read_bytes())
    path.write_bytes(blob[:len(blob) // 2])


def claim_max_images(path, gzipped=False):
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack(">I", 2**32 - 1)
    path.write_bytes(gzip.compress(bytes(blob)) if gzipped else bytes(blob))


# Each edit turns the training images of a valid corpus into a hostile file.
HOSTILE_IDX = {
    "gzip cut in half": gzip_cut_in_half,
    "2**32-1 images claimed": claim_max_images,
    "2**32-1 images claimed, gzipped": lambda p: claim_max_images(p, gzipped=True),
}


class TestHostileIdx:
    @pytest.mark.parametrize("case", sorted(HOSTILE_IDX))
    def test_train_refuses_with_data_error(self, case, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for split in ("train", "test"):
            save_idx(tmp_path / MNIST_FILES[f"{split}_images"],
                     tmp_path / MNIST_FILES[f"{split}_labels"],
                     rng.integers(0, 256, size=(20, 28, 28), dtype=np.uint8),
                     np.arange(20) % 10)
        HOSTILE_IDX[case](tmp_path / MNIST_FILES["train_images"])
        code = main(["train", "--preset", "mnist", "--data-dir", str(tmp_path),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err


class TestVariation:
    def test_noise_statistics(self):
        rng = np.random.default_rng(5)
        base = ImageDataset(rng.random((200, 784)),
                            rng.integers(0, 10, 200), "base")
        noisy = make_variation(base, seed=11)
        delta = noisy.images - base.images
        assert abs(delta.mean()) < 0.01
        assert abs(delta.std() - 1.0) < 0.01
        assert noisy.noised and noisy.name == "base-variation"
        # unclipped: noise pushes pixels outside [0, 1]
        assert noisy.images.min() < 0.0 and noisy.images.max() > 1.0

    def test_same_seed_same_bytes(self):
        base = ImageDataset(np.zeros((5, 16)), np.zeros(5, dtype=int), "b")
        a = make_variation(base, seed=3)
        b = make_variation(base, seed=3)
        c = make_variation(base, seed=4)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.images.tobytes() != c.images.tobytes()

    def test_noise_added_in_place_matches_images_plus_noise(self):
        rng = np.random.default_rng(6)
        base = ImageDataset(rng.random((50, 784)), rng.integers(0, 10, 50), "base")
        want = base.images + np.random.default_rng(11).normal(
            0.0, 1.0, size=base.images.shape)
        assert make_variation(base, seed=11).images.tobytes() == want.tobytes()

    def test_double_noising_rejected(self):
        base = ImageDataset(np.zeros((2, 4)), np.zeros(2, dtype=int), "b")
        with pytest.raises(DataFormatError):
            make_variation(make_variation(base, 0), 1)


class TestSyntheticDigits:
    def test_shapes_balance_and_range(self):
        train, test = synthetic_digits(200, 50, seed=9)
        assert train.images.shape == (200, 784)
        assert test.images.shape == (50, 784)
        counts = np.bincount(train.labels, minlength=10)
        assert np.all(counts == 20)
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_deterministic(self):
        a, _ = synthetic_digits(100, 20, seed=2)
        b, _ = synthetic_digits(100, 20, seed=2)
        c, _ = synthetic_digits(100, 20, seed=3)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.images.tobytes() != c.images.tobytes()

    def test_classes_are_learnably_distinct(self):
        train, _ = synthetic_digits(400, 0, seed=1)
        mean0 = train.images[train.labels == 0].mean(axis=0)
        mean1 = train.images[train.labels == 1].mean(axis=0)
        assert np.linalg.norm(mean0 - mean1) > 1.0

    @pytest.mark.parametrize("order", [
        [], [0], list(range(9)), [*range(1, 9), 0],  # n 0 and 1, identity, one cycle
        *(np.random.default_rng(s).permutation(257) for s in range(5))])
    def test_in_place_shuffle_is_the_gather(self, order):
        order = np.asarray(order, dtype=np.int64)
        x = np.random.default_rng(5).standard_normal((len(order), 7))
        want = x[order].tobytes()
        _permute_rows(x, order)
        assert x.tobytes() == want


class TestTaskStream:
    def make_stream(self, seed=0, **kw):
        train, test = synthetic_digits(600, 300, seed=4)
        return build_task_stream(train, test, n_tasks=10, seed=seed, **kw)

    def test_ordering_and_balance(self):
        stream = self.make_stream()
        assert len(stream) == 10
        for t, task in enumerate(stream):
            assert task.index == t and task.positive_class == t
            assert task.train.y.sum() * 2 == len(task.train.y)
            assert task.test.y.sum() * 2 == len(task.test.y)

    def test_positives_really_are_the_class(self):
        train, test = synthetic_digits(600, 300, seed=4)
        stream = build_task_stream(train, test, n_tasks=10, seed=1)
        task = stream.tasks[3]
        pos_rows = task.train.x[task.train.y == 1.0]
        # every positive row appears among the class-3 training images
        class3 = train.images[train.labels == 3]
        for row in pos_rows[:5]:
            assert any(np.array_equal(row, img) for img in class3)

    def test_train_cap_applies(self):
        stream = self.make_stream(per_task_train=40)
        for task in stream:
            assert len(task.train) <= 40

    def test_pool_is_test_prefix(self):
        train, test = synthetic_digits(600, 300, seed=4)
        stream = build_task_stream(train, test, n_tasks=10, seed=0,
                                   test_count=100)
        assert stream.pool_x.shape == (100, 784)
        np.testing.assert_array_equal(stream.pool_x, test.images[:100])
        np.testing.assert_array_equal(stream.pool_y, test.labels[:100])

    def test_deterministic_stream(self):
        a = self.make_stream(seed=7)
        b = self.make_stream(seed=7)
        c = self.make_stream(seed=8)
        for ta, tb in zip(a, b):
            assert ta.train.x.tobytes() == tb.train.x.tobytes()
            assert ta.train.y.tobytes() == tb.train.y.tobytes()
        assert a.tasks[0].train.x.tobytes() != c.tasks[0].train.x.tobytes()

    def test_test_sets_record_their_pool_rows(self):
        stream = self.make_stream(test_count=200)
        for t, task in enumerate(stream):
            rows = task.test.rows
            assert rows.dtype.kind == "i" and rows.shape == (len(task.test),)
            assert stream.pool_x[rows].tobytes() == task.test.x.tobytes()
            np.testing.assert_array_equal(stream.pool_y[rows] == t, task.test.y == 1.0)

    @pytest.mark.parametrize("rows", [np.arange(3), np.arange(5),
                                      np.arange(4.0), np.zeros(4, dtype=bool)])
    def test_rows_must_be_one_integer_per_example(self, rows):
        with pytest.raises(DataFormatError, match="rows"):
            TaskDataset(np.zeros((6, 2)), rows, np.zeros(4), 0, 0)

    @pytest.mark.parametrize("rows", [None, [0, 1, -1], [0, 1, 3]])
    def test_stream_rejects_test_rows_outside_the_pool(self, rows):
        # a test set's source is the pool, so its own check catches them
        with pytest.raises(DataFormatError, match="rows"):
            TaskDataset(np.zeros((3, 2)), rows, np.zeros(3), 0, 0)

    def test_gathered_images_with_rows_are_rejected(self):
        """Rows index the source images; handing over the gathered
        examples instead fails at construction, in either call form."""
        images = np.arange(20.0).reshape(10, 2)
        rows = np.array([9, 2, 7])
        with pytest.raises(DataFormatError, match="source"):
            TaskDataset(images[rows], rows, np.ones(3), 0, 0)
        with pytest.raises(DataFormatError, match="rows"):
            TaskDataset(images[rows], np.ones(3), 0, 0, rows)
        with pytest.raises(TypeError):
            TaskDataset(x=images[rows], y=np.ones(3), task=0, positive_class=0, rows=rows)
        assert TaskDataset(images, rows, np.ones(3), 0, 0).x.tobytes() \
            == images[rows].tobytes()

    def test_source_is_never_converted(self):
        """A converted source would be one corpus copy per task set."""
        with pytest.raises(DataFormatError, match="float64"):
            TaskDataset(np.zeros((3, 2), dtype=np.float32), [0, 1, 2], np.zeros(3), 0, 0)
        images = np.zeros((3, 2))
        assert TaskDataset(images, [0, 1, 2], np.zeros(3), 0, 0).source is images

    def test_stream_requires_test_sets_on_the_pool(self):
        pool = np.zeros((3, 2))
        test = TaskDataset(pool.copy(), [0, 1, 2], np.zeros(3), 0, 0)
        with pytest.raises(DataFormatError, match="pool"):
            TaskStream([Task(0, 0, test, test)], pool, np.zeros(3))

    def test_missing_class_rejected(self):
        train, test = synthetic_digits(60, 30, seed=4)
        train.labels[train.labels == 9] = 0
        with pytest.raises(DataFormatError, match="classes"):
            build_task_stream(train, test, n_tasks=10, seed=0)

    def test_one_class_corpus_has_no_negatives(self):
        one = ImageDataset(np.zeros((4, 9)), np.zeros(4), "one class")
        with pytest.raises(DataFormatError, match="class 0: no negative examples"):
            build_task_stream(one, one, n_tasks=1)


def traced_peak(fn, *args, **kw):
    """``fn(*args, **kw)`` and the peak bytes traced while it ran; numpy
    reports its array buffers to ``tracemalloc``."""
    tracemalloc.start()
    try:
        out = fn(*args, **kw)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEachImageHeldOnce:
    def test_task_sets_are_rows_of_the_corpus(self):
        train, test = synthetic_digits(600, 300, seed=4)
        stream = build_task_stream(train, test, n_tasks=10, seed=0, test_count=200)
        assert np.shares_memory(stream.pool_x, test.images)
        for task in stream:
            assert np.shares_memory(task.train.source, train.images)
            assert task.test.source is stream.pool_x

    def test_stream_allocates_under_a_tenth_of_the_corpus(self):
        train, test = synthetic_digits(2000, 500, seed=4)
        corpus = train.images.nbytes + test.images.nbytes
        build_task_stream(train, test, n_tasks=10, seed=0)  # numpy's lazy imports
        stream, peak = traced_peak(build_task_stream, train, test, n_tasks=10,
                                   seed=0, test_count=500)
        assert len(stream) == 10 and peak < 0.1 * corpus

    def test_synthetic_digits_holds_at_most_one_spare_corpus(self):
        (train, test), peak = traced_peak(synthetic_digits, 2000, 500, seed=4)
        assert peak <= 1.1 * (train.images.nbytes + test.images.nbytes)


class TestContainer:
    def test_arrays_and_meta_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {"a": rng.random((3, 4)),
                  "b": rng.integers(0, 9, size=7),
                  "c": rng.integers(0, 255, size=(2, 2), dtype=np.uint8)}
        path = tmp_path / "box.bin"
        write_container(path, b"TESTBOX\0", {"k": [1, 2]}, arrays)
        meta, back = read_container(path, b"TESTBOX\0")
        assert meta == {"k": [1, 2]}
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            assert back[name].tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "box.bin"
        write_container(path, b"TESTBOX\0", {}, {})
        with pytest.raises(ContainerError, match="magic"):
            read_container(path, b"OTHERBX\0")

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "box.bin"
        write_container(path, b"TESTBOX\0", {}, {"a": np.ones((100, 100))})
        path.write_bytes(path.read_bytes()[:-50])
        with pytest.raises(ContainerError, match="truncated"):
            read_container(path, b"TESTBOX\0")

    def test_round_trip_holds_no_copy(self, tmp_path):
        """Arrays go to and come from the file through their own buffers:
        writing copies nothing, reading allocates each array once."""
        rng = np.random.default_rng(2)
        arrays = {"big": rng.random((500, 300)), "small": rng.integers(0, 9, size=50)}
        path = tmp_path / "box.bin"
        write_container(path, b"TESTBOX\0", {}, arrays)  # warm up lazy imports
        read_container(path, b"TESTBOX\0")

        def round_trip():
            write_container(path, b"TESTBOX\0", {"k": 1}, arrays)
            return read_container(path, b"TESTBOX\0")

        (_, back), peak = traced_peak(round_trip)
        assert peak <= 1.1 * arrays["big"].nbytes
        for name, arr in arrays.items():
            assert back[name].tobytes() == arr.tobytes()

    def test_object_dtype_rejected(self, tmp_path):
        with pytest.raises(ContainerError, match="dtype"):
            write_container(tmp_path / "box.bin", b"TESTBOX\0", {},
                            {"a": np.array(["strings"], dtype=object)})


class TestFindMnist:
    def test_unset_returns_none(self, monkeypatch):
        monkeypatch.delenv("PSS_DATA_DIR", raising=False)
        assert find_mnist() is None

    def test_finds_gzipped_set(self, tmp_path, monkeypatch):
        for base in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                     "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            (tmp_path / (base + ".gz")).write_bytes(b"\x1f\x8b")
        monkeypatch.setenv("PSS_DATA_DIR", str(tmp_path))
        paths = find_mnist()
        assert paths is not None
        assert all(p.endswith(".gz") for p in paths.values())

    def test_partial_set_returns_none(self, tmp_path):
        (tmp_path / "train-images-idx3-ubyte").write_bytes(b"")
        assert find_mnist(str(tmp_path)) is None
