"""Image datasets, task streams and the IDX file format.

A lifelong run consumes a stream of binary one-vs-rest tasks, one per
class, in ascending class order, so a task's index is its class and
its position in the stream; no task or task set stores it. Each task's
training set pairs every image of the task's class with an equal
number of sampled images of other classes; each task's binary test set
is carved the same way out of a fixed multiclass evaluation pool (the
first ``test_count`` test images). A task set holds rows, not images,
so every image is stored once. Pixel values arrive as uint8 and are
scaled by 1/255 into float64; the "variation" transform then adds
unclipped unit Gaussian noise per pixel.
"""

import gzip
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
READ_CHUNK = 1 << 24

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

DATA_DIR_ENV = "PSS_DATA_DIR"
N_CLASSES = 10  # every corpus is ten digit classes
PIXELS = 784  # a synthetic image is a flat 28x28 scan


class DataFormatError(ValueError):
    """A data file or dataset does not have the promised shape."""


@dataclass
class ImageDataset:
    """Flat float64 images in [0, 1] (before noise) with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    name: str
    noised: bool = False

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2:
            raise DataFormatError("images must be (n, pixels)")
        if self.labels.shape != (len(self.images),):
            raise DataFormatError("one label per image required")

    def __len__(self):
        return len(self.images)


def _open_maybe_gzip(path):
    with open(path, "rb") as probe:
        head = probe.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, n, what):
    """``n`` bytes of ``f``, read in chunks so that a header claiming more
    than the file holds fails at its end instead of allocating the claim."""
    chunks = []
    try:
        while n > 0:
            chunk = f.read(min(n, READ_CHUNK))
            if not chunk:
                raise DataFormatError(f"truncated IDX file while reading {what}")
            chunks.append(chunk)
            n -= len(chunk)
    except (EOFError, gzip.BadGzipFile, zlib.error) as e:
        raise DataFormatError(f"corrupt gzip stream while reading {what}: {e}") from e
    return b"".join(chunks)


def load_idx(images_path, labels_path, name=None):
    """Load an IDX image/label file pair (plain or gzipped).

    Image files carry magic 2051 and three big-endian uint32 dims,
    label files magic 2049 and one. Pixels are scaled by 1/255.
    """
    with _open_maybe_gzip(images_path) as f:
        magic, n, rows, cols = struct.unpack(
            ">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: image magic {magic}, expected {IDX_IMAGES_MAGIC}")
        raw = _read_exact(f, n * rows * cols, f"{n} images")
        try:
            images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
        except ValueError as e:  # no images, but more pixels than numpy can index
            raise DataFormatError(f"{images_path}: image dims {rows}x{cols}: {e}") from e
    with _open_maybe_gzip(labels_path) as f:
        magic, n_labels = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: label magic {magic}, expected {IDX_LABELS_MAGIC}")
        labels = np.frombuffer(_read_exact(f, n_labels, f"{n_labels} labels"),
                               dtype=np.uint8)
    if n != n_labels:
        raise DataFormatError(
            f"image/label count mismatch: {n} images, {n_labels} labels")
    if name is None:
        name = os.path.basename(str(images_path))
    return ImageDataset(images / 255.0, labels.astype(np.int64), name)


def save_idx(images_path, labels_path, images_uint8, labels):
    """Write an IDX pair; inverse of ``load_idx`` up to the 1/255 scale.

    ``images_uint8`` is (n, rows, cols) or (n, pixels) with a square
    pixel count; values must already be uint8.
    """
    imgs = np.asarray(images_uint8)
    if imgs.dtype != np.uint8:
        raise DataFormatError("images must be uint8")
    if imgs.ndim == 2:
        side = int(round(imgs.shape[1] ** 0.5))
        if side * side != imgs.shape[1]:
            raise DataFormatError("flat images must have a square pixel count")
        imgs = imgs.reshape(len(imgs), side, side)
    n, rows, cols = imgs.shape
    lab = np.asarray(labels)
    if lab.shape != (n,):
        raise DataFormatError("one label per image required")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(imgs.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(lab.astype(np.uint8).tobytes())


def make_variation(dataset, seed):
    """Add unit Gaussian noise to every pixel; values are not clipped."""
    if dataset.noised:
        raise DataFormatError(f"{dataset.name} already carries variation noise")
    rng = np.random.default_rng(seed)
    noisy = rng.normal(0.0, 1.0, size=dataset.images.shape)
    noisy += dataset.images
    return ImageDataset(noisy, dataset.labels.copy(),
                        f"{dataset.name}-variation", noised=True)


def _permute_rows(x, order):
    """``x[:] = x[order]`` bit for bit, cycle by cycle with one spare row."""
    order = order.tolist()
    for start in range(len(order)):
        if order[start] == start:
            continue
        j, spare = start, x[start].copy()
        while order[j] != start:
            x[j] = x[order[j]]
            order[j], j = j, order[j]  # row j is placed; go to its source
        x[j], order[j] = spare, j


def synthetic_digits(n_train, n_test, seed):
    """Stand-in corpus with the texture of scaled digit images.

    Each class gets a fixed random template in [0, 1]; samples are the
    template plus Gaussian jitter, clipped back into [0, 1]. Classes are
    exactly balanced (counts are rounded down to a multiple of ``N_CLASSES``)
    and shuffled in place. Useful wherever real scans are unavailable
    but the pipeline and learning dynamics still need exercising.
    """
    ss = np.random.SeedSequence(seed)
    template_rng, train_rng, test_rng = [np.random.default_rng(c)
                                         for c in ss.spawn(3)]
    templates = template_rng.uniform(0.0, 1.0, size=(N_CLASSES, PIXELS))

    def draw(count, rng, tag):
        per = count // N_CLASSES
        x = np.empty((per * N_CLASSES, PIXELS))
        for c in range(N_CLASSES):
            # rng.normal(0.0, 0.3) is 0.0 + 0.3 * standard_normal: same bits
            block = rng.standard_normal(out=x[c * per:(c + 1) * per])
            block *= 0.3
            block += templates[c]
            np.clip(block, 0.0, 1.0, out=block)
        y = np.repeat(np.arange(N_CLASSES, dtype=np.int64), per)
        order = rng.permutation(len(x))
        _permute_rows(x, order)
        return ImageDataset(x, y[order], tag)

    return (draw(n_train, train_rng, "synthetic-train"),
            draw(n_test, test_rng, "synthetic-test"))


@dataclass
class TaskDataset:
    """Binary training or test set for one one-vs-rest task.

    ``source`` is the whole image array the examples are drawn from
    (the training images, or the multiclass pool for a test set), not
    the examples: those are ``x = source[rows]``, gathered on demand.
    """

    source: np.ndarray
    rows: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.source = np.asarray(self.source)
        self.rows = np.asarray(self.rows)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if self.source.ndim != 2 or self.source.dtype != np.float64 \
                or self.rows.dtype.kind not in "iu" \
                or self.y.ndim != 1 or self.rows.shape != self.y.shape:
            raise DataFormatError(
                "task data must be (n, d) float64 images and rows, one per label")
        if np.any((self.rows < 0) | (self.rows >= len(self.source))):
            raise DataFormatError(
                f"rows must index the {len(self.source)} source images")
        if len(self.y) and not np.all((self.y == 0.0) | (self.y == 1.0)):
            raise DataFormatError("task labels must be 0 or 1")

    @property
    def x(self):
        return self.source[self.rows]

    def __len__(self):
        return len(self.rows)


@dataclass
class Task:
    train: TaskDataset
    test: TaskDataset


@dataclass
class TaskStream:
    """Ordered binary tasks plus the shared multiclass evaluation pool."""

    tasks: list
    pool_x: np.ndarray
    pool_y: np.ndarray

    def __post_init__(self):
        for t, task in enumerate(self.tasks):
            if task.test.source is not self.pool_x:
                raise DataFormatError(f"task {t}: test rows must index the pool")

    def __len__(self):
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


def _binary_set(images, labels, task, rng, cap=None):
    pos = np.flatnonzero(labels == task)
    neg = np.flatnonzero(labels != task)
    rng.shuffle(pos)
    if cap is not None:
        pos = pos[:max(1, min(len(pos), int(cap / 2.0)))]
    n_neg = min(len(pos), len(neg))
    if n_neg == 0:
        raise DataFormatError(f"class {task}: no negative examples")
    neg = rng.choice(neg, size=n_neg, replace=False)
    idx = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(len(pos)), np.zeros(n_neg)])
    order = rng.permutation(len(idx))
    return TaskDataset(images, idx[order], y[order])


def build_task_stream(train, test, n_tasks=10, seed=0, per_task_train=None,
                      test_count=2000):
    """Cut two image datasets into an ordered one-vs-rest task stream.

    Task ``t`` is "class ``t`` against the rest": its training
    positives are every class-``t`` training image (shuffled, then
    capped so positives + negatives stay within ``per_task_train`` when
    a cap is given) and its negatives as many images sampled from the
    other classes. Binary test sets are balanced the same way and come
    from the multiclass pool, a view of the first ``test_count`` images
    of ``test``; each test set's ``rows`` are its images' pool rows, so
    one forward pass over the pool scores every task. All sampling
    comes from one seed and is reproducible byte for byte. Data lacking
    a task's class raises ``DataFormatError``; a pool too small to hold
    one raises ``ValueError`` (raise ``test_count``).
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    pool_x, pool_y = (a[:max(test_count, 0)] for a in (test.images, test.labels))
    for labels, fault, what in (
            (train.labels, DataFormatError, "training data"),
            (test.labels, DataFormatError, "test data"),
            (pool_y, ValueError,
             f"a multiclass pool of {len(pool_y)} test images (test_count)")):
        present = set(np.unique(labels).tolist())
        missing = [c for c in range(n_tasks) if c not in present]
        if missing:
            raise fault(f"{what} lacks classes {missing}")
    ss = np.random.SeedSequence(seed)
    tasks = []
    for t, child in enumerate(ss.spawn(n_tasks)):
        rng = np.random.default_rng(child)
        tr = _binary_set(train.images, train.labels, t, rng, cap=per_task_train)
        te = _binary_set(pool_x, pool_y, t, rng)
        tasks.append(Task(train=tr, test=te))
    return TaskStream(tasks=tasks, pool_x=pool_x, pool_y=pool_y)


def find_mnist(data_dir=None):
    """Locate the four canonical IDX files, gzipped or plain.

    Looks in ``data_dir``, else in ``$PSS_DATA_DIR``. Returns a dict of
    paths or None when any file is missing.
    """
    root = data_dir or os.environ.get(DATA_DIR_ENV)
    if not root:
        return None
    found = {}
    for key, base in MNIST_FILES.items():
        for candidate in (os.path.join(root, base),
                          os.path.join(root, base + ".gz")):
            if os.path.exists(candidate):
                found[key] = candidate
                break
        else:
            return None
    return found


def load_mnist(data_dir=None):
    paths = find_mnist(data_dir)
    if paths is None:
        root = data_dir or os.environ.get(DATA_DIR_ENV) or "(unset)"
        raise DataFormatError(
            f"IDX files not found under {root}; set {DATA_DIR_ENV} or pass a directory")
    train = load_idx(paths["train_images"], paths["train_labels"], "mnist-train")
    test = load_idx(paths["test_images"], paths["test_labels"], "mnist-test")
    return train, test
