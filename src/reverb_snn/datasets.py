"""Dataset ingestion: built-in synthetic generators, IDX image files, and
directories of per-class CSVs.

All loaders return features normalized into [0, 1] with integer labels, and
are deterministic given the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError


@dataclass
class Dataset:
    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.train_x.shape[1:])

    @property
    def num_classes(self) -> int:
        return int(max(self.train_y.max(), self.test_y.max())) + 1


def two_gaussians(n_train: int = 512, n_test: int = 256, seed: int = 0) -> Dataset:
    """Two well-separated Gaussian blobs: the linearly separable sanity set.

    Of the 16 coordinates, the first four carry the class signal; the rest
    are uniform noise.
    """
    rng = np.random.default_rng(seed)
    n = n_train + n_test
    y = rng.integers(0, 2, size=n)
    x = rng.uniform(0.0, 1.0, size=(n, 16))
    signal = np.where(y[:, None] == 0, 0.3, 0.7)
    x[:, :4] = np.clip(signal + rng.normal(0.0, 0.08, size=(n, 4)), 0.0, 1.0)
    return Dataset("two-gaussians", x[:n_train], y[:n_train], x[n_train:], y[n_train:])


def xor_gaussians(n_train: int = 512, n_test: int = 256, seed: int = 0) -> Dataset:
    """XOR-arranged Gaussian clusters in the first two of 8 coordinates (the
    rest uniform noise): not linearly separable, so the hidden layer has to
    do real work."""
    rng = np.random.default_rng(seed)
    n = n_train + n_test
    corner = rng.integers(0, 4, size=n)
    y = (corner == 1) | (corner == 2)  # opposite corners share a class
    cx = np.where((corner == 1) | (corner == 3), 0.75, 0.25)
    cy = np.where(corner >= 2, 0.75, 0.25)
    x = rng.uniform(0.0, 1.0, size=(n, 8))
    x[:, 0] = np.clip(cx + rng.normal(0.0, 0.11, size=n), 0.0, 1.0)
    x[:, 1] = np.clip(cy + rng.normal(0.0, 0.11, size=n), 0.0, 1.0)
    return Dataset("xor-gaussians", x[:n_train], y[:n_train].astype(np.int64),
                   x[n_train:], y[n_train:].astype(np.int64))


def rings(n_train: int = 512, n_test: int = 256, seed: int = 0) -> Dataset:
    """Concentric annuli in the first two of 8 coordinates (the rest uniform
    noise): class is the radial band of the point. The boundary
    is a circle, so hidden units must carry graded magnitudes to fit it well,
    which makes this the discriminating set for the activation-precision
    ablation."""
    rng = np.random.default_rng(seed)
    n = n_train + n_test
    theta = rng.uniform(0, 2 * np.pi, n)
    y = rng.integers(0, 2, size=n)
    r = np.where(y == 0, rng.uniform(0.05, 0.22, n), rng.uniform(0.28, 0.45, n))
    x = rng.uniform(0.0, 1.0, size=(n, 8))
    x[:, 0] = 0.5 + r * np.cos(theta)
    x[:, 1] = 0.5 + r * np.sin(theta)
    return Dataset("rings", x[:n_train], y[:n_train].astype(np.int64),
                   x[n_train:], y[n_train:].astype(np.int64))


def bar_images(n_train: int = 512, n_test: int = 256, seed: int = 0) -> Dataset:
    """8x8 single-channel images of horizontal/vertical bars, four classes:
    a bar at row 2 or 6, or at column 2 or 6, on a dim noisy background."""
    rng = np.random.default_rng(seed)
    n = n_train + n_test
    y = rng.integers(0, 4, size=n)
    x = np.clip(rng.normal(0.1, 0.1, size=(n, 1, 8, 8)), 0.0, 1.0)
    # One draw for every bar, in sample order: the bytes of a per-sample loop.
    bars = np.clip(0.9 + rng.normal(0, 0.05, (n, 8)), 0.0, 1.0)
    at, row = np.where(y % 2 == 0, 2, 6), y < 2
    x[row, 0, at[row], :] = bars[row]
    x[~row, 0, :, at[~row]] = bars[~row]
    return Dataset("bar-images", x[:n_train], y[:n_train], x[n_train:], y[n_train:])


BUILTINS = {
    "two-gaussians": two_gaussians,
    "xor-gaussians": xor_gaussians,
    "rings": rings,
    "bar-images": bar_images,
}


def _read_idx(directory: Path, stem: str, rank: int) -> np.ndarray:
    """The uint8 array of `directory`'s IDX file `stem`, which must have
    `rank` dimensions."""
    path = _find_idx(directory, stem)
    if path is None:
        raise ParseError(f"missing IDX file {stem}-* in {directory}")
    data = path.read_bytes()
    if len(data) < 4:
        raise ParseError(f"{path.name}: header truncated", offset=len(data))
    zero1, zero2, dtype_code, ndim = data[0], data[1], data[2], data[3]
    if zero1 != 0 or zero2 != 0 or dtype_code != 0x08:
        raise ParseError(f"{path.name}: bad magic {data[:4].hex()}", offset=0)
    if ndim != rank:
        raise ParseError(f"{path.name}: header gives {ndim or 'no'} dimensions, "
                         f"{stem} need {rank}", offset=3)
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise ParseError(f"{path.name}: dimension header truncated", offset=len(data))
    dims = [int.from_bytes(data[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    expected = int(np.prod(dims))
    if len(data) - header_end != expected:
        raise ParseError(
            f"{path.name}: payload has {len(data) - header_end} bytes, "
            f"header promises {expected}",
            offset=header_end,
        )
    return np.frombuffer(data, dtype=np.uint8, offset=header_end).reshape(dims)


def _find_idx(directory: Path, stem: str) -> Path | None:
    for pattern in (f"{stem}-idx*-ubyte", f"{stem}.idx*-ubyte"):
        hits = sorted(directory.glob(pattern))
        if hits:
            return hits[0]
    return None


def _load_idx_dir(directory: Path) -> Dataset:
    """Official-split IDX directory: (n, H, W) images in train-images /
    t10k-images, their (n,) labels in train-labels / t10k-labels."""
    parts = []
    for split in ("train", "t10k"):
        images = _read_idx(directory, f"{split}-images", 3)
        labels = _read_idx(directory, f"{split}-labels", 1)
        if len(images) != len(labels):
            raise ParseError(f"{split}: {len(images)} images but {len(labels)} labels")
        if not len(images):
            raise ParseError(f"{split}: no samples in {directory}")
        parts += [images.astype(np.float64)[:, None] / 255.0, labels.astype(np.int64)]
    return Dataset(directory.name, *parts)


def _load_csv_dir(directory: Path, seed: int) -> Dataset:
    """Directory of per-class CSVs named <label>.csv, one flattened sample per
    row. Square row widths are reshaped to (1, s, s) images. Deterministic
    stratified 80/20 split."""
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise ParseError(f"no per-class CSV files in {directory}")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    width = None
    for f in files:
        if not f.stem.isdecimal():
            raise ParseError(f"CSV file name {f.name} is not a non-negative integer class label")
        label = int(f.stem)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on empty files
                rows = np.loadtxt(f, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ParseError(f"{f.name}: {exc}")
        if rows.size == 0:
            raise ParseError(f"{f.name}: no samples")
        if not np.isfinite(rows).all():
            raise ParseError(f"{f.name}: non-finite value (nan or inf)")
        if width is None:
            width = rows.shape[1]
        elif rows.shape[1] != width:
            raise ParseError(f"{f.name}: row width {rows.shape[1]} != {width}")
        if rows.max(initial=0.0) > 1.0:
            rows = rows / 255.0
        order = rng.permutation(len(rows))
        cut = max(1, int(round(0.8 * len(rows))))
        train_parts.append((rows[order[:cut]], np.full(cut, label)))
        test_parts.append((rows[order[cut:]], np.full(len(rows) - cut, label)))
    side = int(round(np.sqrt(width)))
    shape = (-1, 1, side, side) if side * side == width else (-1, width)

    def _stack(parts):
        x = np.concatenate([p[0] for p in parts]).reshape(shape)
        y = np.concatenate([p[1] for p in parts]).astype(np.int64)
        order = rng.permutation(len(y))
        return x[order], y[order]

    train_x, train_y = _stack(train_parts)
    test_x, test_y = _stack(test_parts)
    if len(test_y) == 0:
        raise ParseError(f"{directory}: the 80/20 split leaves no test samples "
                         f"(every class has fewer than 3 rows)")
    return Dataset(directory.name, train_x, train_y, test_x, test_y)


def load_dataset(source: str, seed: int = 0) -> Dataset:
    """Resolve a dataset source: a built-in generator name, a directory of
    IDX files (official split), or a directory of per-class CSVs."""
    if source in BUILTINS:
        return BUILTINS[source](seed=seed)
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"dataset path {source!r} does not exist "
                                f"(built-ins: {', '.join(sorted(BUILTINS))})")
    if path.is_dir():
        if _find_idx(path, "train-images") is not None:
            return _load_idx_dir(path)
        return _load_csv_dir(path, seed)
    raise ParseError(f"dataset source {source!r} must be a directory or built-in name")
