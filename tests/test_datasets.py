"""Built-in generators and file loaders."""

import numpy as np
import pytest

from reverb_snn.cli import main
from reverb_snn.datasets import (bar_images, load_dataset, two_gaussians,
                                 xor_gaussians)
from reverb_snn.errors import ParseError


class TestBuiltins:
    def test_two_gaussians_shapes_and_range(self):
        ds = two_gaussians(seed=0)
        assert ds.train_x.shape == (512, 16)
        assert ds.test_x.shape == (256, 16)
        assert ds.num_classes == 2
        assert ds.train_x.min() >= 0.0 and ds.train_x.max() <= 1.0

    def test_two_gaussians_linearly_separable(self):
        # the class-conditional means of the signal coordinates are far apart
        ds = two_gaussians(seed=1)
        mu0 = ds.train_x[ds.train_y == 0, :4].mean()
        mu1 = ds.train_x[ds.train_y == 1, :4].mean()
        assert abs(mu0 - mu1) > 0.3

    def test_deterministic_given_seed(self):
        a = two_gaussians(seed=5)
        b = two_gaussians(seed=5)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_y, b.train_y)

    def test_seed_changes_data(self):
        a = two_gaussians(seed=5)
        b = two_gaussians(seed=6)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_xor_gaussians_not_linearly_separable(self):
        ds = xor_gaussians(seed=0)
        # a linear readout on the two signal coordinates cannot beat ~70%
        x, y = ds.train_x[:, :2], ds.train_y
        x1 = np.hstack([x, np.ones((len(x), 1))])
        w, *_ = np.linalg.lstsq(x1, 2.0 * y - 1.0, rcond=None)
        acc = ((x1 @ w > 0) == y).mean()
        assert acc < 0.7

    def test_bar_images_shape(self):
        ds = bar_images(seed=0)
        assert ds.train_x.shape == (512, 1, 8, 8)
        assert ds.num_classes == 4

    def test_load_dataset_builtin_name(self):
        ds = load_dataset("two-gaussians", seed=3)
        assert ds.name == "two-gaussians"

    @pytest.mark.parametrize("sizes", [{}, {"n_train": 64, "n_test": 4}])
    @pytest.mark.parametrize("seed", range(5))
    def test_bar_images_bytes_match_per_sample_loop(self, seed, sizes):
        ds, want_x, want_y = bar_images(seed=seed, **sizes), *_bar_images_loop(seed, **sizes)
        n_train = len(ds.train_y)
        for got, want in ((ds.train_x, want_x[:n_train]), (ds.test_x, want_x[n_train:]),
                          (ds.train_y, want_y[:n_train]), (ds.test_y, want_y[n_train:])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _bar_images_loop(seed, n_train=512, n_test=256, size=8):
    """Reference bar set, one sample at a time: every sample draws its bar's
    noise in turn, after all labels and backgrounds."""
    rng = np.random.default_rng(seed)
    n = n_train + n_test
    y = rng.integers(0, 4, size=n)
    x = np.clip(rng.normal(0.1, 0.1, size=(n, 1, size, size)), 0.0, 1.0)
    rows = {0: size // 4, 1: 3 * size // 4}
    cols = {2: size // 4, 3: 3 * size // 4}
    for i in range(n):
        c = int(y[i])
        if c in rows:
            x[i, 0, rows[c], :] = np.clip(0.9 + rng.normal(0, 0.05, size), 0.0, 1.0)
        else:
            x[i, 0, :, cols[c]] = np.clip(0.9 + rng.normal(0, 0.05, size), 0.0, 1.0)
    return x, y


class TestCsvDirectory:
    @staticmethod
    def _write_digit_csvs(tmp_path, n_per_class=20, side=8, classes=3):
        rng = np.random.default_rng(0)
        for c in range(classes):
            rows = rng.integers(0, 256, size=(n_per_class, side * side))
            lines = "\n".join(",".join(str(v) for v in row) for row in rows)
            (tmp_path / f"{c}.csv").write_text(lines + "\n")

    def test_square_rows_become_images(self, tmp_path):
        self._write_digit_csvs(tmp_path)
        ds = load_dataset(str(tmp_path), seed=0)
        assert ds.train_x.shape[1:] == (1, 8, 8)
        assert ds.num_classes == 3
        assert ds.train_x.max() <= 1.0
        assert len(ds.train_x) + len(ds.test_x) == 60

    def test_split_deterministic(self, tmp_path):
        self._write_digit_csvs(tmp_path)
        a = load_dataset(str(tmp_path), seed=4)
        b = load_dataset(str(tmp_path), seed=4)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)

    def test_bad_label_name_rejected(self, tmp_path):
        (tmp_path / "cat.csv").write_text("1,2,3\n")
        with pytest.raises(ParseError):
            load_dataset(str(tmp_path), seed=0)

    def test_negative_label_name_rejected(self, tmp_path):
        # Training on label -1 would end in "labels out of range".
        self._write_digit_csvs(tmp_path)
        (tmp_path / "-1.csv").write_text((tmp_path / "0.csv").read_text())
        with pytest.raises(ParseError, match="-1.csv"):
            load_dataset(str(tmp_path), seed=0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        # Training on it would write NaN encoder weights and exit 0.
        self._write_digit_csvs(tmp_path)
        lines = (tmp_path / "1.csv").read_text().splitlines()
        lines[3] = ",".join([cell] + lines[3].split(",")[1:])
        (tmp_path / "1.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="1.csv"):
            load_dataset(str(tmp_path), seed=0)

    def test_ragged_rows_rejected(self, tmp_path):
        (tmp_path / "0.csv").write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError):
            load_dataset(str(tmp_path), seed=0)

    def test_empty_class_file_rejected(self, tmp_path):
        (tmp_path / "0.csv").write_text("")
        with pytest.raises(ParseError):
            load_dataset(str(tmp_path), seed=0)

    @pytest.mark.parametrize("n_per_class", [1, 2])
    def test_empty_test_split_rejected(self, tmp_path, n_per_class):
        # The 80/20 split keeps at least one row per class for training, so
        # classes of one or two rows leave nothing to test on.
        self._write_digit_csvs(tmp_path, n_per_class=n_per_class)
        with pytest.raises(ParseError, match="no test samples"):
            load_dataset(str(tmp_path), seed=0)


class TestIdxDirectory:
    @staticmethod
    def _idx_bytes(dims, payload):
        ndim = len(dims)
        header = bytes([0, 0, 0x08, ndim])
        for d in dims:
            header += int(d).to_bytes(4, "big")
        return header + payload

    def _write_idx_dir(self, tmp_path, n_train=12, n_test=5, side=4):
        rng = np.random.default_rng(1)
        for stem, n in (("train", n_train), ("t10k", n_test)):
            imgs = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
            labels = rng.integers(0, 3, size=n, dtype=np.uint8)
            (tmp_path / f"{stem}-images-idx3-ubyte").write_bytes(
                self._idx_bytes((n, side, side), imgs.tobytes())
            )
            (tmp_path / f"{stem}-labels-idx1-ubyte").write_bytes(
                self._idx_bytes((n,), labels.tobytes())
            )

    def test_official_split_loaded(self, tmp_path):
        self._write_idx_dir(tmp_path)
        ds = load_dataset(str(tmp_path), seed=0)
        assert ds.train_x.shape == (12, 1, 4, 4)
        assert ds.test_x.shape == (5, 1, 4, 4)
        assert ds.train_x.max() <= 1.0

    def test_truncated_payload_reports_offset(self, tmp_path):
        self._write_idx_dir(tmp_path)
        f = tmp_path / "train-images-idx3-ubyte"
        data = f.read_bytes()
        f.write_bytes(data[:-7])
        with pytest.raises(ParseError) as err:
            load_dataset(str(tmp_path), seed=0)
        assert err.value.offset is not None

    def test_bad_magic_rejected(self, tmp_path):
        self._write_idx_dir(tmp_path)
        f = tmp_path / "train-images-idx3-ubyte"
        f.write_bytes(b"\xff\xff\xff\xff" + f.read_bytes()[4:])
        with pytest.raises(ParseError):
            load_dataset(str(tmp_path), seed=0)

    def test_image_label_count_mismatch_rejected(self, tmp_path):
        self._write_idx_dir(tmp_path)
        labels = tmp_path / "train-labels-idx1-ubyte"
        labels.write_bytes(self._idx_bytes((11,), bytes(11)))
        with pytest.raises(ParseError):
            load_dataset(str(tmp_path), seed=0)

    def _train_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {tmp_path}\narchitecture = mlp-small\n"
                       "mode = reverb\ntimesteps = 1\nepochs = 1\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.rvrb")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("n_train, n_test, split", [(12, 0, "t10k"), (0, 5, "train")])
    def test_empty_split_is_parse_error(self, tmp_path, capsys, n_train, n_test, split):
        self._write_idx_dir(tmp_path, n_train=n_train, n_test=n_test)
        code, err = self._train_exit(tmp_path, capsys)
        assert code == 2
        assert f"{split}: no samples" in err

    # Training takes (n,) labels, and `_load_idx_dir`'s [:, None] turns only
    # (n, H, W) images into (n, 1, H, W) samples.
    @pytest.mark.parametrize("name, dims", [("train-labels-idx1-ubyte", (12, 1)),
                                            ("t10k-images-idx3-ubyte", (5, 16)),
                                            ("train-images-idx3-ubyte", (12, 1, 4, 4))])
    def test_wrong_rank_is_parse_error(self, tmp_path, capsys, name, dims):
        self._write_idx_dir(tmp_path)
        (tmp_path / name).write_bytes(self._idx_bytes(dims, bytes(int(np.prod(dims)))))
        code, err = self._train_exit(tmp_path, capsys)
        assert code == 2
        assert f"{name}: header gives {len(dims)} dimensions" in err

    def test_zero_dimension_header_is_parse_error(self, tmp_path, capsys):
        self._write_idx_dir(tmp_path)
        (tmp_path / "train-images-idx3-ubyte").write_bytes(self._idx_bytes((), bytes(1)))
        code, err = self._train_exit(tmp_path, capsys)
        assert code == 2
        assert "train-images-idx3-ubyte: header gives no dimensions" in err

    def test_dot_separated_naming_variant(self, tmp_path):
        # some distributions name the files train-images.idx3-ubyte
        self._write_idx_dir(tmp_path)
        for old in tmp_path.iterdir():
            new = old.name.replace("-idx", ".idx")
            old.rename(tmp_path / new)
        ds = load_dataset(str(tmp_path), seed=0)
        assert ds.train_x.shape == (12, 1, 4, 4)


def test_missing_path_is_io_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(str(tmp_path / "nope"), seed=0)
