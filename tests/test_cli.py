"""End-to-end command-line harness tests (train is run at tiny scale)."""

import json

import numpy as np
import pytest

from reverb_snn.checkpoint import load_checkpoint, save_checkpoint
from reverb_snn.cli import main
from reverb_snn.network import build_network
from reverb_snn.neuron import FireMode
from reverb_snn.reparam import fold_alpha


def write_config(path, **overrides):
    base = {
        "dataset": "two-gaussians",
        "architecture": "mlp-small",
        "mode": "reverb",
        "timesteps": 2,
        "epochs": 2,
        "batch": 128,
        "lr0": 0.02,
        "seed": 0,
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


@pytest.fixture()
def trained(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "model.rvrb"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    return cfg, out


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, trained):
        cfg, out = trained
        assert out.exists()
        lines = (out.parent / (out.name + ".metrics")).read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0].keys() == {"epoch", "lr", "loss", "acc"}
        assert records[0]["epoch"] == 0
        assert records[0]["lr"] == pytest.approx(0.02)

    def test_metrics_append_only(self, trained, tmp_path, capsys):
        cfg, out = trained
        metrics = out.parent / (out.name + ".metrics")
        before = metrics.read_text()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert metrics.read_text().startswith(before)

    def test_seed_fixed_runs_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        outs = []
        for name in ("a.rvrb", "b.rvrb"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", epochs=0)
        out = tmp_path / "init.rvrb"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        net = load_checkpoint(out)
        fresh = build_network("mlp-small", (16,), 2, "reverb", 2, 0.25, 0.0, seed=0)
        for a, b in zip(net.layers, fresh.layers):
            np.testing.assert_array_equal(a.w_latent, b.w_latent)

    def test_mode_override_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "v.rvrb"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--mode", "vanilla"]) == 0
        net = load_checkpoint(out)
        assert all(nrn.mode is FireMode.BINARY for nrn in net.neurons)
        assert not any(layer.binarize for layer in net.layers)

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "x.rvrb")]) == 3

    def test_layer_spec_architecture_trains(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", architecture="d16 d16 d16")
        out = tmp_path / "spec.rvrb"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        net = load_checkpoint(out)
        assert [layer.w_latent.shape for layer in net.layers] == [
            (16, 16), (16, 16), (16, 16), (2, 16)]
        assert [layer.binarize for layer in net.layers] == [False, True, True, False]

    def test_conv_spec_on_flat_data_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", architecture="c4 d8")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x.rvrb")]) == 4
        assert "(C_in, H, W)" in capsys.readouterr().err

    @pytest.mark.parametrize("arch", ["d99999999999999", "d16 d99999999999999"])
    def test_oversized_layer_exits_4_naming_its_token(self, tmp_path, arch, capsys):
        # numpy refuses weights of petabytes before allocating any of them.
        cfg = write_config(tmp_path / "run.cfg", architecture=arch)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x.rvrb")]) == 4
        assert "token 'd99999999999999'" in capsys.readouterr().err
        assert not (tmp_path / "x.rvrb").exists()

    def test_bad_config_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus_key = 1\n")
        assert main(["train", "--config", str(bad),
                     "--out", str(tmp_path / "x.rvrb")]) == 2

    def test_non_utf8_config_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfedataset = rings\n")
        assert main(["train", "--config", str(bad),
                     "--out", str(tmp_path / "x.rvrb")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("tau", "2"), ("tau", "-0.25"), ("tau", "nan"), ("v_th", "nan"), ("v_th", "inf"),
        ("lr0", "-1"), ("lr0", "inf"), ("lr0", "nan"), ("momentum", "1"), ("momentum", "-0.1"),
        ("momentum", "nan"), ("timesteps", "0"), ("batch", "0"), ("epochs", "-1"),
        ("seed", "-1"), ("architecture", ""), ("architecture", "d16 q4"),
        ("architecture", "d0"), ("architecture", "c4s0"), ("architecture", "d8 c4"),
    ])
    def test_out_of_range_config_value_is_parse_error(self, tmp_path, key, value, capsys):
        cfg = write_config(tmp_path / "run.cfg", **{key: value})
        out = tmp_path / "x.rvrb"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_timesteps_is_parse_error(self, tmp_path, command, value, capsys):
        # Rejected while parsing, before the config or checkpoint is read.
        args = (["train", "--config", str(write_config(tmp_path / "run.cfg")),
                 "--out", str(tmp_path / "t.rvrb")]
                if command == "train"
                else ["eval", "--checkpoint", str(tmp_path / "none.rvrb"),
                      "--dataset", "two-gaussians"])
        with pytest.raises(SystemExit) as exc:
            main(args + ["--timesteps", value])
        assert exc.value.code == 2
        assert "--timesteps" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "reparam", "eval", "energy", "gradcheck"])
def test_negative_seed_is_parse_error(tmp_path, command, capsys):
    # Rejected while parsing, before any config or checkpoint is read.
    ckpt = ["--checkpoint", str(tmp_path / "none.rvrb")]
    args = {"train": ["--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "t.rvrb")],
            "reparam": ckpt + ["--out", str(tmp_path / "f.rvrb")],
            "eval": ckpt + ["--dataset", "two-gaussians"],
            "energy": ckpt + ["--dataset", "two-gaussians"],
            "gradcheck": []}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestReparam:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_probes_is_parse_error(self, tmp_path, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reparam", "--checkpoint", str(tmp_path / "none.rvrb"),
                  "--out", str(tmp_path / "f.rvrb"), "--probes", value])
        assert exc.value.code == 2
        assert "--probes" in capsys.readouterr().err

    def test_wrong_fold_exits_one_and_writes_nothing(self, trained, tmp_path,
                                                     monkeypatch, capsys):
        import reverb_snn.cli as cli
        from reverb_snn.reparam import fold_alpha

        def corrupting_fold(net):
            folded = fold_alpha(net)
            folded.layers[-1].w_latent += 0.5
            return folded

        monkeypatch.setattr(cli, "fold_alpha", corrupting_fold)
        _, out = trained
        folded = tmp_path / "folded.rvrb"
        assert main(["reparam", "--checkpoint", str(out), "--out", str(folded)]) == 1
        captured = capsys.readouterr()
        diff = float(captured.out.split("max output difference over 32 probes:")[1].split()[0])
        assert diff > 1e-9
        assert "FAIL" in captured.err
        assert not folded.exists()

    def test_fold_prints_max_diff_and_writes(self, trained, tmp_path, capsys):
        _, out = trained
        folded = tmp_path / "folded.rvrb"
        assert main(["reparam", "--checkpoint", str(out), "--out", str(folded)]) == 0
        printed = capsys.readouterr().out
        diff = float(printed.split("max output difference over 32 probes:")[1].split()[0])
        assert diff <= 1e-9
        net = load_checkpoint(folded)
        assert net.inference_form

    def test_refold_is_mode_error(self, trained, tmp_path, capsys):
        _, out = trained
        folded = tmp_path / "folded.rvrb"
        main(["reparam", "--checkpoint", str(out), "--out", str(folded)])
        capsys.readouterr()
        assert main(["reparam", "--checkpoint", str(folded),
                     "--out", str(tmp_path / "again.rvrb")]) == 6

    def test_unit_fold_weights_are_signs(self, trained, tmp_path, capsys):
        _, out = trained
        folded_path = tmp_path / "folded.rvrb"
        main(["reparam", "--checkpoint", str(out), "--out", str(folded_path)])
        trained_net = load_checkpoint(out)
        folded_net = load_checkpoint(folded_path)
        mid_t, mid_f = trained_net.layers[1], folded_net.layers[1]
        np.testing.assert_array_equal(
            mid_f.w_latent, np.where(mid_t.w_latent >= 0, 1.0, -1.0)
        )


class TestEmptyTestSplit:
    @pytest.mark.parametrize("folded", [False, True])
    def test_train_and_eval_are_parse_errors(self, tmp_path, folded, capsys):
        from reverb_snn.checkpoint import save_checkpoint
        from reverb_snn.network import MODE_LEARNABLE
        from reverb_snn.reparam import fold_alpha

        csvs = tmp_path / "csv"
        csvs.mkdir()
        for c in range(2):
            (csvs / f"{c}.csv").write_text("0.1,0.9\n")
        cfg = write_config(tmp_path / "run.cfg", dataset=str(csvs))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.rvrb")]) == 2
        assert "no test samples" in capsys.readouterr().err

        net = build_network("d2 d2", (2,), 2, MODE_LEARNABLE, timesteps=1)
        ckpt = tmp_path / "net.rvrb"
        save_checkpoint(fold_alpha(net) if folded else net, ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csvs)]) == 2
        assert "no test samples" in capsys.readouterr().err


class TestEvalAndEnergy:
    def test_eval_trained_vs_folded_same_accuracy(self, trained, tmp_path, capsys):
        _, out = trained
        folded = tmp_path / "folded.rvrb"
        main(["reparam", "--checkpoint", str(out), "--out", str(folded)])
        capsys.readouterr()

        assert main(["eval", "--checkpoint", str(out),
                     "--dataset", "two-gaussians"]) == 0
        dense_out = capsys.readouterr()
        assert "warning" in dense_out.err
        acc_dense = float(dense_out.out.split("accuracy: ")[1].split()[0])

        assert main(["eval", "--checkpoint", str(folded),
                     "--dataset", "two-gaussians"]) == 0
        ev_out = capsys.readouterr().out
        acc_event = float(ev_out.split("accuracy: ")[1].split()[0])
        assert acc_dense == acc_event
        assert "weight-activation multiplications = 0" in ev_out

    def test_energy_report_line_is_valid_json(self, trained, tmp_path, capsys):
        _, out = trained
        folded = tmp_path / "folded.rvrb"
        main(["reparam", "--checkpoint", str(out), "--out", str(folded)])
        capsys.readouterr()
        assert main(["energy", "--checkpoint", str(folded),
                     "--dataset", "two-gaussians"]) == 0
        printed = capsys.readouterr().out
        line = [l for l in printed.splitlines() if l.startswith("energy-report:")][0]
        report = json.loads(line.split("energy-report: ")[1])
        assert report["energy_joules"] == pytest.approx(
            report["flops"] * 12.5e-12 + report["sops"] * 77e-15
        )
        assert "accuracy" not in printed

    @pytest.mark.parametrize("command", ["eval", "energy"])
    def test_timesteps_sets_the_loaded_networks_t(self, trained, tmp_path, command, capsys):
        # The fixture trains at T = 2. FLOPs are charged once per timestep, and
        # at a zero threshold each layer's spike pattern repeats every step,
        # so at T = 4 the FLOPs and the event accumulations double.
        _, out = trained
        folded = tmp_path / "folded.rvrb"
        main(["reparam", "--checkpoint", str(out), "--out", str(folded)])
        for ckpt in (out, folded):
            printed = []
            for extra in ([], ["--timesteps", "4"]):
                capsys.readouterr()
                assert main([command, "--checkpoint", str(ckpt),
                             "--dataset", "two-gaussians"] + extra) == 0
                printed.append(capsys.readouterr().out)
            reports = [json.loads(p.split("energy-report: ")[1]) for p in printed]
            assert [r["timesteps"] for r in reports] == [2, 4]
            assert reports[1]["flops"] == 2 * reports[0]["flops"]
            if ckpt == folded:
                acc = [int(p.split("accumulations = ")[1].split()[0]) for p in printed]
                assert acc[0] > 0 and acc[1] == 2 * acc[0]

    @pytest.mark.parametrize("command", ["eval", "energy"])
    def test_network_without_middle_layer(self, tmp_path, command, capsys):
        from reverb_snn import fold_alpha, save_checkpoint

        net = build_network("d128", (8,), 2, "reverb", 2)
        save_checkpoint(net, tmp_path / "trained.rvrb")
        save_checkpoint(fold_alpha(net), tmp_path / "folded.rvrb")
        for name in ("trained.rvrb", "folded.rvrb"):
            capsys.readouterr()
            assert main([command, "--checkpoint", str(tmp_path / name),
                         "--dataset", "rings"]) == 0
            printed = capsys.readouterr().out
            report = json.loads(printed.split("energy-report: ")[1])
            assert report["sops"] == 0 and report["sparsity"] == 0.0
            assert report["sparsity_per_layer"] == {}

    def test_folded_vanilla_checkpoint_counts_sops_without_audit_line(self, tmp_path, capsys):
        # Binary spikes through real weights: the middle layer costs SOPs,
        # but the addition-only kernel never ran, so there is nothing to audit.
        net = build_network("mlp-tiny", (8,), 2, "vanilla", 2, seed=3)
        out = tmp_path / "folded.rvrb"
        save_checkpoint(fold_alpha(net), out)
        assert main(["eval", "--checkpoint", str(out), "--dataset", "rings"]) == 0
        printed = capsys.readouterr().out
        assert "kernel audit" not in printed
        report = json.loads(printed.split("energy-report: ")[1])
        assert report["sops"] > 0 and report["sparsity"] > 0

    def test_dataset_shape_mismatch_exit_code(self, trained, capsys):
        _, out = trained
        assert main(["eval", "--checkpoint", str(out),
                     "--dataset", "bar-images"]) == 4

    @pytest.mark.parametrize("folded", [False, True])
    def test_wrong_sample_shape_exits_4_on_both_paths(self, tmp_path, folded, capsys):
        # The dense path (trained form) and the event path (folded form) each
        # check the samples they are given.
        net = build_network("mlp-tiny", (8,), 2, "reverb", 2, seed=0)
        out = tmp_path / "net.rvrb"
        save_checkpoint(fold_alpha(net) if folded else net, out)
        assert main(["eval", "--checkpoint", str(out), "--dataset", "bar-images"]) == 4
        assert "(8,)" in capsys.readouterr().err

    def test_stride_zero_checkpoint_is_parse_error(self, tmp_path, capsys):
        # A flipped bit 0 of a stride of 1 gives 0; the shape rule must
        # reject it before any conv output size divides by it.
        net = build_network("convnet-small", (1, 8, 8), 4, "reverb", 2, seed=0)
        net.layers[0].stride = 0
        out = tmp_path / "net.rvrb"
        save_checkpoint(net, out)
        assert main(["eval", "--checkpoint", str(out), "--dataset", "bar-images"]) == 2
        assert "stride must be >= 1" in capsys.readouterr().err

    def test_zero_width_layer_checkpoint_is_parse_error(self, tmp_path, capsys):
        # A hidden layer with no outputs still chains into a layer with no
        # inputs; the layer rule must reject it before eval's sparsity
        # divides by that input size.
        net = build_network("mlp-tiny", (8,), 2, "reverb", 2, seed=0)
        hidden, after = net.layers[1], net.layers[2]
        hidden.w_latent, hidden.alpha = hidden.w_latent[:0], hidden.alpha[:0]
        after.w_latent = after.w_latent[:, :0]
        out = tmp_path / "net.rvrb"
        save_checkpoint(net, out)
        assert main(["eval", "--checkpoint", str(out), "--dataset", "rings"]) == 2
        assert "no empty axis, got (0, 16)" in capsys.readouterr().err

    @pytest.mark.parametrize("folded", [False, True])
    def test_labels_beyond_the_head_exit_4(self, tmp_path, folded, capsys):
        # Class 2 of the CSV directory has no output of a 2-class network.
        net = build_network("mlp-tiny", (8,), 2, "reverb", 2, seed=0)
        out = tmp_path / "net.rvrb"
        save_checkpoint(fold_alpha(net) if folded else net, out)
        csvs = tmp_path / "csv"
        csvs.mkdir()
        rng = np.random.default_rng(0)
        for c in range(3):
            np.savetxt(csvs / f"{c}.csv", rng.uniform(0, 1, (5, 8)), delimiter=",")
        assert main(["eval", "--checkpoint", str(out), "--dataset", str(csvs)]) == 4
        assert "outside [0, 2)" in capsys.readouterr().err


class TestGradcheck:
    def test_gradcheck_passes_fresh_seed(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gradcheck_tau_zero_config(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("tau = 0.0\n")
        assert main(["gradcheck", "--config", str(cfg)]) == 0

    def test_random_weight_model_chance_accuracy(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", epochs=0, dataset="bar-images",
                           architecture="convnet-small")
        out = tmp_path / "rand.rvrb"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out), "--dataset", "bar-images"]) == 0
        acc = float(capsys.readouterr().out.split("accuracy: ")[1].split()[0])
        assert abs(acc - 0.25) < 0.15  # four balanced classes, untrained net


@pytest.mark.slow
class TestPairedModes:
    def test_reverb_beats_vanilla_on_desk_run(self, tmp_path, capsys):
        # Paired CLI runs differing only in --mode: real-spike binary-weight
        # training reaches at least the binary-spike baseline's accuracy.
        cfg = write_config(tmp_path / "run.cfg", dataset="rings",
                           architecture="mlp-tiny", epochs=80, batch=64,
                           lr0=0.025, seed=0)
        final = {}
        for mode in ("vanilla", "reverb"):
            out = tmp_path / f"{mode}.rvrb"
            assert main(["train", "--config", str(cfg), "--out", str(out),
                         "--mode", mode]) == 0
            records = [json.loads(l) for l in
                       (tmp_path / f"{mode}.rvrb.metrics").read_text().splitlines()]
            final[mode] = records[-1]["acc"]
        capsys.readouterr()
        assert final["reverb"] >= final["vanilla"]
