"""Command-line harness: train / reparam / eval / energy / gradcheck.

Exit codes: 0 success, 1 failed check, 2 parse error, 3 I/O error,
4 dimension error, 5 training error, 6 mode error, 7 state error.
Metrics are emitted as line-delimited JSON records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .datasets import load_dataset
from .errors import (DimensionError, EngineError, ModeError, ParseError,
                     StateError, TrainingError)
from .events import evaluate_dense, evaluate_event_driven
from .network import MODE_LEARNABLE, MODES, build_network
from .reparam import fold_alpha, verify_equivalence
from .training import TrainConfig, gradient_check, train

EXIT_CODES = {
    ParseError: 2,
    OSError: 3,
    DimensionError: 4,
    TrainingError: 5,
    ModeError: 6,
    StateError: 7,
}


def _metrics_path(out: str, override: str | None) -> Path:
    return Path(override) if override else Path(str(out) + ".metrics")


def _append_metrics(path: Path, records) -> None:
    with path.open("a") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _atomic_save(net, out: Path) -> None:
    tmp = out.with_suffix(out.suffix + ".tmp")
    try:
        save_checkpoint(net, tmp)
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.mode is not None:
        cfg.mode = args.mode  # argparse choices already validate the value
    if args.timesteps is not None:
        cfg.timesteps = args.timesteps
    data = load_dataset(cfg.dataset, seed=cfg.seed)
    net = build_network(
        cfg.architecture, data.input_shape, data.num_classes, cfg.mode,
        cfg.timesteps, cfg.tau, cfg.v_th, seed=cfg.seed, affine=cfg.affine,
    )
    tc = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch, lr0=cfg.lr0,
                     momentum=cfg.momentum, seed=cfg.seed)
    net, metrics = train(net, (data.train_x, data.train_y), tc)
    out = Path(args.out)
    _atomic_save(net, out)
    _append_metrics(_metrics_path(args.out, args.metrics), metrics)
    for rec in metrics:
        print(json.dumps(rec))
    final = metrics[-1] if metrics else {"loss": None, "acc": None}
    print(f"trained {cfg.mode} {cfg.architecture} on {cfg.dataset}: "
          f"final loss {final['loss']}, train acc {final['acc']} -> {out}")
    return 0


def cmd_reparam(args) -> int:
    net = load_checkpoint(args.checkpoint)
    if net.inference_form:
        raise ModeError(f"{args.checkpoint} is already an inference-form checkpoint")
    folded = fold_alpha(net)
    rng = np.random.default_rng(args.seed)
    probes = rng.uniform(0.0, 1.0, size=(args.probes,) + tuple(net.input_shape))
    diff = verify_equivalence(net, folded, probes)
    print(f"reparameterized {len(net.layers)} layers; "
          f"max output difference over {args.probes} probes: {diff:.3e}")
    if not diff <= 1e-9:
        print("FAIL: fold is off by more than 1e-9; nothing written", file=sys.stderr)
        return 1
    _atomic_save(folded, Path(args.out))
    print(f"wrote inference-form checkpoint -> {args.out}")
    return 0


def _run_eval(args, with_accuracy: bool) -> int:
    net = load_checkpoint(args.checkpoint)
    data = load_dataset(args.dataset, seed=args.seed)
    if args.timesteps is not None:
        net.timesteps = args.timesteps
    if net.inference_form:
        acc, report, counter = evaluate_event_driven(net, data.test_x, data.test_y)
        if any(layer.binarize for layer in net.layers[1:-1]):  # the kernel ran
            print(f"kernel audit: weight-activation multiplications = "
                  f"{counter.weight_activation_mults}, accumulations = {counter.accumulations}")
    else:
        print("warning: trained-form checkpoint, using the dense path "
              "(run `reparam` for addition-only inference)", file=sys.stderr)
        acc, report = evaluate_dense(net, data.test_x, data.test_y)
    if with_accuracy:
        print(f"accuracy: {acc:.4f} over {len(data.test_y)} test samples")
    print("energy-report: " + json.dumps(report.as_dict()))
    return 0


def cmd_eval(args) -> int:
    return _run_eval(args, with_accuracy=True)


def cmd_energy(args) -> int:
    return _run_eval(args, with_accuracy=False)


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    seed = args.seed if args.seed is not None else cfg.seed
    # Tiny 6-4-4-4 net, T = 2: real encoder, binarized firing middle, real head.
    net = build_network("d4 d4", (6,), 4, MODE_LEARNABLE, 2, cfg.tau, cfg.v_th, seed)
    rng = np.random.default_rng(seed)
    batch = rng.uniform(0.0, 1.0, size=(8,) + tuple(net.input_shape))
    labels = rng.integers(0, net.num_classes, size=8)
    report = gradient_check(net, batch, labels)
    print(f"gradcheck: max relative error {report.max_rel:.3e} "
          f"(weights {report.max_rel_w:.3e}, alpha {report.max_rel_alpha:.3e}; "
          f"{report.checked} checked, {report.skipped} skipped near boundaries)")
    print("PASS" if report.passed else f"FAIL (tolerance {report.tolerance})")
    return 0 if report.passed else 1


def _int_at_least(low: int):
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reverb-snn",
        description="Spiking network engine with real-valued spikes and binary weights.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a network from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--metrics", default=None, help="metrics file (default: <out>.metrics)")
    t.add_argument("--seed", type=_int_at_least(0), default=None)
    t.add_argument("--mode", choices=MODES, default=None)
    t.add_argument("--timesteps", type=_int_at_least(1), default=None)
    t.set_defaults(func=cmd_train)

    r = sub.add_parser("reparam", help="fold amplitudes into firing scales")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--probes", type=_int_at_least(1), default=32)
    r.add_argument("--seed", type=_int_at_least(0), default=0)
    r.set_defaults(func=cmd_reparam)

    for name, fn, hlp in (("eval", cmd_eval, "accuracy + energy report"),
                          ("energy", cmd_energy, "energy report only")):
        e = sub.add_parser(name, help=hlp)
        e.add_argument("--checkpoint", required=True)
        e.add_argument("--dataset", required=True)
        e.add_argument("--seed", type=_int_at_least(0), default=0)
        e.add_argument("--timesteps", type=_int_at_least(1), default=None,
                       help="run the loaded network for this many timesteps")
        e.set_defaults(func=fn)

    g = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    g.add_argument("--config", default=None)
    g.add_argument("--seed", type=_int_at_least(0), default=None)
    g.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
