"""Same-seed fingerprint of the train -> fold -> infer cycle.

Trains both shipped recipes (configs/rings-tiny.cfg, configs/convnet-bars.cfg)
at one seed, as `reverb-snn train --seed N` does, folds them, and prints one
JSON object per run with, for each recipe:

* the sha256 of the trained and of the folded checkpoint;
* the epoch losses as float.hex();
* accuracy and EnergyReport.as_dict() of dense eval on the trained and the
  folded network, and of event eval on the folded network, with the event
  kernel's accumulation count.

Floats print with repr, which round-trips, so two commits whose runs are
byte-identical print byte-identical output. PYTHONPATH picks the engine under
test; the script calls only long-standing public API (train, fold_alpha,
save_checkpoint, evaluate_dense, evaluate_event_driven), so one copy serves
both sides. To compare a change with its parent, from the repository root:

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    PYTHONPATH=/tmp/parent/src python3 tools/fingerprint.py --seed 3 > parent.json
    PYTHONPATH=src python3 tools/fingerprint.py --seed 3 > change.json
    cmp parent.json change.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import reverb_snn as rs

RECIPES = ("configs/rings-tiny.cfg", "configs/convnet-bars.cfg")


def _digest(net, workdir: Path) -> str:
    path = workdir / "net.rvrb"
    rs.save_checkpoint(net, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _eval(result) -> dict:
    acc, report = result[:2]
    return {"accuracy": acc, "energy": report.as_dict()}


def fingerprint(recipe: Path, seed: int, workdir: Path) -> dict:
    cfg = rs.load_config(recipe)
    data = rs.load_dataset(cfg.dataset, seed=seed)
    net = rs.build_network(cfg.architecture, data.input_shape, data.num_classes,
                           cfg.mode, cfg.timesteps, cfg.tau, cfg.v_th,
                           seed=seed, affine=cfg.affine)
    tc = rs.TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch, lr0=cfg.lr0,
                        momentum=cfg.momentum, seed=seed)
    net, records = rs.train(net, (data.train_x, data.train_y), tc)
    folded = rs.fold_alpha(net)
    x, y = data.test_x, data.test_y
    event = rs.evaluate_event_driven(folded, x, y)
    return {
        "trained_sha256": _digest(net, workdir),
        "folded_sha256": _digest(folded, workdir),
        "epoch_losses": [float(r["loss"]).hex() for r in records],
        "dense_trained": _eval(rs.evaluate_dense(net, x, y)),
        "dense_folded": _eval(rs.evaluate_dense(folded, x, y)),
        "event_folded": dict(_eval(event), accumulations=event[2].accumulations),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=3)
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        out = {recipe: fingerprint(root / recipe, args.seed, Path(tmp)) for recipe in RECIPES}
    print(json.dumps({"seed": args.seed, "recipes": out}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
