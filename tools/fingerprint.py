"""Same-seed fingerprint of the train -> fold -> infer cycle.

Trains both shipped recipes (configs/rings-tiny.cfg, configs/convnet-bars.cfg)
under each of the three modes at one seed, as `reverb-snn train --seed N
--mode M` does, folds them, and prints one JSON object per run with, for each
recipe and mode:

* the sha256 of the trained and of the folded checkpoint;
* the sha256 of the trained and of the folded parameters: each layer's
  w_latent, alpha, affine_gamma and affine_beta and each neuron's scale, so
  that a change of checkpoint format, which moves the file digests, still
  shows whether the trained bits moved;
* the epoch losses as float.hex();
* accuracy and EnergyReport.as_dict() of dense eval on the trained and the
  folded network, and of event eval on the folded network, with the event
  kernel's accumulation count.

Floats print with repr, which round-trips, so two commits whose runs are
byte-identical print byte-identical output. PYTHONPATH picks the engine under
test; the script calls only long-standing public API (train, fold_alpha,
save_checkpoint, evaluate_dense, evaluate_event_driven) and reads only
long-standing layer and neuron attributes, so one copy serves both sides.

To compare the working tree with another checkout DIR (say, the parent
commit, exported with `git archive` or cloned), from the repository root:

    python3 tools/fingerprint.py --seed 3 --against DIR

This runs the fingerprint once with PYTHONPATH=DIR/src and once with this
tree's src/, each in its own process, and exits 0 when the two outputs are
byte-identical. Otherwise it prints every differing key with DIR's value
and this tree's, and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RECIPES = ("configs/rings-tiny.cfg", "configs/convnet-bars.cfg")
# Every mode, so that binary firing, the surrogate window and unit-amplitude
# binarized layers are covered too: both recipes are reverb-learnable.
MODES = ("vanilla", "reverb", "reverb-learnable")


def _digest(net, workdir: Path) -> str:
    import reverb_snn as rs
    path = workdir / "net.rvrb"
    rs.save_checkpoint(net, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _params_digest(net) -> str:
    h = hashlib.sha256()
    for layer, nrn in zip(net.layers, net.neurons):
        for arr in (layer.w_latent, layer.alpha, layer.affine_gamma, layer.affine_beta,
                    nrn.scale):
            h.update(b"none" if arr is None else repr(arr.shape).encode() + arr.tobytes())
    return h.hexdigest()


def _eval(result) -> dict:
    acc, report = result[:2]
    return {"accuracy": acc, "energy": report.as_dict()}


def fingerprint(recipe: Path, mode: str, seed: int, workdir: Path) -> dict:
    # Imported here, so that --against needs no engine on the path itself.
    import reverb_snn as rs

    cfg = rs.load_config(recipe)
    cfg.mode = mode
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
        "trained_params_sha256": _params_digest(net),
        "folded_params_sha256": _params_digest(folded),
        "epoch_losses": [float(r["loss"]).hex() for r in records],
        "dense_trained": _eval(rs.evaluate_dense(net, x, y)),
        "dense_folded": _eval(rs.evaluate_dense(folded, x, y)),
        "event_folded": dict(_eval(event), accumulations=event[2].accumulations),
    }


def _run(src: Path, seed: int) -> str:
    """This script's output with the engine under `src`, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, __file__, "--seed", str(seed)], env=env,
                          check=True, stdout=subprocess.PIPE, text=True).stdout


def _leaves(obj, path=""):
    """(dotted key, value) of every leaf of a parsed fingerprint, in order."""
    if isinstance(obj, list):
        obj = dict(enumerate(obj))
    if not isinstance(obj, dict):
        yield path, obj
        return
    for key, value in obj.items():
        yield from _leaves(value, f"{path}.{key}" if path else str(key))


def _against(other: Path, root: Path, seed: int) -> int:
    theirs, ours = _run(other / "src", seed), _run(root / "src", seed)
    if theirs == ours:
        print(f"fingerprints equal at seed {seed}")
        return 0
    theirs, ours = dict(_leaves(json.loads(theirs))), dict(_leaves(json.loads(ours)))

    def show(leaves, key):
        return repr(leaves[key]) if key in leaves else "<missing>"

    keys = [k for k in {**theirs, **ours} if show(theirs, k) != show(ours, k)]
    print(f"fingerprints differ at seed {seed}: {len(keys) or 'no'} differing keys"
          + ("" if keys else " (formatting only)"))
    for key in keys:
        print(f"  {key}: {show(theirs, key)} -> {show(ours, key)}")
    return 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--against", type=Path, metavar="DIR",
                   help="compare with the engine under DIR/src; exit 1 on any difference")
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if args.against is not None:
        return _against(args.against.resolve(), root, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = {recipe: {mode: fingerprint(root / recipe, mode, args.seed, Path(tmp))
                        for mode in MODES}
               for recipe in RECIPES}
    print(json.dumps({"seed": args.seed, "recipes": out}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
