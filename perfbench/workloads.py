"""The benchmark's workloads: set-up and one measured cycle each, driven
through the engine's public API (`reverb_snn.*`, looked up at call time so
that a traced run sees every call).

Every workload is a closed loop in one process: each operation starts when
the previous one has finished. The workload seed sets dataset generation and
the training shuffle. Weight initialisation keeps the recipe's own seed
(`INIT_SEED` for infer-wide): on these small networks the initial weights
set the firing sparsity, and with it the event path's work per sample. Over
ten initialisation seeds, trained convnet-bars sparsity ranged 0.37-0.72 and
event-eval throughput nearly 2x; with the recipe's initialisation and eight
data seeds, sparsity stayed within 0.613-0.626.

* cycle-convnet -- the convnet-bars recipe: train, fold, save and load the
  checkpoint, dense and event eval of the test split. Conv kernels, their
  gradients, `alpha_grad` and the conv branch of the event kernel do most of
  the work.
* cycle-mlp -- the same cycle on the rings-tiny recipe (8-16-16-16-2). No
  conv runs; tiny contractions leave per-call overhead dominant, so a
  conv-kernel change is predicted to move nothing here.
* infer-wide -- inference only, served from a checkpoint of an untrained,
  folded mlp-small (8-128-128-2) built at set-up. The dense branch of the
  event kernel does almost all the work; no training code runs.
"""

from __future__ import annotations

import copy
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reverb_snn as rs

RECIPES = {
    "cycle-convnet": "configs/convnet-bars.cfg",
    "cycle-mlp": "configs/rings-tiny.cfg",
}

# infer-wide network: one 128x128 binarized layer.
WIDE = dict(dataset="rings", arch="mlp-small", mode="reverb-learnable", timesteps=2)
INIT_SEED = 0

# Each timing covers one whole operation, in the call shape the CLI uses: a
# training run of the full recipe, an event eval of the whole test split, a
# dense eval of the whole test split, a checkpoint save or load of the whole
# network. A cycle runs the first two once and repeats the short ones.
DENSE_REPEATS = 4     # dense evals per round, two rounds per cycle
CKPT_PAIRS = 40       # timed save/load pairs per round, after one untimed pair
LOGIT_PROBES = 8      # test samples whose event and dense logits are compared
EVAL_BATCH = 256      # evaluate_dense's default batch size

# The speed of a shared host drifts by up to 1.7x from minute to minute, and
# that moved every timing of a run alike. So the cycle also times a fixed
# reference computation before and after each block of timed operations, and
# each timing is scaled to a host on which the reference takes REF_S. The
# reference does the engine's kind of work, broadcast multiply-adds on small
# arrays in Python loops, in code of its own that no change to the engine
# alters.
REF_S = 0.04
REF_LOOPS = 40        # about 35 ms on the 2-vCPU Xeon host the bounds were set on
_REF_RNG = np.random.default_rng(0)
_REF_A, _REF_B = _REF_RNG.standard_normal((64, 16)), _REF_RNG.standard_normal((16, 16))
_REF_X = _REF_RNG.standard_normal((64, 4, 10, 10))
_REF_K = _REF_RNG.standard_normal((8, 4, 3, 3))
TIMED = ("train_sps", "dense_sps", "event_sps", "save_ms", "load_ms")


def reference_s() -> float:
    """Wall time of the fixed reference computation."""
    t0 = time.perf_counter()
    for _ in range(REF_LOOPS):
        out = np.zeros((64, 16))
        for k in range(16):
            out += _REF_A[:, k : k + 1] * _REF_B[k, :]
    for _ in range(REF_LOOPS // 8):
        out = np.zeros((64, 8, 8, 8))
        for c in range(4):
            for ky in range(3):
                for kx in range(3):
                    out += (_REF_X[:, c, ky : ky + 8, kx : kx + 8][:, None]
                            * _REF_K[None, :, c, ky, kx, None, None])
    return time.perf_counter() - t0


@dataclass
class Setup:
    """What a workload has ready before its first measured cycle."""

    name: str
    seed: int
    data: object
    ckpt: Path
    cfg: object = None          # recipe RunConfig, its own seed kept (cycle-* only)
    initial: object = None      # untrained network (cycle-* only)
    served: object = None       # folded network served from ckpt (infer-wide)


def setup(name: str, seed: int, root: Path, workdir: Path) -> Setup:
    """Dataset generation and network build; on infer-wide also the fold
    and the first checkpoint save."""
    ckpt = workdir / "net.rvrb"
    if name in RECIPES:
        cfg = rs.load_config(root / RECIPES[name])
        data = rs.load_dataset(cfg.dataset, seed=seed)
        net = rs.build_network(cfg.architecture, data.input_shape, data.num_classes,
                               cfg.mode, cfg.timesteps, cfg.tau, cfg.v_th,
                               seed=cfg.seed, affine=cfg.affine)
        return Setup(name, seed, data, ckpt, cfg=cfg, initial=net)
    if name != "infer-wide":
        raise ValueError(f"unknown workload {name!r}")
    data = rs.load_dataset(WIDE["dataset"], seed=seed)
    net = rs.build_network(WIDE["arch"], data.input_shape, data.num_classes,
                           WIDE["mode"], WIDE["timesteps"], seed=INIT_SEED)
    served = rs.fold_alpha(net)
    rs.save_checkpoint(served, ckpt)
    return Setup(name, seed, data, ckpt, served=served)


@dataclass
class Cycle:
    """Timings and outputs of one cycle, one entry per whole operation:
    throughputs in samples/s, times in ms, as measured."""

    train_sps: list = field(default_factory=list)   # cycle-* only
    dense_sps: list = field(default_factory=list)
    event_sps: list = field(default_factory=list)
    save_ms: list = field(default_factory=list)
    load_ms: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    digest: str = ""
    loaded: object = None
    event: tuple = None         # (accuracy, EnergyReport, OpCounter) of the event eval
    train_batches: int = 0
    # For each timing in TIMED, in step with it: the mean reference time
    # around its block over REF_S. Above 1 the host ran slower than nominal.
    slowdown: dict = field(default_factory=lambda: {k: [] for k in TIMED})

    def close_block(self, refs: list) -> None:
        """Time the reference again and give each timing taken since the
        previous reference the mean of the two."""
        refs.append(reference_s())
        factor = (refs[-2] + refs[-1]) / 2 / REF_S
        for attr in TIMED:
            pending = len(getattr(self, attr)) - len(self.slowdown[attr])
            self.slowdown[attr] += [factor] * pending


def digest(net) -> str:
    """Digest of every parameter of a network, bit for bit."""
    h = hashlib.sha256()
    for layer in net.layers:
        for arr in (layer.w_latent, layer.alpha, layer.affine_gamma, layer.affine_beta):
            if arr is not None:
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def run_cycle(s: Setup) -> Cycle:
    """Train the recipe (cycle-*) and fold, then serve the checkpoint: one
    event eval of the test split between two rounds of short operations."""
    c = Cycle()
    now = time.perf_counter
    x, y = s.data.test_x, s.data.test_y
    refs = [reference_s()]
    if s.cfg is not None:
        cfg = s.cfg
        net = copy.deepcopy(s.initial)
        tc = rs.TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch, lr0=cfg.lr0,
                            momentum=cfg.momentum, seed=s.seed)
        n = len(s.data.train_x)
        t0 = now()
        net, records = rs.train(net, (s.data.train_x, s.data.train_y), tc)
        c.train_sps.append(n * cfg.epochs / (now() - t0))
        c.close_block(refs)
        c.losses = [r["loss"] for r in records]
        c.train_batches = math.ceil(n / cfg.batch) * cfg.epochs
        c.digest = digest(net)
        served = rs.fold_alpha(net)
    else:
        served = s.served

    rs.save_checkpoint(served, s.ckpt)
    c.loaded = rs.load_checkpoint(s.ckpt)
    if s.cfg is None:
        c.digest = digest(c.loaded)
    _short_ops(s, c, served)
    c.close_block(refs)
    t0 = now()
    c.event = rs.evaluate_event_driven(c.loaded, x, y)
    c.event_sps.append(len(x) / (now() - t0))
    c.close_block(refs)
    _short_ops(s, c, served)
    c.close_block(refs)
    return c


def _short_ops(s: Setup, c: Cycle, served) -> None:
    """One round of the short timed operations: CKPT_PAIRS save/load pairs,
    then DENSE_REPEATS dense evals. A cycle has a round on each side of its
    event eval, so that they are timed at two moments of the cycle."""
    now = time.perf_counter
    for _ in range(CKPT_PAIRS):
        # Each save makes a new file. Rewriting a file in place makes ext4
        # write its data out on close (auto_da_alloc), which put disk latency
        # into the timing.
        s.ckpt.unlink()
        t0 = now()
        rs.save_checkpoint(served, s.ckpt)
        t1 = now()
        c.loaded = rs.load_checkpoint(s.ckpt)
        c.save_ms.append(1e3 * (t1 - t0))
        c.load_ms.append(1e3 * (now() - t1))
    x, y = s.data.test_x, s.data.test_y
    for _ in range(DENSE_REPEATS):
        t0 = now()
        rs.evaluate_dense(c.loaded, x, y)
        c.dense_sps.append(len(x) / (now() - t0))


def event_totals(s: Setup, c: Cycle) -> dict:
    """Accuracy and operation counts of the cycle's event eval."""
    accuracy, report, counter = c.event
    return {
        "accuracy": accuracy,
        "accumulations": counter.accumulations,
        "sops_per_sample": counter.accumulations / len(s.data.test_x),
        "flops_per_sample": report.flops,
        "sparsity": dict(report.sparsity_per_layer),
        "energy_j_per_sample": report.energy_joules,
    }


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def check_cycle(s: Setup, c: Cycle, workdir: Path) -> dict[str, bool]:
    """Correctness checks of one cycle, run outside the timed region."""
    checks = {}
    if s.cfg is not None:
        checks["epoch_losses_finite"] = bool(c.losses) and all(
            math.isfinite(v) for v in c.losses)
    again = workdir / "resaved.rvrb"
    rs.save_checkpoint(c.loaded, again)
    checks["resave_bytes_identical"] = again.read_bytes() == s.ckpt.read_bytes()
    probes = s.data.test_x[:LOGIT_PROBES]
    dense_out, _ = rs.forward_pass(c.loaded, probes)
    same = True
    for i, sample in enumerate(probes):
        event_out = rs.event_forward(c.loaded, sample)
        same &= len(event_out) == len(dense_out) and all(
            _bits(e) == _bits(d[i]) for e, d in zip(event_out, dense_out))
    checks["event_logits_bitwise_dense"] = bool(same)
    acc_d, rep_d = rs.evaluate_dense(c.loaded, s.data.test_x, s.data.test_y)
    acc_e, rep_e, _ = c.event
    checks["event_accuracy_equals_dense"] = acc_e == acc_d
    checks["event_sparsity_equals_dense"] = rep_e.sparsity_per_layer == rep_d.sparsity_per_layer
    return checks


def expected_calls(s: Setup, c: Cycle) -> dict[str, int]:
    """Calls of each kernel that one set-up plus one cycle must make, derived
    from the architectures, the dataset sizes and the cycle's repeat counts."""
    calls: dict[str, int] = {}

    def add(name, n):
        calls[name] = calls.get(name, 0) + n

    def layer_sets(net):
        last = len(net.layers) - 1
        conv = [l for l, L in enumerate(net.layers) if L.kind == "conv"]
        event = [l for l, L in enumerate(net.layers) if 0 < l < last and L.binarize]
        return conv, event

    def dense_passes(net, passes):
        nl, T = len(net.layers), net.timesteps
        conv, _ = layer_sets(net)
        add("training.forward_pass", passes)
        add("layers.forward", passes * T * nl)
        add("numerics.conv2d", passes * T * len(conv))
        add("numerics.matmul", passes * T * (nl - len(conv)))
        add("neuron.membrane_update", passes * T * nl)
        add("neuron.fire", passes * T * (nl - 1))

    add("datasets.load_dataset", 1)
    add("network.build_network", 1)
    add("reparam.fold_alpha", 1)
    n = len(s.data.test_x)
    pairs = 1 + 2 * CKPT_PAIRS
    add("checkpoint.save_checkpoint", pairs + (s.cfg is None))
    add("checkpoint.load_checkpoint", pairs)
    if s.cfg is not None:
        net, b = s.initial, c.train_batches
        nl, T = len(net.layers), net.timesteps
        conv, _ = layer_sets(net)
        learn = [l for l, L in enumerate(net.layers) if L.binarize and L.learn_alpha]
        dense_passes(net, b)
        add("training.backward_stbp", b)
        add("training.SgdOptimizer.step", b)
        add("numerics.conv2d", b * T * len(set(conv) & set(learn)))
        add("numerics.matmul", b * T * len(set(learn) - set(conv)))
        add("numerics.conv2d_kernel_grad", b * T * len(conv))
        add("numerics.conv2d_input_grad", b * T * len([l for l in conv if l > 0]))
        add("neuron.fire_backward", b * T * (nl - 1))
        add("layers.alpha_grad", b * T * len(learn))
        add("layers.ste_weight_grad", b * T * sum(L.binarize for L in net.layers))
    net = c.loaded
    dense_passes(net, 2 * DENSE_REPEATS * math.ceil(n / EVAL_BATCH))
    nl, T = len(net.layers), net.timesteps
    conv, event = layer_sets(net)
    add("events.event_forward", n)
    add("events.addition_only_forward", n * T * len(event))
    add("events.events_from_spikes", n * T * len(event))
    add("numerics.conv2d", n * T * len(set(conv) - set(event)))
    add("numerics.matmul", n * T * (nl - len(set(conv) | set(event))))
    add("neuron.membrane_update", n * T * nl)
    add("neuron.fire", n * T * (nl - 1))
    return calls
