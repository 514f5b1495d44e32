"""In-process A/B timing of the fixed-order kernels against another checkout.

Loads this tree's engine and the one under DIR/src side by side in one
process, under distinct package names, and times `matmul`, `conv2d`,
`addition_only_forward`, the two conv gradients and the LIF step (`fire`
with and without a firing scale, and `membrane_update`), public API on both
sides, at the shapes the shipped recipes run: a training batch of 64, an
eval batch of 256 and one sample (the event path). End to end, it also times
`evaluate_event_driven` and `evaluate_dense` of each recipe's folded network
on 64 test samples, which takes in the per-call costs (EventList checks,
layer checks) the kernel cases build outside their timing, and one epoch of
each recipe's training on 64 training samples (one batch of the recipe's
64, from the same initial network on every call). Every case is timed in
interleaved rounds, the side that runs first alternating from round to
round, so that a drift of the host's speed hits both sides alike. A round
lasts at least ROUND_S per side, and a training round at least
TRAIN_ROUND_S: an epoch's time swings with how the conv kernel-gradient
worker thread is scheduled, so a ratio over rounds of one epoch each cannot
settle a few percent.

From the repository root, with DIR a checkout of the parent commit (made with
`git archive` or `git clone`):

    python3 tools/kernel_ab.py --against DIR

Each shape's outputs must be byte-equal on both sides, and each event
shape's accumulation count equal (the event kernel runs with an OpCounter,
as eval runs it); each evaluation's accuracy, `EnergyReport.as_dict()` and,
on the event path, accumulations must be equal, and so must each training
epoch's loss and trained parameters, byte for byte. The script checks that
first and exits 1 naming the case on any difference. It then prints, per
case, the median time per call of each side over the rounds and the median
and quartiles of the per-round ratio (parent over change, the two timed back
to back: above 1 means this tree is faster). Its header names the numpy
version and numpy's ufunc buffer size (`np.getbufsize()`, in elements): the
speed of `numerics._accumulate`'s broadcast multiplies rests on numpy's
buffered iterator. It also names how many CPUs the process may run on
(`os.sched_getaffinity`): training runs the conv kernel gradient on a worker
thread, which gains only with a second CPU.
Running it with DIR a second copy of this tree shows how far the ratios stray
on that host with no change at all.

In-process timing cannot show what depends on the process's heap layout:
where glibc places each kernel's arrays, and whether freeing them returns
pages the next call must fault in again. With `--layouts N` the script
instead runs N rounds per recipe of fresh processes, one child per side, one
after the other (never two at once), the side that runs first alternating.
Each child allocates a random pad of 0-256 KiB before it imports its engine,
which shifts the heap, then times `evaluate_dense` of the recipe's folded
network on 256 test samples (the call shape of perfbench's dense eval) and
one training epoch of the recipe (as the in-process case runs it), and
counts the minor page faults of those calls. It also records how far the
process's peak RSS (`ru_maxrss`) grew over each call, from before its first
run, the one whose result is checked, to after its timed runs: the first run
sets the peak, and the timed runs alone grow it by 0-0.2 MiB. Dense eval
runs first, so its growth is the eval's transient memory, and training's is
what training needs beyond it. Training's worker thread gets a malloc arena
of its own, so its heap layout is a second one. The script prints per
recipe and call each side's median time, faults per call and peak-RSS
growth over the layouts, and the median and quartiles of the per-round
ratio (parent over change). The children's accuracies,
`EnergyReport.as_dict()`, epoch losses and trained parameters must be
equal, else it exits 1:

    python3 tools/kernel_ab.py --against DIR --layouts 20
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.util
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROUND_S = 0.02        # each side's timing of one shape in one round lasts at least this
TRAIN_ROUND_S = 0.5   # ... and of a training epoch, whose speed swings from epoch to epoch
ROOT = Path(__file__).resolve().parent.parent
RECIPES = ("rings-tiny", "convnet-bars")
EVAL_SAMPLES = 64
# Membrane shapes of the recipes' firing layers at batches 64 and 256, and of
# rings-tiny's hidden layers at 256 and one sample.
LIF_SHAPES = ((64, 8, 8, 8), (64, 16, 4, 4), (256, 8, 8, 8), (256, 16, 4, 4),
              (256, 16), (1, 16))
LAYOUT_SAMPLES = 256  # perfbench's dense-eval batch: the recipes' whole test split
LAYOUT_PAD = 256 * 1024  # largest heap shift a fresh-process child allocates
CHILD_S = 0.5         # each child times each call for at least this long


def load_engine(src: Path, name: str):
    """The reverb_snn package under `src`, imported as `name`."""
    pkg = src / "reverb_snn"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sign_layer(engine, w, **conv):
    """A folded binarized layer of `engine` with sign weights `w`."""
    kind = engine.layers.CONV if conv else engine.layers.DENSE
    return engine.BinaryLayer(w_latent=w, alpha=np.ones(w.shape[0]), binarize=True,
                              kind=kind, **conv)


def _spikes(rng, shape, density):
    return rng.uniform(0, 1, shape) * (rng.uniform(0, 1, shape) < density)


def _event(w, spikes, **conv):
    """Setup of one event-kernel call, counted into an OpCounter as
    `evaluate_event_driven` counts it: the layer, event list and counter are
    built once per engine, outside the timing, and the call carries its
    counter."""
    def make(e):
        layer = _sign_layer(e, w, **conv)
        events = e.events_from_spikes(spikes)
        counter = e.OpCounter()

        def call():
            return e.addition_only_forward(layer, events, spikes.shape, counter)
        call.counter = counter
        return call
    return make


def _lif(call, scale=None):
    """Setup of one LIF call, `call(e, params)`, under the real rule at the
    recipes' tau 0.25 and v_th 0, with an optional firing scale."""
    def make(e):
        params = e.NeuronParams(tau=0.25, v_th=0.0, mode=e.FireMode.REAL, scale=scale)
        return lambda: call(e, params)
    return make


def _recipe(e, recipe: str):
    """The recipe's config, dataset and initial network, built with the
    recipe's seed by `e`'s public API."""
    cfg = e.load_config(ROOT / "configs" / f"{recipe}.cfg")
    data = e.load_dataset(cfg.dataset, seed=cfg.seed)
    net = e.build_network(cfg.architecture, data.input_shape, data.num_classes, cfg.mode,
                          cfg.timesteps, cfg.tau, cfg.v_th, seed=cfg.seed, affine=cfg.affine)
    return cfg, data, net


def _evaluation(recipe: str, evaluate: str, samples: int = EVAL_SAMPLES):
    """Setup of one `evaluate` call (`evaluate_event_driven` or
    `evaluate_dense`) of the recipe's folded network (`_recipe`) on the
    first `samples` test samples of the recipe's dataset. The call returns
    the accuracy, the energy report as a dict and, on the event path, the
    accumulations."""
    def make(e):
        _, data, net = _recipe(e, recipe)
        net = e.fold_alpha(net)
        x, y = data.test_x[:samples], data.test_y[:samples]

        def call():
            acc, report, *counter = getattr(e, evaluate)(net, x, y)
            return acc, report.as_dict(), [c.accumulations for c in counter]
        return call
    return make


def _training(recipe: str, samples: int = EVAL_SAMPLES):
    """Setup of one epoch of the recipe's training on its first `samples`
    training samples, from a copy of the same initial network each call. The
    call returns the epoch's loss and the trained parameters' bytes."""
    def make(e):
        cfg, data, initial = _recipe(e, recipe)
        tc = e.TrainConfig(epochs=1, batch_size=cfg.batch, lr0=cfg.lr0,
                           momentum=cfg.momentum, seed=cfg.seed)
        xy = data.train_x[:samples], data.train_y[:samples]

        def call():
            net, records = e.train(copy.deepcopy(initial), xy, tc)
            params = b"".join(arr.tobytes() for layer in net.layers for arr in (
                layer.w_latent, layer.alpha, layer.affine_gamma, layer.affine_beta)
                if arr is not None)
            return float(records[0]["loss"]).hex(), params
        return call
    make.round_s = TRAIN_ROUND_S
    return make


def _differ(a, b) -> bool:
    if isinstance(a, tuple):  # fire's (spikes, reset)
        return len(a) != len(b) or any(map(_differ, a, b))
    if isinstance(a, np.ndarray):
        return a.shape != b.shape or a.tobytes() != b.tobytes()
    return a != b


def cases(rng):
    """(label, make) pairs; make(engine) returns a call of one kernel on fixed
    operands.

    convnet-bars: conv 1->8 (3x3, stride 1, pad 1) on 8x8, conv 8->16
    (stride 2, pad 1), head 256->4. rings-tiny: 8-16-16-16-2, hidden layers
    16->16 and head 16->2. infer-wide: a 128x128 binarized layer. Spiking
    inputs fire at about the trained recipes' rate. The conv gradients run at
    convnet-bars' training batch of 64: the kernel gradient of both convs,
    the input gradient of the second (the encoder's input needs none). The
    LIF step runs at `LIF_SHAPES`, on membranes that fire at about the
    trained recipes' rate (0.55-0.62 per layer, measured): normal around the
    gate, mean 0.25 and deviation 1, so 60% fire. Last come both
    evaluations (`_evaluation`) and one training epoch (`_training`) of
    each recipe.
    """
    out = []
    k1 = rng.uniform(-1, 1, (8, 1, 3, 3))
    k2 = rng.uniform(-1, 1, (16, 8, 3, 3))
    head = rng.uniform(-1, 1, (256, 4))
    hidden = rng.uniform(-1, 1, (16, 16))
    rings_head = rng.uniform(-1, 1, (16, 2))
    for b in (64, 256, 1):
        x1 = rng.uniform(0, 1, (b, 1, 8, 8))
        x2 = _spikes(rng, (b, 8, 8, 8), 0.6)
        xh = _spikes(rng, (b, 256), 0.6)
        xm = _spikes(rng, (b, 16), 0.6)
        out += [
            (f"conv2d 1->8 B={b}", lambda e, x=x1: lambda: e.conv2d(x, k1, 1, 1)),
            (f"conv2d 8->16 s2 B={b}", lambda e, x=x2: lambda: e.conv2d(x, k2, 2, 1)),
            (f"matmul {b}x256 @ 256x4", lambda e, x=xh: lambda: e.matmul(x, head)),
            (f"matmul {b}x16 @ 16x16", lambda e, x=xm: lambda: e.matmul(x, hidden)),
            (f"matmul {b}x16 @ 16x2", lambda e, x=xm: lambda: e.matmul(x, rings_head)),
        ]
    wide = rng.uniform(-1, 1, (128, 128))
    xw = _spikes(rng, (256, 128), 0.5)
    sign = np.where(rng.uniform(-1, 1, (128, 128)) >= 0, 1.0, -1.0)
    out += [
        ("matmul 256x128 @ 128x128", lambda e: lambda: e.matmul(xw, wide)),
        ("event conv 8->16 s2", _event(np.where(k2 >= 0, 1.0, -1.0),
                                       _spikes(rng, (8, 8, 8), 0.6), stride=2, padding=1)),
        ("event dense 16->16", _event(sign[:16, :16], _spikes(rng, 16, 0.6))),
        ("event dense 128->128", _event(sign, _spikes(rng, 128, 0.5))),
    ]
    x1, x2 = rng.uniform(0, 1, (64, 1, 8, 8)), _spikes(rng, (64, 8, 8, 8), 0.6)
    g1, g2 = rng.uniform(-1, 1, (64, 8, 8, 8)), rng.uniform(-1, 1, (64, 16, 4, 4))
    out += [
        ("kernel_grad 1->8 B=64",
         lambda e: lambda: e.numerics.conv2d_kernel_grad(x1, g1, 1, 1, 3)),
        ("kernel_grad 8->16 s2 B=64",
         lambda e: lambda: e.numerics.conv2d_kernel_grad(x2, g2, 2, 1, 3)),
        ("input_grad 8->16 s2 B=64",
         lambda e: lambda: e.numerics.conv2d_input_grad(g2, k2, 2, 1, (8, 8))),
    ]
    for shape in LIF_SHAPES:
        u, current = rng.normal(0.25, 1.0, shape), rng.normal(0.0, 1.0, shape)
        scale = rng.uniform(0.5, 2.0, shape[1])
        out += [
            (f"fire {shape}", _lif(lambda e, p, u=u: e.fire(u, p))),
            (f"fire scaled {shape}", _lif(lambda e, p, u=u: e.fire(u, p), scale)),
            (f"membrane_update {shape}",
             _lif(lambda e, p, u=u, c=current: e.membrane_update(u, c, p))),
        ]
    for recipe in RECIPES:
        out += [(f"{recipe} {evaluate} {EVAL_SAMPLES}", _evaluation(recipe, evaluate))
                for evaluate in ("evaluate_event_driven", "evaluate_dense")]
        out.append((f"{recipe} train 1 epoch of {EVAL_SAMPLES}", _training(recipe)))
    return out


def _per_call(fn, number: int) -> float:
    """Seconds per call, over `number` calls."""
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number


def _layout_calls(recipe: str) -> dict:
    """Label -> setup of each call a fresh-process child times."""
    return {f"evaluate_dense {LAYOUT_SAMPLES}":
            _evaluation(recipe, "evaluate_dense", LAYOUT_SAMPLES),
            f"train 1 epoch of {EVAL_SAMPLES}": _training(recipe)}


def _child(src: Path, recipe: str, pad: int) -> int:
    """One fresh-process layout: shift the heap by `pad` bytes, import the
    engine under `src`, then time each of the recipe's `_layout_calls` for
    at least CHILD_S seconds. Prints one JSON line: per call, the median ms
    per call, the minor faults per call, how far `ru_maxrss` grew from
    before the call's first (checked) run to after its timed runs, in MiB,
    and the sha256 of the call's result."""
    shift = bytes(pad)  # noqa: F841 -- held for the process's life
    engine = load_engine(src, "reverb_snn")
    runs = {}
    for label, make in _layout_calls(recipe).items():
        call = make(engine)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = call()
        times, faults, t_end = [], 0, time.perf_counter() + CHILD_S
        while len(times) < 5 or time.perf_counter() < t_end:
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss  # KiB on Linux
        runs[label] = {"ms": statistics.median(times) * 1e3, "faults": faults / len(times),
                       "rss_mib": rss / 1024,
                       "result": hashlib.sha256(repr(result).encode()).hexdigest()}
    print(json.dumps(runs))
    return 0


def _layouts(srcs: dict, n: int) -> int:
    """The fresh-process, layout-randomized mode (see the module docstring)."""
    rng = random.Random()
    for recipe in RECIPES:
        runs = {side: [] for side in srcs}
        for r in range(n):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                argv = [sys.executable, __file__, "--child", str(srcs[side]), "--recipe",
                        recipe, "--pad", str(rng.randrange(LAYOUT_PAD + 1))]
                done = subprocess.run(argv, capture_output=True, text=True, check=True)
                runs[side].append(json.loads(done.stdout.splitlines()[-1]))
            for label, run in runs["parent"][-1].items():
                if run["result"] != runs["change"][-1][label]["result"]:
                    print(f"outputs differ: {recipe} {label}")
                    return 1
        for label in _layout_calls(recipe):
            ms = {side: [run[label]["ms"] for run in runs[side]] for side in runs}
            q1, ratio, q3 = statistics.quantiles(
                [p / c for p, c in zip(ms["parent"], ms["change"])], n=4)
            line = "  ".join(
                f"{side} {statistics.median(ms[side]):7.3f} ms "
                f"{statistics.median(run[label]['faults'] for run in runs[side]):8.1f} faults "
                f"+{statistics.median(run[label]['rss_mib'] for run in runs[side]):5.2f} MiB"
                for side in runs)
            print(f"{recipe} {label}, {n} layouts: {line}  "
                  f"x{ratio:.3f} [{q1:.3f}, {q3:.3f}]", flush=True)
    print(f"all outputs equal over {n} layouts of {len(RECIPES)} recipes")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", type=Path, metavar="DIR",
                   help="checkout whose DIR/src engine is the parent side")
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--layouts", type=int, metavar="N",
                   help="time dense eval and a training epoch in N fresh-process "
                        "layouts per side and recipe")
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--recipe", choices=RECIPES, help=argparse.SUPPRESS)
    p.add_argument("--pad", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        return _child(args.child, args.recipe, args.pad)
    if args.against is None:
        p.error("--against is required")
    if args.rounds < 2:
        p.error("--rounds must be at least 2")
    print(f"numpy {np.__version__}, ufunc buffer {np.getbufsize()} elements, "
          f"python {sys.version.split()[0]}, {len(os.sched_getaffinity(0))} CPUs usable",
          flush=True)
    if args.layouts is not None:
        if args.layouts < 2:
            p.error("--layouts must be at least 2")
        return _layouts({"parent": args.against.resolve() / "src", "change": ROOT / "src"},
                        args.layouts)
    engines = {side: load_engine(src, f"reverb_snn_{side}")
               for side, src in (("parent", args.against.resolve() / "src"),
                                 ("change", ROOT / "src"))}
    shapes = cases(np.random.default_rng(0))
    for label, make in shapes:
        fns = {side: make(engine) for side, engine in engines.items()}
        outs = {side: fn() for side, fn in fns.items()}
        if _differ(outs["parent"], outs["change"]):
            print(f"outputs differ: {label}")
            return 1
        # One call each so far: equal counts if both sides count alike.
        counters = [getattr(fn, "counter", None) for fn in fns.values()]
        if counters[0] is not None and counters[0].accumulations != counters[1].accumulations:
            print(f"accumulations differ: {label}")
            return 1
        number, round_s = 1, getattr(make, "round_s", ROUND_S)
        while _per_call(fns["change"], number) * number < round_s:
            number *= 2
        times = {"parent": [], "change": []}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                times[side].append(_per_call(fns[side], number))
        pm, cm = (statistics.median(times[side]) for side in ("parent", "change"))
        q1, ratio, q3 = statistics.quantiles(
            [p / c for p, c in zip(times["parent"], times["change"])], n=4)
        print(f"{label:<40} parent {pm * 1e6:10.1f} us  change {cm * 1e6:10.1f} us  "
              f"x{ratio:.3f} [{q1:.3f}, {q3:.3f}]", flush=True)
    print(f"all outputs byte-equal over {len(shapes)} cases, event accumulations equal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
