"""Benchmark of the reverb-snn train -> fold -> infer cycle.

Run from the repository root:

    python3 perfbench/run.py --workload cycle-mlp --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

A run sets up the workload (see workloads.py), repeats its cycle until the
next cycle would end past `--seconds`, checks the outputs and prints one
report line per metric, then, as its last line, a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones. Each timing covers one
whole operation in the call shape the CLI uses (see workloads.py): a training
run of the full recipe, an event eval or a dense eval of the whole test
split, a checkpoint save or load of the whole network. Each is scaled to the
nominal host speed by the reference computation timed around it (see
`REF_S` in workloads.py). A metric's value is the median of its scaled
timings in the run; the report line adds the highest percentile with at
least ten timings beyond it (from 20 timings on), the count, and the median
as measured, unscaled. `setup_s`, unscaled, is the median over fresh
processes, from process start until the workload is ready, started before
and after the cycles; `peak_rss_mb` is the run's `ru_maxrss`. `attempted`
and `failed` count correctness checks.

With `--trace 1` the run alternates an untraced and a traced pass (set-up
plus one cycle, same seed) and reports the per-layer metrics of the traced
passes: self time per span (median over passes), call counts and
shape-derived work counts, the event path's operation counts, and
`trace.overhead_frac`, the traced pass time over the untraced pass time. The
spans of the first traced pass are written to `perfbench/out/`. A function
the workload never calls reads 0 calls and 0 s. Metrics of one layer
(`layers.forward.l{i}.t{t}.s`, `events.sparsity.l{i}`) are reported only for
the layers the workload's network has; BENCHMARK.json lists those that every
listed workload has.

Every run appends its full record -- metrics, checks and the run record of
the machine -- to `perfbench/out/runs.jsonl`; compare.py reads those files.
`--workload all` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cycle-convnet", "cycle-mlp", "infer-wide")  # see workloads.py
SETUP_PROBES = 6      # set-up probes before the cycles, and as many after

# Names, units and directions come from BENCHMARK.json. A run also prints and
# records metrics that its result line leaves out, and so the benchmark does
# not bound: the checkpoint save and load times, 0.1-0.3 ms, whose run medians
# moved by up to 1.7x across ten runs on a shared 2-vCPU host; the event-path
# accuracy, which the seed fixes (1.0 on every convnet-bars seed tried); and
# the per-layer metrics of layers that not every listed workload's network has
# (times and fractions, better lower).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
RECORDED = {"ckpt_save_ms": ("ms", "lower"), "ckpt_load_ms": ("ms", "lower"),
            "eval_acc": ("frac", "higher")}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
for name, (unit, better) in RECORDED.items():
    UNITS[name], BETTER[name] = unit, better
# Self time of these spans; layers.forward is reported per layer and timestep.
SELF_TIMED = [n[:-2] for n in PER_LAYER
              if n.endswith(".s") and not n.startswith("layers.forward.")]


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "not a git checkout"


def run_record(workload: str, seed: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "loadavg_before": os.getloadavg(),
    }


def summarize(values, better: str) -> dict:
    """The median as the value, and the highest whole percentile on the worse
    side that has at least ten samples beyond it (None under 20 samples),
    with the count."""
    n = len(values)
    worst_last = sorted(values, reverse=(better == "higher"))
    pct = math.floor(100 * (1 - 10 / n)) if n >= 20 else None
    tail = worst_last[math.ceil(pct / 100 * n) - 1] if pct is not None else None
    return {"value": statistics.median(values), "tail_pct": pct, "tail": tail, "n": n}


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, from start until they report ready."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        times.append(elapsed)
    return times


def _cycles_until(seconds: float, one_cycle):
    """Call `one_cycle` until the next call would likely end after `seconds`;
    at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        one_cycle()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


# Cycle attribute that holds the timings of each timed end-to-end metric.
CYCLE_FIGURES = {
    "train_samples_per_s": "train_sps",
    "eval_dense_samples_per_s": "dense_sps",
    "eval_event_samples_per_s": "event_sps",
    "ckpt_save_ms": "save_ms",
    "ckpt_load_ms": "load_ms",
}


def cycle_metrics(s, seconds: float, workdir: Path):
    """Repeat the workload's cycle for about `seconds`, check every cycle,
    and value each timed metric by the median of its timings in the run,
    each scaled to the nominal host speed."""
    import workloads as W

    cycles, checks = [], {}

    def one_cycle():
        c = W.run_cycle(s)
        for name, ok in W.check_cycle(s, c, workdir).items():
            checks[f"{name}.{len(cycles)}"] = ok
        if cycles:
            checks[f"digest_repeats.{len(cycles)}"] = c.digest == cycles[0].digest
        c.loaded = None
        cycles.append(c)

    _cycles_until(seconds, one_cycle)
    metrics = {}
    slowdowns = []
    for name, attr in CYCLE_FIGURES.items():
        measured = [v for c in cycles for v in getattr(c, attr)]
        if not measured:
            continue
        slowdown = [f for c in cycles for f in c.slowdown[attr]]
        slowdowns += slowdown
        # At the nominal host speed a rate is higher, a time shorter, by the slowdown.
        scaled = [v * f if UNITS[name] == "1/s" else v / f for v, f in zip(measured, slowdown)]
        metrics[name] = {"unit": UNITS[name], **summarize(scaled, BETTER[name]),
                         "measured": statistics.median(measured)}
    if s.cfg is not None:
        metrics["eval_acc"] = {"unit": UNITS["eval_acc"], "n": 1,
                               "value": W.event_totals(s, cycles[-1])["accuracy"]}
    return metrics, checks, {"cycles": len(cycles), "digest": cycles[0].digest,
                             "host_slowdown": statistics.median(slowdowns)}


def measure(workload: str, seed: int, seconds: float, workdir: Path):
    import workloads as W

    setup_times = probe_setup(workload, seed)
    s = W.setup(workload, seed, ROOT, workdir)
    metrics, checks, info = cycle_metrics(s, seconds, workdir)
    setup_times += probe_setup(workload, seed)
    metrics["setup_s"] = {"unit": "s", **summarize(setup_times, "lower")}
    metrics["peak_rss_mb"] = {"unit": "MB", "n": 1, "value":
                              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return metrics, checks, info


def traced_pass(workload: str, seed: int, workdir: Path, tracer, patch):
    """Set-up plus one cycle with `patch` installed and `tracer` recording.

    Returns the set-up, the cycle, its wall time, the call count per span
    name (all `layers.forward.*` under `layers.forward`) and one check per
    kernel that its traced calls equal the count derived from shapes -- a
    call that reached an unwrapped alias fails here.
    """
    import spans as T
    import workloads as W

    tracer.reset()
    with patch:
        tracer.recording = True
        try:
            t0 = time.perf_counter()
            s = W.setup(workload, seed, ROOT, workdir)
            c = W.run_cycle(s)
            elapsed = time.perf_counter() - t0
        finally:
            tracer.recording = False
    calls = T.call_counts(tracer.spans)
    for name in [n for n in calls if n.startswith("layers.forward.")]:
        calls["layers.forward"] = calls.get("layers.forward", 0) + calls.pop(name)
    checks = {}
    for name, n in W.expected_calls(s, c).items():
        checks[f"calls.{name}"] = calls.get(name, 0) == n
        if calls.get(name, 0) != n:
            print(f"trace: {name} called {calls.get(name, 0)} times, expected {n}",
                  file=sys.stderr)
    return s, c, elapsed, calls, checks


def trace_passes(workload: str, seed: int, seconds: float, workdir: Path):
    import spans as T
    import workloads as W

    tracer = T.Tracer()
    untraced_s, traced_s, per_pass, checks = [], [], [], {}
    first_counts = None

    def one_pair():
        nonlocal first_counts
        k = len(per_pass)
        t0 = time.perf_counter()
        c = W.run_cycle(W.setup(workload, seed, ROOT, workdir))
        untraced_s.append(time.perf_counter() - t0)
        s, ct, elapsed, calls, call_checks = traced_pass(workload, seed, workdir,
                                                         tracer, tracer.patch())
        traced_s.append(elapsed)
        checks.update({f"{name}.{k}": ok for name, ok in call_checks.items()})
        checks[f"traced_digest_equals_untraced.{k}"] = ct.digest == c.digest
        for name, ok in W.check_cycle(s, ct, workdir).items():
            checks[f"{name}.{k}"] = ok
        counts = _pass_counts(tracer, calls, s, ct)
        if first_counts is None:
            first_counts = counts
            tracer.write_spans(OUT / f"spans-{workload}-{seed}.jsonl.gz")
        checks[f"trace_counts_repeat.{k}"] = counts == first_counts
        net = ct.loaded
        forward = [f"layers.forward.l{l}.t{t}"
                   for l in range(len(net.layers)) for t in range(net.timesteps)]
        times = {n: v / 1e9 for n, v in T.self_times(tracer.spans).items()}
        per_pass.append({n: times.get(n, 0.0) for n in SELF_TIMED + forward})

    _cycles_until(seconds, one_pair)
    out = {name: {"unit": unit, "value": value, "n": 1}
           for name, (value, unit) in first_counts.items()}
    for name in per_pass[0]:
        out[f"{name}.s"] = {"unit": "s", "n": len(per_pass),
                            "value": statistics.median(p[name] for p in per_pass)}
    out["trace.overhead_frac"] = {
        "unit": UNITS["trace.overhead_frac"], "n": len(per_pass),
        "value": statistics.median(traced_s) / statistics.median(untraced_s)}
    top = sorted(per_pass[0].items(), key=lambda kv: -kv[1])[:12]
    return out, checks, {"passes": len(per_pass), "top_self_s": top}


def _pass_counts(tracer, calls, s, c) -> dict:
    """Counts of one traced pass that must repeat exactly: {name: (value, unit)}.
    A function the workload never calls counts 0; sparsity is given for each
    event layer the network has."""
    import workloads as W

    ev = W.event_totals(s, c)
    counts = {}
    for n in ("numerics.conv2d", "numerics.matmul", "events.addition_only_forward"):
        counts[f"{n}.calls"] = calls.get(n, 0)
    for k in ("conv2d", "matmul"):
        for unit in ("macs", "bytes"):
            counts[f"numerics.{k}.{unit}"] = tracer.counts.get(f"numerics.{k}.{unit}", 0)
    for key in ("accumulations", "sops_per_sample", "flops_per_sample", "energy_j_per_sample"):
        counts[f"events.{key}"] = ev[key]
    for l, v in sorted(ev["sparsity"].items()):
        counts[f"events.sparsity.l{l}"] = v
    counts["checkpoint.bytes"] = s.ckpt.stat().st_size
    return {n: (v, UNITS.get(n, "frac")) for n, v in counts.items()}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(args, nproc: int) -> int:
    record = run_record(args.workload, args.seed, nproc)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            metrics, checks, info = trace_passes(args.workload, args.seed, args.seconds, workdir)
        else:
            metrics, checks, info = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    failed = [name for name, ok in checks.items() if not ok]
    print("run-record: " + json.dumps(record))
    print("run-info: " + json.dumps(info))
    for name in failed:
        print(f"check FAILED: {name}")
    for name, m in metrics.items():
        tail = (f"  p{m['tail_pct']} {_fmt(m['tail'])}" if m.get("tail_pct") is not None
                else "")
        measured = f"  measured {_fmt(m['measured'])}" if "measured" in m else ""
        print(f"metric {name} = {_fmt(m['value'])} {m['unit']}{tail}  (n={m['n']}){measured}")
    print(f"metric failed_frac = {len(failed) / len(checks):.6g} frac  "
          f"({len(failed)} of {len(checks)} checks)")
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"record": record, "trace": args.trace, "seconds": args.seconds,
                             "metrics": metrics, "checks": checks, "info": info}) + "\n")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in (PER_LAYER if args.trace else END_TO_END) if n in metrics},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of their metrics at the end."""
    rows, status = [], 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            rows.append((workload, json.loads(lines[-1])))
    print()
    for workload, res in rows:
        print(f"{workload}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
        for name, m in res["metrics"].items():
            print(f"  {name:32s} {_fmt(m['value']):>14s} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "reverb_snn").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: no reverb_snn sources under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc = cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.probe_setup:
        import workloads as W

        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"probe-{os.getpid()}"
        workdir.mkdir()
        try:
            W.setup(args.workload, args.seed, ROOT, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
