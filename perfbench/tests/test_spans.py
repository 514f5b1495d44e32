"""Self-time arithmetic, wrapper installation and trace completeness.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import shutil
import subprocess
import sys

import pytest

import run
import spans


def test_self_time_of_nested_spans():
    # id: name, parent, start, end
    synthetic = [
        ["root", None, 0, 100],
        ["a", 0, 10, 40],
        ["b", 0, 30, 60],      # overlaps a: the union 10..60 is covered once
        ["leaf", 1, 15, 20],
        ["c", 0, 90, 120],     # sticks out of root: only 90..100 counts
        ["a", None, 200, 205],
    ]
    st = spans.self_times(synthetic)
    assert st["root"] == 100 - 50 - 10
    assert st["a"] == (30 - 5) + 5
    assert st["b"] == 30
    assert st["leaf"] == 5
    assert st["c"] == 30
    assert spans.call_counts(synthetic) == {"root": 1, "a": 2, "b": 1, "leaf": 1, "c": 1}


def test_wrappers_reach_every_alias_and_come_off():
    from reverb_snn import events, layers, neuron, numerics, training

    originals = (numerics.conv2d, numerics.matmul, neuron.fire_real)
    tracer = spans.Tracer()
    with tracer.patch():
        assert layers.conv2d is numerics.conv2d is not originals[0]
        assert events.matmul is layers.matmul is numerics.matmul is not originals[1]
        assert neuron._FIRE[neuron.FireMode.REAL] is neuron.fire_real is not originals[2]
        assert training.conv2d_kernel_grad is numerics.conv2d_kernel_grad
        assert training.SgdOptimizer.step.__wrapped__ is not None
    assert (numerics.conv2d, numerics.matmul, neuron.fire_real) == originals
    assert layers.conv2d is originals[0] and events.matmul is originals[1]
    assert not hasattr(training.SgdOptimizer.step, "__wrapped__")


def test_alias_inside_a_tuple_fails_loudly(tmp_path, monkeypatch):
    pkg = tmp_path / "tinypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "kern.py").write_text("def add(a, b):\n    return a + b\n")
    (pkg / "user.py").write_text("from .kern import add\nTABLE = (add,)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    patch = spans.Patch(spans.Tracer().wrap, package_name="tinypkg")
    with pytest.raises(spans.TraceError, match="tinypkg.user.TABLE"):
        patch.install()
    import tinypkg.user
    assert tinypkg.user.add.__module__ == "tinypkg.kern"
    assert not hasattr(tinypkg.user.add, "__wrapped__")


def test_traced_pass_matches_shape_counts(tmp_path):
    tracer = spans.Tracer()
    _, _, _, calls, checks = run.traced_pass("infer-wide", 0, tmp_path, tracer, tracer.patch())
    assert checks and all(checks.values()), checks
    assert calls["events.addition_only_forward"] == 256 * 2
    assert tracer.counts["numerics.matmul.macs"] > 0


class _MissedAlias(spans.Patch):
    """Leaves events.matmul unwrapped, as a scan that missed it would."""

    def install(self):
        super().install()
        from reverb_snn import events
        self._undo.append((setattr, events, "matmul", events.matmul))
        events.matmul = events.matmul.__wrapped__
        return self


def test_missed_alias_fails_the_call_count_check(tmp_path, capsys):
    tracer = spans.Tracer()
    _, _, _, _, checks = run.traced_pass("infer-wide", 0, tmp_path, tracer,
                                         _MissedAlias(tracer.wrap))
    assert checks["calls.numerics.matmul"] is False
    assert "numerics.matmul called" in capsys.readouterr().err


def test_tail_percentile_has_ten_samples_beyond_it():
    values = list(range(1, 101))                      # 100 timings in ms
    s = run.summarize(values, "lower")
    assert (s["n"], s["tail_pct"], s["value"]) == (100, 90, 50.5)
    assert sum(v > s["tail"] for v in values) == 10
    fast = run.summarize(values, "higher")           # throughputs: the slow tail
    assert sum(v < fast["tail"] for v in values) == 10
    assert run.summarize(values[:19], "lower")["tail_pct"] is None


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycle-mlp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no reverb_snn sources" in proc.stderr
