"""Tests of the benchmark's own arithmetic, oracle and input generation.

    python3 -m pytest perfbench/tests
"""

import json
import os
import pathlib

import numpy as np
import pytest

import qdiv
import run
import stats
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ tail percentile

@pytest.mark.parametrize("n", [20, 21, 39, 40, 99, 100, 101, 250, 999, 1000, 5000])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    values = [float(v) for v in range(n)]
    pct, value, beyond = stats.tail_percentile(values)
    assert beyond >= stats.TAIL_MIN_BEYOND
    assert value == values[n - beyond - 1]
    higher = [p for p in stats.TAIL_LADDER if p > pct]
    for p in higher:
        assert n - stats.nearest_rank(values, p) < stats.TAIL_MIN_BEYOND


def test_tail_percentile_exact_cases():
    assert stats.tail_percentile(range(20))[::2] == (50.0, 10)
    assert stats.tail_percentile(range(100))[::2] == (90.0, 10)
    assert stats.tail_percentile(range(1000))[::2] == (99.0, 10)


def test_tail_percentile_falls_back_to_median_below_twenty():
    pct, _value, beyond = stats.tail_percentile(range(15))
    assert pct == 50.0 and beyond < stats.TAIL_MIN_BEYOND


# ------------------------------------------------------------------ self time

def test_self_time_subtracts_child_spans():
    spans = [
        (0, 0, -1, "outer", 0.0, 10.0),
        (0, 1, 0, "child", 1.0, 4.0),
        (0, 2, 1, "leaf", 2.0, 3.0),
        (0, 3, 0, "child", 5.0, 7.0),
        (1, 4, -1, "outer", 20.0, 21.0),
    ]
    calls, own = tracing.self_times(spans)
    assert calls == {"outer": 2, "child": 2, "leaf": 1}
    assert own["outer"] == pytest.approx(5.0 + 1.0)
    assert own["child"] == pytest.approx(2.0 + 2.0)
    assert own["leaf"] == pytest.approx(1.0)


def test_tracer_links_nested_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    tracer.exit(inner)
    tracer.exit(outer)
    spans = tracer.finished_spans()
    assert [s[2] for s in spans] == [-1, outer]
    calls, own = tracing.self_times(spans)
    assert own["outer"] == pytest.approx(2.0) and own["inner"] == pytest.approx(1.0)


def test_shims_see_calls_and_restore_originals():
    original = qdiv.divergence.umegaki
    tracer = tracing.Tracer()
    tracer.install()
    try:
        value = qdiv.umegaki(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]))
    finally:
        tracer.uninstall()
    assert qdiv.divergence.umegaki is original and qdiv.umegaki is original
    assert value.is_finite
    metrics = tracer.layer_metrics()
    assert metrics["divergence.umegaki.calls"] == 1
    assert metrics["operators.construct.calls"] == 2
    assert metrics["matrixcore.eig_hermitian.calls"] >= 2
    assert metrics["matrixcore.eig_hermitian.dim_mean"] == 2.0
    assert metrics["divergence.umegaki.inf_share"] == 0.0


# ------------------------------------------------------------------- oracle

def test_injected_wrong_value_counts_as_failed():
    runner = run.Runner(workloads.Kernels(seed=3, workdir=None, in_process=False))
    umegaki_ops = [i for i in range(16) if runner.template(i) == "umegaki"]
    good, bad = umegaki_ops
    records = []
    for i in (good, bad):
        out = runner.wl.run(runner.op(i))
        if i == bad:
            out = qdiv.ExtendedReal(out.value + 1e-4) if out.is_finite \
                else qdiv.ExtendedReal(0.0)
        records.append(runner.graded(i, 0.1, out))
    failures, inf_share = runner.tally(records)
    assert [f["op"] for f in failures] == [bad]
    assert set(inf_share) == {"divergence.umegaki.inf_share"}


def test_unexpected_exception_counts_as_failed():
    wl = workloads.Wigner(seed=1, workdir=None, in_process=False)
    accepted, rejected = wl.make_op(0), wl.make_op(3)
    assert wl.check(accepted, ValueError("boom")) is not None
    assert wl.check(rejected, qdiv.preserver.WignerError("swapped")) is None
    assert wl.check(rejected, ValueError("boom")) is not None


# ------------------------------------------------------------ seeds and mix

MIX_KEYS = ("template", "cls", "tag", "kind")


def _mix(op):
    """The parts of an operation the template fixes, whatever the seed."""
    if isinstance(op, dict):
        return tuple(op.get(k) for k in MIX_KEYS)
    return tuple(x for x in op if isinstance(x, str))


def _inputs(op, workdir):
    """The generated inputs, with the run's own directory left out."""
    out = []
    for x in (op.values() if isinstance(op, dict) else op):
        if isinstance(x, np.ndarray):
            out.append(x.tobytes())
        elif isinstance(x, qdiv.StateMap):
            out.append(b"" if x.unitary is None else x.unitary.tobytes())
        elif isinstance(x, list):
            out.append(" ".join(x).replace(workdir, ""))
        elif isinstance(x, str) and os.path.isdir(x):
            out.extend(pathlib.Path(x, f).read_text() for f in sorted(os.listdir(x)))
        else:
            out.append(str(x).replace(workdir, ""))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_every_input(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    ops = {}
    for seed in (1, 2, 1):
        workdir = tmp_path / str(seed)
        workdir.mkdir(exist_ok=True)
        wl = cls(seed, str(workdir), in_process=True)
        ops.setdefault(seed, []).append(
            [_inputs(wl.make_op(i), str(workdir)) for i in range(len(cls.templates))])
    first, repeat = ops[1]
    assert first == repeat
    for a, b in zip(first, ops[2][0]):
        assert a != b


def test_op_mix_is_the_same_for_every_seed(tmp_path):
    for cls in workloads.WORKLOADS.values():
        mixes = []
        for seed in (1, 2):
            workdir = tmp_path / f"{cls.name}{seed}"
            workdir.mkdir()
            wl = cls(seed, str(workdir), in_process=True)
            mixes.append([_mix(wl.make_op(i)) for i in range(2 * len(cls.templates))])
        assert mixes[0] == mixes[1]


# --------------------------------------------------------------- contract

def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
