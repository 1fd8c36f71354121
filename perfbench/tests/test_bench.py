"""Tests of the benchmark itself: inputs, span arithmetic, failure accounting.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import importlib
import json
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import filiform_ce as fc
from filiform_ce.errors import DomainError

import calib
import gen
import measure
import run
import tracer as tr
import workloads

ROOT = Path(__file__).resolve().parents[2]
NOMINAL = {kind: k["nominal_s"] for kind, k in calib.KINDS.items()}
# the package re-exports functions named like its modules (classify)
classify_mod = importlib.import_module("filiform_ce.classify")
verify_mod = importlib.import_module("filiform_ce.verify")


def _tuples(batch):
    return [(x.p.as_tuple(), x.cell, x.q.as_tuple(), x.q_isomorphic) for x in batch]


# ---------------------------------------------------------------------------
# inputs


def test_same_seed_same_inputs():
    assert _tuples(gen.pairs(5, 3, 40)) == _tuples(gen.pairs(5, 3, 40))
    assert _tuples(gen.pairs(5, 3, 40, scaled=True)) == _tuples(gen.pairs(5, 3, 40, scaled=True))
    assert _tuples(gen.pairs(5, 3, 40)) != _tuples(gen.pairs(6, 3, 40))
    assert _tuples(gen.pairs(5, 3, 40)) != _tuples(gen.pairs(5, 4, 40))
    cli = workloads.Cli(5, Path("."))
    assert cli.batch(0) == workloads.Cli(5, Path(".")).batch(0)


def test_seed_enters_only_as_an_argument():
    np.random.seed(1)
    first = _tuples(gen.pairs(9, 0, 30))
    np.random.seed(2)
    np.random.random(100)
    assert _tuples(gen.pairs(9, 0, 30)) == first


def test_stream_covers_every_cell_without_repeats():
    batch = gen.pairs(3, 0, 2 * len(gen.CELLS))
    assert len(gen.CELLS) == 69
    assert {(x.p.n, x.cell) for x in batch} == set(gen.CELLS)
    # only the single-point cells (the zero member of each rank) repeat
    nonzero = [x.p.as_tuple() for x in batch if any(x.p.as_tuple())]
    assert len(set(nonzero)) == len(nonzero) == len(batch) - 2 * len(gen.RANKS)
    for x in batch:
        assert classify_mod.subset_of(x.p) == x.cell
    assert sum(x.q_isomorphic for x in batch) == len(batch) // 2


def test_scaled_members_keep_their_cell():
    for x in gen.pairs(4, 0, 69, scaled=True):
        assert classify_mod.subset_of(x.p) == x.cell


# ---------------------------------------------------------------------------
# spans and self time


def test_self_time_of_nested_spans():
    # op [0, 10] > a [1, 6] > b [2, 3]; op > c [7, 9] > d [8.5, 12], which
    # sticks out of its parent and counts only where it overlaps it
    start = [0.0, 1.0, 2.0, 7.0, 8.5]
    end = [10.0, 6.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, 3]
    got = tr.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([10 - 5 - 2, 5 - 1, 1, 2 - 0.5, 3.5])


def test_tracer_wraps_every_binding_and_restores():
    tracer = tr.Tracer()
    original = verify_mod.act_on_params
    restore = tr.install(tracer)
    try:
        assert verify_mod.act_on_params is not original
        assert classify_mod.act_on_params is verify_mod.act_on_params
        assert fc.act_on_params is verify_mod.act_on_params
        p = gen.pairs(2, 0, 1)[0].p
        tracer.on = True
        fc.classify(p)
        tracer.on = False
    finally:
        restore()
    assert verify_mod.act_on_params is original
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("classify.classify") == 1
    assert "classify.canonicalize" in names
    assert "action.act_on_params" in names
    assert "family.ExtensionParams" in names
    # every span is nested in the classify span
    root = names.index("classify.classify")
    assert tracer.parent[root] == -1
    assert all(tracer.start[root] <= s and e <= tracer.end[root]
               for s, e in zip(tracer.start, tracer.end))
    metrics = tr.layer_metrics(tracer, ops=1)
    assert metrics["classify.classify.calls"] == (1.0, "1/op")
    total = sum(v for k, (v, _) in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
    assert total == pytest.approx(tracer.end[root] - tracer.start[root])


def test_tracer_counts_raised_calls():
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        tracer.on = True
        with pytest.raises(DomainError):
            fc.ExtensionParams(4, float("nan"), 0, 0, (0,))
        tracer.on = False
    finally:
        restore()
    metrics = tr.layer_metrics(tracer, ops=1)
    assert metrics["tolerance.require_finite.raised"] == (1.0, "1/op")
    assert metrics["family.ExtensionParams.raised"] == (1.0, "1/op")


def test_child_spans_attach_under_the_open_span():
    tracer = tr.Tracer()
    op = tracer.wrap("op", lambda: tracer.add(
        {"names": ["cli.main"], "name": [0, 0], "parent": [-1, 0],
         "start": [1.0, 1.5], "end": [2.0, 1.6], "raised": [0, 0]}))
    tracer.on = True
    op()
    assert list(tracer.parent) == [-1, 0, 1]
    assert tracer.names == ["op", "cli.main"]


# ---------------------------------------------------------------------------
# failure accounting


class _Flaky(workloads.Workload):
    name = "flaky"
    batch_size = 6

    def batch(self, b):
        return list(range(self.batch_size))

    def op(self, x):
        if x == 0:
            raise OverflowError("complex exponentiation")
        if x == 1:
            raise ZeroDivisionError("division by zero")
        if x == 2:
            raise DomainError("out of domain")
        return x

    def check(self, x, out):
        return "wrong" if out == 3 else None


def test_failures_are_counted_by_kind_and_never_abort():
    res = workloads.measure(_Flaky(0, Path(".")), seconds=0.0)
    assert res["attempted"] == 6
    assert res["failures"] == {
        "raised:OverflowError": 1,
        "raised:ZeroDivisionError": 1,
        "raised:DomainError": 1,
        "wrong": 1,
    }
    assert len(res["latencies"]) == 6
    probe = workloads.probe(type("P", (_Flaky,), {"probe_inputs": lambda self: [0, 3, 4]})(0, Path(".")))
    assert probe == {"attempted": 3, "failures": {"raised:OverflowError": 1, "wrong": 1}}


def test_cli_exit_codes_and_wrong_output_are_failures():
    cli = workloads.Cli(1, Path("."))
    call = next(c for c in cli.batch(0) if c.verb == "representatives")
    good = json.dumps(workloads._expected(call))
    assert cli.check(call, (0, good)) is None
    assert cli.check(call, (3, "")) == "exit:3"
    assert cli.check(call, (1, "Traceback")) == "exit:1"
    assert cli.check(call, (0, json.dumps({"n": call.n, "representatives": []}))) == "wrong:representatives"


class _Report:
    def __init__(self, passed, text):
        self.summary = (passed, 32)
        self.text = text

    def to_json(self):
        return self.text


def test_harness_failed_checks_and_nondeterminism_are_failures():
    wl = workloads.Harness(1, Path("."))
    assert wl.check(7, _Report(32, "a")) is None
    assert wl.check(7, _Report(32, "a")) is None
    assert wl.extra_checks() == {"same-seed-byte-identical": True}
    assert wl.check(7, _Report(32, "b")) == "harness-not-deterministic"
    assert wl.check(8, _Report(30, "c")) == "harness-checks"
    assert wl.check_error_rate() == 2 / (32 * 4)


def test_wrong_isomorphic_verdict_is_a_failure():
    wl = workloads.ClassifyStream(1, Path("."))
    x = next(x for x in gen.pairs(1, 0, 4) if x.q_isomorphic)
    label, (same, witness) = wl.op(x)
    assert wl.check(x, (label, (same, witness))) is None
    assert wl.check(x, (label, (False, None))) == "isomorphic"


# ---------------------------------------------------------------------------
# statistics and the metric lists in BENCHMARK.json


def test_tail_is_highest_percentile_with_ten_beyond():
    assert measure.tail(range(1, 101)) == (90, 90.0, 100)
    assert measure.tail(range(1, 12)) == (1, 100.0 / 11, 11)
    assert measure.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def _fake_result():
    layers = tr.layer_metrics(tr.Tracer(), ops=1)
    plain = {"latencies": [0.1, 0.2, 0.3], "busy_s": 0.6, "attempted": 3, "failures": {},
             "reference": "compute", "ref_s": [NOMINAL["compute"]] * 2}
    rows = [{"import": {"s": 0.1, "rss_mb": 30.0},
             **{f"n{n}": {"s": 0.1, "rss_mb": 40.0} for n in range(4, 9)}}]
    res = {"plain": plain, "traced": dict(plain), "layers": layers, "peak_rss_mb": 700.0,
           "probe": {"attempted": 0, "failures": {}}}
    return rows, res


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, res = _fake_result()
    args = Namespace(workload="classify-stream")
    s = run.summarize(args, [1.0, 2.0, 3.0], rows, res)
    assert {k: u for k, (_, u) in s["end_to_end"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    per_layer = run.layer_metrics(s, res)
    assert {k: u for k, (_, u) in per_layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_operation_times_are_rescaled_to_nominal_host_speed():
    rows, res = _fake_result()
    args = Namespace(workload="classify-stream")
    nominal = run.summarize(args, [1.0], rows, res)["end_to_end"]
    # the same program on a host running at half speed: every time doubles
    slow = {**res["plain"], "latencies": [0.2, 0.4, 0.6], "busy_s": 1.2,
            "ref_s": [2 * NOMINAL["compute"]] * 2}
    halved = run.summarize(args, [1.0], rows, {**res, "plain": slow})["end_to_end"]
    for name in ("ops_per_s", "p50_ms"):
        assert halved[name][0] == pytest.approx(nominal[name][0])
    assert nominal["p50_ms"][0] == pytest.approx(200.0)


def test_spawned_references_spread_over_the_run(monkeypatch):
    monkeypatch.setattr(calib, "SPAWN_CODE", "pass")
    ref = calib.Spawns()
    ref.after(0.0)
    assert len(ref.times) == 1  # at least one, whatever the run's length
    k = calib.KINDS["spawn"]
    # the first one counts against the share: four more over five shares' worth
    for _ in range(10):
        ref.after(0.51 * k["nominal_s"] / k["share"])
    assert len(ref.times) == 5


def test_sampled_reference_time_is_taken_out_of_operations():
    ref = calib.Sampler()
    with ref:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert len(ref.times) >= 3
    inside = ref.taken(t0, t1)
    assert inside == pytest.approx(sum(ref.times))
    assert ref.taken(t0, t1) == 0.0  # each sample is taken out once
