"""Tests of the benchmark itself: inputs, mixes, arithmetic, tracing
fidelity and the correctness gate.  Run from the repository root::

    python3 -m pytest reprobench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import harness
import layers
import mixes
import run
import tracing
from conftest import BENCH, ROOT
from repro.grammar.builtin import english_grammar
from workloads import WORKLOADS

ALL = tuple(WORKLOADS)
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The nominal-reference flags exactly as the gate passes them.
NOMINAL_FLAGS = CONFIG["command"][2:]
NOMINAL = tuple(
    float(NOMINAL_FLAGS[NOMINAL_FLAGS.index(flag) + 1])
    for flag in ("--nominal-ref-ms", "--nominal-memory-ref-ms")
)


@pytest.fixture
def bench_env(monkeypatch):
    """Let ``run.main`` rewrite the cache variables; restore them after."""
    monkeypatch.chdir(ROOT)
    for name in ("REPRO_NATIVE_CACHE", "REPRO_AUTOTUNE_CACHE", "REPRO_KERNEL_BACKEND"):
        monkeypatch.setenv(name, "")
    yield
    shutil.rmtree(ROOT / run.CACHE_DIR, ignore_errors=True)


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("workload", ALL)
def test_seed_fixes_words_and_never_the_shapes(workload):
    grammar = english_grammar()
    one = mixes.round_inputs(workload, 7)
    assert one == mixes.round_inputs(workload, 7)
    other = mixes.round_inputs(workload, 8)
    assert one != other
    assert [len(words) for words in one] == [len(words) for words in other]
    shapes = [[grammar.tokenize(list(w)).category_sets for w in ws] for ws in (one, other)]
    assert shapes[0] == shapes[1]


def test_word_classes_are_single_category_sets():
    grammar = english_grammar()
    for words in mixes.CLASSES.values():
        assert len({grammar.tokenize([word]).category_sets for word in words}) == 1


def test_cold_shapes_all_miss_the_template_cache():
    shapes = mixes.round_shapes("cold_shapes")
    assert len(set(shapes)) == len(shapes) > 16


@pytest.mark.parametrize("workload", ALL)
@pytest.mark.parametrize("q", (0.5, 0.9))
def test_quantile_ranks_fall_inside_same_cost_blocks(workload, q):
    keys = mixes.op_cost_keys(workload)
    below, above = mixes.quantile_margins(keys, q)
    assert min(below, above) >= 1.5, (below, above)


def test_quantile_margins_detect_a_step():
    assert mixes.quantile_margins([(1,), (1,), (2,), (2,)], 0.5) == (0.0, 0.0)
    assert mixes.quantile_margins([(1,)] * 3 + [(2,)] * 5, 0.5) == (0.5, 3.5)


# -- arithmetic ----------------------------------------------------------------


def test_scale_factor_maps_a_slow_host_to_nominal():
    # The reference ran at 2.0 and 3.0 ms around a segment on a host
    # whose nominal reading is 1.25 ms: raw times shrink by 2.5 / 1.25.
    assert harness.scale_factor(2.0, 3.0, 1.25) == pytest.approx(0.5)
    assert harness.scale_factor(1.25, 1.25, 1.25) == 1.0


@pytest.mark.parametrize("n", (1, 2, 5, 10, 111))
def test_percentile_matches_linear_interpolation(n):
    values = list(np.random.default_rng(n).random(n))
    for q in (0.0, 0.5, 0.9, 1.0):
        assert harness.percentile(values, q) == pytest.approx(np.percentile(values, q * 100))


def test_percentile_rejects_no_values():
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_reference_loop_reads_positive_time():
    assert harness.reference_ms() > 0


# -- tracing -------------------------------------------------------------------


def test_self_times_partition_the_op():
    spans = [
        ["op", None, 0, 0, 100],
        ["session", "op", 0, 5, 95],
        ["engine", "session", 0, 20, 80],
        ["kernels.bmm", "engine", 0, 30, 40],
        ["kernels.bmm", "engine", 0, 50, 55],
    ]
    totals = tracing.self_times(spans)
    assert totals == {"op": 10, "session": 30, "engine": 45, "kernels.bmm": 15}
    assert sum(totals.values()) == 100


def test_self_times_let_another_thread_take_over():
    # A worker's parse starts before the submitting call returns.
    spans = [
        ["op", None, 1, 0, 100],
        ["serve.submit", "op", 1, 0, 30],
        ["session", "op", 1, 20, 90],
    ]
    totals = tracing.self_times(spans)
    assert totals == {"serve.submit": 20, "session": 70, "op": 10}


def test_wrapped_functions_record_only_inside_an_op():
    tracer = tracing.Tracer()
    double = tracer.wrap(lambda x: 2 * x, "double")
    assert double(2) == 4
    tracer.set_op(3)
    assert double(5) == 10
    tracer.set_op(None)
    [span] = tracer.spans_by_op()[3]
    assert span[:3] == ["double", "op", 3] and span[3] <= span[4]


def test_traced_program_restores_the_program():
    before = {(cls, attr): cls.__dict__[attr] for cls, attr, _ in tracing.TRACED_METHODS}
    with tracing.traced_program(tracing.Tracer()):
        assert all(cls.__dict__[attr] is not before[cls, attr] for cls, attr in before)
    assert all(cls.__dict__[attr] is before[cls, attr] for cls, attr in before)


def test_spans_from_worker_threads_join_their_op():
    tracer = tracing.Tracer()
    tracer.sentence_ops = {}
    sentence = object()
    tracer.set_op(9)
    tracer._register_sentence(9, sentence)
    tracer.set_op(None)
    work = tracer.wrap(lambda self, s: None, "session", op_of=tracer._adopt_sentence)
    thread = threading.Thread(target=work, args=(None, sentence))
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    assert [span[0] for span in tracer.spans_by_op()[9]] == ["session"]


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_settles_identically_and_accounts_for_all_time(
    workload, bench_env, tmp_path
):
    bench = WORKLOADS[workload](3, NOMINAL)
    metrics, outcome = run.traced(bench, rounds=1, spans_path=tmp_path / "spans.jsonl")
    checks = outcome["detail"]["checks"]
    assert outcome["failed"] == 0
    assert checks["counter_mismatches"] == 0
    assert checks["attribution_identity_errors"] == 0
    assert checks["untraced_ops"] == 0
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    assert metrics["trace.overhead_ratio"] > 0
    assert 0 <= metrics["trace.unattributed_share"] < 0.05
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {span[2] for span in spans} == set(range(checks["traced_ops"]))
    assert all(len(span) == 5 and span[3] <= span[4] for span in spans)


# -- the gate and the contract -------------------------------------------------


def test_wrong_output_fails_the_run(bench_env, monkeypatch, capsys):
    from repro.engines.vector import VectorEngine

    settle = VectorEngine.run

    def corrupted(self, network, **kwargs):
        # The engine under test goes wrong; the serial oracle does not.
        stats = settle(self, network, **kwargs)
        network.matrix_bits[0, 0] ^= np.uint64(1)
        return stats

    monkeypatch.setattr(VectorEngine, "run", corrupted)
    code = run.main(
        ["--workload", "warm_parse", "--seed", "1", "--seconds", "0.1", *NOMINAL_FLAGS]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_end_to_end_run_reports_every_metric(bench_env, capsys):
    assert run.main(
        ["--workload", "cyk_chart", "--seed", "2", "--seconds", "0.1", *NOMINAL_FLAGS]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail, result = json.loads(lines[-2])["reprobench"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(layers.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["samples"]["beyond_p90"] >= 10
    assert detail["phases"]["timed"]["succeeded"] == result["attempted"]


def test_benchmark_json_names_every_metric():
    assert set(CONFIG) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONFIG["command"][:2] == ["python3", "reprobench/run.py"]
    assert [w["name"] for w in CONFIG["workloads"]] == list(ALL)
    assert [m["name"] for m in CONFIG["end_to_end"]] == list(layers.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == layers.PER_LAYER_UNITS
    assert all(value > 0 for value in NOMINAL)


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "warm_parse",
         "--seed", "1", "--seconds", "1", "--trace", "0", *NOMINAL_FLAGS],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
