"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

Each workload runs at a tiny size, so these check the plumbing and the
output format, not performance.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = workloads.Scale(
    n_samples=300, train_schedule=((30, 1e-3),), infer_n_samples=200,
    infer_schedule=((30, 1e-3),), setup_repeats=2, warmup_steps=2,
    frames_min=6, throughput_block=2, loss_window=10, check_samples=3,
    oracle_frames=1, gradcheck_batch=4, gradcheck_entries=3,
)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_the_declared_metrics(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace)]
    assert run.main(argv, scale=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert details["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert details["details"]["wait_time"].startswith("none")
        assert (HERE.parent / details["trace_file"]).is_file()


def test_missing_package_exits_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "infer_score", "--seed", "0", "--seconds", "1"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, -1)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),    # overlaps b
        _span("d", 15, 25, 1),
        _span("b", 30, 60, 0),
        _span("c", 90, 120, 0),   # runs past its parent's end
    ]
    # root is covered by [10, 60] and [90, 100]: 60 of its 100.
    assert tracing.self_times_ns(spans) == [40, 20, 10, 30, 30]
    table = tracing.span_table(spans)["root"]
    assert table["root"] == {"calls": 1, "busy_us": 0.1, "self_us": 0.04}


def test_training_steps_become_spans_with_their_own_ids():
    t = tracing.Tracer()
    run_idx = t.open("run")
    train_idx = t.open("model.train")
    for _ in range(2):
        t.step_boundary()
        with t.span("model.Batch.take"):
            pass
    t.close(train_idx)
    t.close(run_idx)
    steps = [s for s in t.spans if s.name == tracing.STEP]
    takes = [s for s in t.spans if s.name == "model.Batch.take"]
    assert len(steps) == 2 and all(s.parent == train_idx for s in steps)
    assert steps[0].trace_id != steps[1].trace_id
    assert [s.trace_id for s in takes] == [s.trace_id for s in steps]
    assert steps[0].end_ns <= steps[1].start_ns
    assert all(s.end_ns >= s.start_ns for s in t.spans)


@pytest.mark.parametrize("n, percentile, value", [
    (5, 50.0, 2), (100, 90.0, 89), (1000, 99.0, 989), (20000, 99.0, 19799)])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, value):
    assert workloads.tail_percentile(range(n)) == (percentile, value)


@pytest.mark.parametrize("errors, ok", [
    ((1e-7,), True),          # passes at the gate's step
    ((2e-4, 1e-6), True),     # a kink: the error shrinks with the step
    ((2e-4, 5e-5), False),    # below the threshold, but not a tenth
    ((2e-4, 2e-4), False),    # a wrong gradient: off at every step
])
def test_gradient_check_tells_a_kink_from_a_wrong_gradient(monkeypatch, errors, ok):
    reports = iter(errors)
    monkeypatch.setattr(workloads.model, "make_batch", lambda samples: None)
    monkeypatch.setattr(workloads.model, "model_gradient_check",
                        lambda *a, **k: SimpleNamespace(max_rel_error=next(reports)))
    out = workloads.Outcome()
    workloads.check_gradients(out, None, [], workloads.FULL, 0)
    assert out.details["gradcheck_max_rel_error"] == list(errors)
    assert (out.attempted, out.failed) == (1, 0 if ok else 1)


def test_speed_factors_follow_the_local_median():
    ref_ns = workloads.CAL_REF_MS * 1e6
    steady = [ref_ns] * 10 + [2 * ref_ns] * 10
    f = workloads.speed_factors(steady)
    assert f[0] == pytest.approx(1.0) and f[-1] == pytest.approx(0.5)
    one_outlier = [ref_ns] * 20
    one_outlier[10] = 20 * ref_ns
    assert workloads.speed_factors(one_outlier) == pytest.approx([1.0] * 20)
    assert workloads.speed_factors([]).size == 0
