"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys

import pytest

import qcomb
import run
import spans
import worker
import workloads
from workloads import Op


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.make_ops(workload, 7, 1) == workloads.make_ops(workload, 7, 1)
    assert workloads.make_ops(workload, 7, 1) != workloads.make_ops(workload, 8, 1)


def test_closed_form_queries_are_distinct():
    ops = workloads.make_ops("closed-forms", 3)
    assert len(set(ops)) == len(ops)


def _prepared(ops):
    return [(op, *workloads.prepare(op, qcomb, worker.load_golden(), worker.inproc_cli)) for op in ops]


def test_perturbed_expected_answer_counts_as_failed():
    ops = [Op("q_binomial", (9, 4)), Op("via_denumerant", (8, (3, 5), 7)),
           Op("cli", (("psi", "6", "6"), None)), Op("cli", (("qbinom", "4", "5"), 1))]
    good = _prepared(ops)
    assert [ok for _, _, ok in worker.run_ops(good)] == [True] * 4
    for i, (op, call, expected) in enumerate(good):
        if op.kind == "q_binomial":
            wrong = (expected[0] + 1, expected[1])
        elif op.kind == "cli":
            wrong = (expected[0], expected[1] + " ")
        else:
            wrong = expected + 1
        bad = list(good)
        bad[i] = (op, call, wrong)
        assert [ok for _, _, ok in worker.run_ops(bad)] == [j != i for j in range(4)]


def test_a_crashing_op_counts_as_failed():
    def crash():
        raise RuntimeError("boom")

    op = Op("q_binomial", (4, 2))
    assert worker.run_ops([(op, crash, (6, 4))]) == [("q_binomial", pytest.approx(0, abs=1), False)]


def test_cell_form_check_rejects_a_wrong_transition():
    unitriangular = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    (op, call, expected), = _prepared([Op("cell_form", (3, (1,), 2, (unitriangular,)))])
    result = call()
    assert workloads.check(op, expected, result)
    sigma, form, g = result[0]
    twisted = qcomb.FpMatrix(2, [[1, 0, 0], [1, 1, 0], [0, 0, 1]]) @ g
    assert not workloads.check(op, expected, [(sigma, form, twisted)])


def test_reference_arithmetic():
    assert workloads.ref_series(range(1, 5), (1, 2, 1, 2), 4) == [1, 1, 2, 1, 1]
    assert [workloads.pentagonal_coefficient(r) for r in range(13)] == [
        1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    assert workloads.flag_count(3, (1, 2), 2) == 21


def test_self_time_on_a_hand_built_nested_trace():
    # root [0, 100) holds a [10, 40), which holds b [20, 30); c [50, 90) is root's second child
    start, end, parent = [0, 10, 20, 50], [100, 40, 30, 90], [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [30, 20, 10, 40]


def _attribute_snapshot():
    snap = {}
    for name, module in sys.modules.items():
        if name == "qcomb" or name.startswith("qcomb."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    return snap


def test_traced_run_restores_module_attributes():
    before = _attribute_snapshot()
    tracer = spans.Tracer()
    shape = qcomb.FlagShape(5, (2, 3))
    with tracer.installed():
        assert qcomb.inversions.enumerate_words is not before[("qcomb.inversions", "enumerate_words")]
        root = tracer.begin_op(0, "inv_oracle")
        hist = qcomb.inversion_distribution_oracle(shape)
        tracer.end_op(root)
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tracer.layer_metrics()
    # the call from inside inversion_distribution_oracle went through the wrapper
    assert tracer.counts["inversions:enumerate_words.yields"] == shape.multinomial() == sum(hist.coeffs)
    assert metrics["inversions.words_enumerated"] == shape.multinomial()
    assert metrics["inversions.inversion_count_calls"] == shape.multinomial()
    assert 0 < metrics["inversions.self_s"] <= metrics["inversions.oracle_s"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(worker.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_qcomb_source(tmp_path):
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(worker.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
