"""Tests of the benchmark itself, on small configurations.

Run from the repository root: python3 -m pytest benchmark/test_benchmark.py
"""

import copy
import json
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads as W  # noqa: E402

ANSWERS = W.load_answers()
LADDER = W.GeometryWorkload(
    configs=((2, 2, 1),), suites=W.ALL_GEOMETRY_SUITES, decompose=True, perturb="A",
    coefficient_controls=(("k1l1", (2, 2, 1)), ("askey1", (2, 2, 1))))
LATTICE = W.GeometryWorkload(
    configs=((2, 2, 1),), suites=("counts", "structure", "generators"), decompose=False,
    perturb="L1", coefficient_controls=(("k1l1", (2, 2, 1)),))
MODULES = W.ModuleWorkload(hmax=3, kmax=2)
SMALL = {"geometry-ladder": LADDER, "lattice-n6": LATTICE, "module-symbolic": MODULES}


def iteration(spec, seed=1, detailed=False, answers=ANSWERS):
    return W.run("test", seed, detailed, f"test/{seed}", time.perf_counter(),
                 spec=spec, answers=answers)


def test_every_benchmark_metric_is_printed_with_its_unit():
    with open(os.path.join(W.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    for spec in SMALL.values():
        untraced, traced = iteration(spec), iteration(spec, detailed=True)
        for trace, its in ((False, ([untraced], [])), (True, ([untraced], [traced]))):
            lines, result = run.report(bench, run.summarize(*its), trace)
            wanted = bench["per_layer" if trace else "end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in wanted]
            for m in wanted:
                assert result["metrics"][m["name"]]["unit"] == m["unit"]
                assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                           for line in lines), m["name"]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1


def test_wrong_known_answer_counts_as_failed():
    wrong = copy.deepcopy(ANSWERS)
    wrong["multiplicities"]["2,2,1"][0][3] += 1
    wrong["relations"]["geometry"]["counts"].append("counts.not_a_relation")
    it = iteration(LADDER, answers=wrong)
    assert it["failed"] == 2
    summary = run.summarize([it], [])
    assert summary["metrics"]["failed_ratio"] > 0
    with open(os.path.join(W.ROOT, "BENCHMARK.json")) as fh:
        assert not run.report(json.load(fh), summary, False)[1]["correct"]
    assert any("counts.not_a_relation" in m for m in it["mismatches"])


def test_fixed_seed_reproduces_controls_and_witnesses():
    for spec in SMALL.values():
        first, again = iteration(spec, seed=7), iteration(spec, seed=7)
        assert first["failed"] == 0, first["mismatches"]
        assert first["controls"] == again["controls"]
        drawn = [c for c in first["controls"] if "witness" in c]
        assert drawn and all(c["witness"] for c in drawn)
    # Values checked by hand: (q^ir - q^(ic+1)) (q^ir - q^(ic-1)).
    assert W.at_sqrt_q(W.askey2_residual(0, 0), 2) == (Fraction(-1, 2), 0)
    assert W.at_sqrt_q(W.askey2_residual(2, 0), 2) == (7, 0)
    assert W.at_sqrt_q(W.askey2_residual(0, 0), 3) == (Fraction(-4, 3), 0)


def test_controls_cross_levels():
    it = iteration(LADDER, seed=3)
    coords = {}
    for q, h, k in LADDER.configs:
        for u in W.enumerate_subspaces(q, h + k):
            coords[u.label()] = W.coordinates(u.rows, q, h)
    levels = [coords[c["row"]][1] != coords[c["col"]][1]
              for c in it["controls"] if "row" in c]
    assert any(levels) and not all(levels)


def test_span_tree_is_well_formed():
    for spec in SMALL.values():
        spans = iteration(spec, detailed=True)["spans"]
        by_id = {s["id"]: s for s in spans}
        assert {s["run"] for s in spans} == {"test/1"}
        assert [s for s in spans if s["parent"] is None] == [spans[0]]
        for s in spans:
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        names = {s["name"] for s in spans}
        assert "verify.negative" in names
        assert any(n.startswith("verify.rel.") for n in names)
