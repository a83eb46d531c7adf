"""Schema of the committed before/after benchmark records, ``BENCH_<parent>.json``.

Each record holds alternated pairs of ``benchmark/run.py`` runs of a parent
commit and of the change on top of it, on every workload of
BENCHMARK.json, with the runner's stamp of each side.  The medians and
quartiles it states must be those of its pairs, and the wins the count of
pairs in which the change reads lower (every end-to-end metric is better
lower).
"""

import json
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]
STAMP_FIELDS = {"workload", "seed", "seconds", "trace", "commit", "src_sha256",
                "python", "nproc", "machine"}
SIDES = ("parent", "change")


def test_a_bench_record_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_record_schema(path):
    bench = json.loads(path.read_text())
    assert len(bench["parent"]) == 40 and path.stem == f"BENCH_{bench['parent'][:7]}"
    assert isinstance(bench["method"], str) and bench["method"]
    assert set(bench["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, record in bench["workloads"].items():
        stamps = record["stamp"]
        for side in SIDES:
            assert STAMP_FIELDS <= set(stamps[side]), (name, side)
            assert stamps[side]["workload"] == name and stamps[side]["trace"] == 0
            assert stamps[side]["seconds"] == stamps["parent"]["seconds"]
            assert stamps[side]["seed"] == stamps["parent"]["seed"]
        assert stamps["parent"]["commit"] == bench["parent"]
        assert stamps["change"]["src_sha256"] != stamps["parent"]["src_sha256"]

        pairs = record["pairs"]
        assert len(pairs) >= 10, name
        assert {p["first"] for p in pairs} == set(SIDES), "sides must alternate"
        for p in pairs:
            for side in SIDES:
                run = p[side]
                assert run["failed"] == 0 and run["attempted"] > 0 and run["iterations"] >= 1
                for m in METRICS:
                    assert isinstance(run[m], (int, float)) and run[m] > 0, (name, m)
        for m in METRICS:
            for side in SIDES:
                values = [p[side][m] for p in pairs]
                assert record["median"][side][m] == statistics.median(values), (name, m)
                q1, _, q3 = statistics.quantiles(values, n=4)
                assert record["quartiles"][side][m] == [q1, q3], (name, m)
            assert record["change_wins"][m] == \
                sum(p["change"][m] < p["parent"][m] for p in pairs), (name, m)
