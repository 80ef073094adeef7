"""The BENCH_<n>.json records of the speed claims, from BENCH_17.json on,
read against BENCHMARK.json: the record's keys, one result per untraced
run with exactly the declared end-to-end metrics, only declared
workloads, and a parent and a change run for every pair. From
BENCH_30.json on a record also names its claim, ``claimed``: null or
{"workload", "metric"} from BENCHMARK.json, and at every seed of that
workload's untraced runs the change median of the metric beats the parent
median in the metric's ``better`` direction. Records 17-29 state their
claims in free text only."""

import json
import re
import statistics
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
KEYS = {"change", "claim", "command", "machine", "pairs", "result", "runs", "summary"}
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
FIRST = 17  # the first record in this schema
CLAIMED = 30  # the first record that names its claim

RECORDS = sorted((path for path in ROOT.glob("BENCH_*.json")
                  if int(re.fullmatch(r"BENCH_(\d+)\.json", path.name)[1]) >= FIRST),
                 key=lambda path: int(path.stem.split("_")[1]))


def test_the_records_from_the_first_in_this_schema_are_found():
    assert RECORDS and RECORDS[0].name == f"BENCH_{FIRST}.json"


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_holds_paired_results_of_the_declared_benchmark(path):
    record = json.loads(path.read_text())
    assert KEYS <= record.keys()
    runs = record["runs"]
    assert runs
    sides = defaultdict(set)
    for run in runs:
        assert run["workload"] in WORKLOADS
        sides[run["workload"], run["seed"], run.get("trace", 0), run["pair"]].add(run["side"])
        if run.get("trace", 0):
            continue
        result = run["result"]
        assert result["correct"] is True
        assert all(type(result[k]) is int for k in ("attempted", "failed"))
        assert set(result["metrics"]) == END_TO_END
    unpaired = {key: found for key, found in sides.items() if found != {"parent", "change"}}
    assert not unpaired


@pytest.mark.parametrize("path", [path for path in RECORDS
                                  if int(path.stem.split("_")[1]) >= CLAIMED],
                         ids=lambda path: path.name)
def test_a_named_claim_holds_in_the_median_at_every_seed(path):
    record = json.loads(path.read_text())
    claimed = record["claimed"]
    if claimed is None:
        return
    assert set(claimed) == {"workload", "metric"}
    workload, metric = claimed["workload"], claimed["metric"]
    assert workload in WORKLOADS and metric in BETTER
    values = defaultdict(list)
    for run in record["runs"]:
        if run["workload"] == workload and not run.get("trace", 0):
            values[run["seed"], run["side"]].append(run["result"]["metrics"][metric]["value"])
    seeds = {seed for seed, _ in values}
    assert seeds
    sign = 1.0 if BETTER[metric] == "higher" else -1.0
    for seed in sorted(seeds):
        parent = statistics.median(values[seed, "parent"])
        change = statistics.median(values[seed, "change"])
        assert sign * (change - parent) > 0, (seed, parent, change)
