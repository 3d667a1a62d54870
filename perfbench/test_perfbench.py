"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from spans import CountDistances, Spans, distance_evals, layer_metrics
from workloads import PIN_SEEDS, WORKLOADS, failed_runs, load_pin, run_pass

import uavex.simulator
from uavex import cluster_network, sample_initial_receipts
from uavex.experiments import cli_main

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_csv_equals_untraced_and_pin(name):
    seed = PIN_SEEDS[0]
    plain = run_pass(WORKLOADS[name], seed)
    with Spans() as spans:
        traced = run_pass(WORKLOADS[name], seed)
    assert traced == plain == load_pin(name, seed)
    assert spans.calls["harness"] == 1 and not spans.missing


def _cli_args(workload, seed):
    clusters = workload.clusters
    args = [workload.command, "--uavs", str(workload.uavs), "--packets", str(workload.packets),
            "--rho", str(workload.rho), "--runs", str(workload.runs), "--seed", str(seed),
            "--clusters", f"{clusters[0]}..{clusters[-1]}" if len(clusters) > 1 else str(clusters[0])]
    for key, value in workload.timing.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    return args


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pins_equal_the_cli_output(name, tmp_path):
    for seed in PIN_SEEDS:
        out = tmp_path / f"{seed}.csv"
        assert cli_main(_cli_args(WORKLOADS[name], seed) + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == load_pin(name, seed)


@pytest.mark.parametrize("uavs, clusters", [
    (20, 6), (20, 7), (20, 10), (10, 3), (9, 1), (12, 5), (7, 2), (4, 3),
])
def test_distance_closed_form_matches_counted_calls(uavs, clusters):
    rng = np.random.default_rng(uavs * 100 + clusters)
    for trial in range(3):
        receipts = sample_initial_receipts(uavs, 8, 0.5, rng)
        with CountDistances() as counted:
            cluster_network(receipts, clusters, np.random.default_rng(trial))
        assert counted.available
        assert counted.calls == distance_evals(uavs, clusters)


def test_distance_closed_form_small_cases():
    assert distance_evals(9, 1) == 0
    # One extraction over 4 UAVs, then one open cluster per pool UAV.
    assert distance_evals(4, 2) == 6 + 2 * 2 + 1 * 1


def test_setup_probe_runs_in_a_fresh_interpreter():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), "fsr-ref20", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["fresh"] is True
    assert report["pid"] != os.getpid()
    assert report["setup_s"] > 0


def test_missing_wrapped_name_makes_its_layer_absent(monkeypatch):
    # The full-set-rate path never calls the engine, so the pass still runs.
    monkeypatch.delattr(uavex.simulator, "run_cluster_exchange")
    with Spans() as spans:
        csv_text = run_pass(WORKLOADS["fsr-ref20"], PIN_SEEDS[0], runs=2)
    assert spans.missing == {"engine"}
    metrics = layer_metrics([spans])
    assert not any(name.startswith("engine.") for name in metrics)
    assert metrics["clustering.calls"] == 20
    assert csv_text.count("\n") == 11


def test_failed_runs_counts_differing_rows():
    pin = load_pin("compare-ref20", PIN_SEEDS[0])
    lines = pin.splitlines(keepends=True)
    runs = WORKLOADS["compare-ref20"].runs
    assert failed_runs(pin, pin, runs) == 0
    assert failed_runs("".join(lines[:2] + ["x\n"] + lines[3:]), pin, runs) == runs
    assert failed_runs("".join(lines[:-1]), pin, runs) == 3 * runs


def test_provenance_covers_every_declared_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    with open(os.path.join(HERE, "PROVENANCE.json"), encoding="utf-8") as fh:
        provenance = json.load(fh)
    assert list(provenance["per_layer"]) == [m["name"] for m in declared["per_layer"]]
    assert {m["name"] for m in declared["end_to_end"]} <= set(provenance["end_to_end"])
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_a_raising_program_fails_every_run_and_the_run_still_ends(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(workloads, "run_pass", broken)
    tally, metrics, problems = run.per_layer("compare-contended", PIN_SEEDS[0], 0.01)
    assert tally.failed == tally.attempted > 0
    assert len(tally.errors) >= run.MIN_PASSES * 2 + 4
    assert problems and not metrics
