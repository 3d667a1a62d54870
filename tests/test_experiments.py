"""Sweep mechanics, CSV output, matched sampling, and the command line."""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tomllib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uavex
from uavex import clustering, core, experiments, selftest, simulator
from uavex.clustering import InfeasibleClusterCount, cluster_network
from uavex.core import IndicatorVector, ScenarioConfig, Scheme, stream
from uavex.experiments import (
    SweepSpec,
    cli_main,
    compare_schemes,
    full_set_rate_samples,
    rows_to_csv,
    scheme_metric_samples,
    sweep_full_set_rate,
)
from uavex.mac import TimingConfig
from uavex.simulator import sample_initial_receipts

from reference import per_point_compare, per_point_full_set_rate, single_cluster_full_rate


# The config surface, key by key with its type: the fields of ScenarioConfig, then TimingConfig's.
CONFIG_KEYS = {
    "num_uavs": int, "num_packets": int, "delivery_rate": float, "num_clusters": int,
    "scheme": Scheme, "seed": int, "runs": int,
    "difs_us": int, "cw_total_us": int, "preamble_us": int, "payload_us_per_packet": int,
}

# JSON values of every type but number: null, bool, list, object, string.
NON_NUMBER_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 30), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 30), max_size=2),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=8),
)


def base_config(**overrides):
    kwargs = dict(num_uavs=8, num_packets=5, delivery_rate=0.6,
                  num_clusters=2, seed=9)
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


class TestSweepSpec:
    def test_rejects_unknown_parameter(self):
        for parameter in ("delivery", "delivery_rate"):
            with pytest.raises(ValueError):
                SweepSpec(base_config(), parameter, (0.5,))

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            SweepSpec(base_config(), "num_clusters", ())

    def test_runs_default_to_the_config_runs(self):
        spec = SweepSpec(base_config(runs=3), "num_clusters", (2,))
        assert spec.runs == 3
        (row,) = sweep_full_set_rate(spec)
        assert row.runs == 3

    @pytest.mark.parametrize("runs", [2.5, True, "3"])
    def test_runs_must_be_a_positive_int(self, runs):
        with pytest.raises(ValueError, match=f"runs must be a positive integer, got {runs!r}"):
            SweepSpec(base_config(), "num_clusters", (2,), runs=runs)


class TestConfigSurface:
    """A field added to either config dataclass becomes a config key only on purpose."""

    def test_the_keys_are_the_config_fields_with_their_types(self):
        assert list(experiments._SETTINGS.items()) == list(CONFIG_KEYS.items())

    @pytest.mark.parametrize("command, without", [
        ("trace", set()),
        ("compare", {"scheme"}),                         # --schemes lists the schemes
        ("full-set-rate", {"num_clusters", "scheme"}),  # --clusters lists the counts
    ])
    def test_each_key_is_the_dest_of_one_flag(self, command, without):
        from uavex.cli import _build_parser

        (commands,) = [action for action in _build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        dests = [action.dest for action in commands.choices[command]._actions]
        assert sorted(dest for dest in dests if dest in CONFIG_KEYS) == sorted(
            set(CONFIG_KEYS) - without
        )


class TestSweepValuesTypedOnce:
    """Sweep values are typed by the config settings rule when the sweep is built."""

    @pytest.mark.parametrize("value", [2.5, "abc", True])
    def test_a_count_that_is_not_an_integer_is_refused_before_any_run(self, value, monkeypatch):
        def no_run(*args):
            raise AssertionError("no run may start")

        monkeypatch.setattr(experiments, "sample_initial_receipts", no_run)
        with pytest.raises(ValueError, match=f"num_clusters.*{re.escape(repr(value))}"):
            sweep_full_set_rate(SweepSpec(base_config(), "num_clusters", (2, value), runs=3))

    def test_an_unknown_scheme_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="scheme.*'bogus'"):
            SweepSpec(base_config(), "scheme", ("bogus",))

    def test_integral_values_take_the_type_the_setting_does(self):
        spec = SweepSpec(base_config(), "num_clusters", ("3", 4.0, 2), runs=3)
        assert spec.values == (3, 4, 2)
        assert all(type(value) is int for value in spec.values)

    def test_scheme_names_give_the_rows_of_scheme_members(self):
        names = SweepSpec(base_config(num_clusters=3), "scheme",
                          ("baseline_csma", "proposed"), runs=6)
        members = SweepSpec(base_config(num_clusters=3), "scheme",
                            (Scheme.BASELINE_CSMA, Scheme.PROPOSED), runs=6)
        assert names.values == members.values
        assert compare_schemes(names) == compare_schemes(members)


class TestFullSetRateSweep:
    def test_single_cluster_matches_closed_form(self):
        config = base_config(num_clusters=1, num_uavs=6, num_packets=4,
                             delivery_rate=0.5, seed=3)
        sampled = full_set_rate_samples(config, 4000).mean()
        exact = single_cluster_full_rate(6, 4, 0.5)
        assert abs(sampled - exact) < 0.02

    def test_zero_delivery_rate(self):
        config = base_config(delivery_rate=0.0, num_clusters=2)
        assert full_set_rate_samples(config, 50).mean() == 0.0

    def test_rows_cover_requested_counts(self):
        spec = SweepSpec(base_config(), "num_clusters", (1, 2, 4), runs=30)
        rows = sweep_full_set_rate(spec)
        assert [row.param for row in rows] == ["rho=0.6;N=1", "rho=0.6;N=2", "rho=0.6;N=4"]
        assert all(row.mean_exchanges is None for row in rows)
        assert all(0.0 <= row.full_set_rate <= 1.0 for row in rows)

    def test_infeasible_count_becomes_warning_row(self, capsys):
        # 5 clusters cannot be seeded from 4 UAVs.
        spec = SweepSpec(base_config(num_uavs=4), "num_clusters", (2, 5), runs=10)
        rows = sweep_full_set_rate(spec)
        assert rows[0].runs == 10
        assert rows[1].runs == 0
        assert rows[1].full_set_rate is None
        assert "skipping" in capsys.readouterr().err

    def test_odd_count_without_spare_seed_becomes_warning_row(self, capsys):
        # N=5 passes config validation at U=5 but needs 6 seed UAVs.
        spec = SweepSpec(base_config(num_uavs=5), "num_clusters", (5, 2), runs=10)
        rows = sweep_full_set_rate(spec)
        assert [row.runs for row in rows] == [0, 10]
        assert "odd cluster count" in capsys.readouterr().err

    def test_builds_vectors_only_for_receipts(self, monkeypatch):
        # Clustering returns masks, and the sweep counts the full ones among
        # them, so the only vectors built are each run's receipts.
        built = []
        from_mask = IndicatorVector.from_mask.__func__
        from_masks = IndicatorVector._from_masks.__func__

        def counted_from_mask(cls, mask, length):
            built.append(("from_mask", length))
            return from_mask(cls, mask, length)

        def counted_from_masks(cls, masks, length):
            built.append(("_from_masks", len(masks), length))
            return from_masks(cls, masks, length)

        monkeypatch.setattr(IndicatorVector, "from_mask", classmethod(counted_from_mask))
        monkeypatch.setattr(IndicatorVector, "_from_masks", classmethod(counted_from_masks))
        spec = SweepSpec(ScenarioConfig(20, 10, 0.6, 1), "num_clusters", tuple(range(1, 11)),
                         runs=5)
        assert [row.runs for row in sweep_full_set_rate(spec)] == [5] * 10
        # Per run: the 20 receipts, whose fit check builds the smallest and the largest.
        assert built == [("_from_masks", 20, 10), ("from_mask", 10), ("from_mask", 10)] * 5

    def test_other_clustering_errors_propagate(self, monkeypatch):
        # Only infeasible counts become warning rows; a plain ValueError from
        # the clustering stage is a fault and must not be swallowed.
        def broken(*args, **kwargs):
            raise ValueError("length mismatch: 5 vs 6")

        monkeypatch.setattr("uavex.experiments.cluster_network", broken)
        spec = SweepSpec(base_config(), "num_clusters", (2,), runs=3)
        with pytest.raises(ValueError, match="length mismatch"):
            sweep_full_set_rate(spec)


class TestCompareSchemes:
    def test_matched_receipts_across_schemes(self):
        # The receipt stream depends only on (seed, run); schemes cannot skew it.
        config = base_config()
        a = sample_initial_receipts(8, 5, 0.6, stream(config.seed, 3, "bs-delivery"))
        b = sample_initial_receipts(8, 5, 0.6, stream(config.seed, 3, "bs-delivery"))
        assert a == b

    def test_certain_delivery_all_schemes_trivial(self):
        spec = SweepSpec(base_config(delivery_rate=1.0), "scheme",
                         tuple(Scheme), runs=20)
        rows = compare_schemes(spec)
        for row in rows:
            assert row.mean_exchanges == 0.0
            assert row.mean_delay_us == 0.0
            assert row.completion_rate == 1.0

    def test_mechanism_beats_baseline_on_exchanges(self):
        spec = SweepSpec(base_config(num_uavs=10, num_packets=6, delivery_rate=0.7,
                                     num_clusters=3, seed=42),
                         "scheme", (Scheme.MECHANISM_ONLY, Scheme.BASELINE_CSMA),
                         runs=120)
        mech, base = compare_schemes(spec)
        gap = base.mean_exchanges - mech.mean_exchanges
        assert gap > 2 * (mech.se_exchanges() + base.se_exchanges())

    def test_delay_se_counts_only_completed_runs(self):
        # The delay mean and SD leave out runs that could not complete, and the
        # row keeps the completed count, the n of their SE.
        config = base_config(num_clusters=3)
        samples = scheme_metric_samples(config, 40)
        completed = samples["completed"]
        assert 1 < completed.sum() < 40
        delays = samples["delay_us"][completed].astype(float)
        (row,) = compare_schemes(SweepSpec(config, "scheme", (Scheme.PROPOSED,), runs=40))
        assert round(row.completion_rate * row.runs) == completed.sum()
        assert row.mean_delay_us == pytest.approx(delays.mean())
        assert row.sd_delay_us == pytest.approx(delays.std(ddof=1))

    def test_sample_arrays_shape(self):
        samples = scheme_metric_samples(base_config(), 7)
        assert samples["exchanges"].shape == (7,)
        assert samples["completed"].dtype == bool


def outcome_and_stderr(sweep, *args):
    """The rows a sweep returns (or the error it raises) and what it writes to stderr."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            outcome = sweep(*args)
        except ValueError as exc:
            outcome = (type(exc).__name__, str(exc))
    return outcome, err.getvalue()


@st.composite
def small_scenarios(draw):
    num_uavs = draw(st.integers(1, 7))
    return ScenarioConfig(
        num_uavs=num_uavs,
        num_packets=draw(st.integers(1, 5)),
        delivery_rate=draw(st.floats(0.0, 1.0)),
        num_clusters=draw(st.integers(1, num_uavs)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestSweepsMatchPerPointLoops:
    """Sweep rows, errors and warnings equal those of per-point loops over the same runs."""

    @settings(max_examples=60, deadline=None)
    @given(base=small_scenarios(), runs=st.integers(1, 4),
           schemes=st.lists(st.sampled_from(list(Scheme)), min_size=1, max_size=4),
           window=st.sampled_from([9207, 40, 6]))
    def test_compare_schemes(self, base, runs, schemes, window):
        # Schemes come in any order, repeats included; a 6 us window is too
        # short for more than 3 packets, and the odd N = U is infeasible.
        spec = SweepSpec(base, "scheme", tuple(schemes), runs=runs)
        timing = TimingConfig(cw_total_us=window)
        assert outcome_and_stderr(compare_schemes, spec, timing) == \
            outcome_and_stderr(per_point_compare, spec, timing)

    @settings(max_examples=60, deadline=None)
    @given(base=small_scenarios(), runs=st.integers(1, 4),
           counts=st.lists(st.integers(0, 9), min_size=1, max_size=6))
    def test_sweep_full_set_rate(self, base, runs, counts):
        # Counts 0 and above U fail the config; an odd count with no spare
        # seed UAV fails in clustering; repeats are allowed.
        spec = SweepSpec(base, "num_clusters", tuple(counts), runs=runs)
        assert outcome_and_stderr(sweep_full_set_rate, spec) == \
            outcome_and_stderr(per_point_full_set_rate, spec)

    def test_warnings_follow_the_requested_counts(self):
        spec = SweepSpec(ScenarioConfig(9, 4, 0.5, 1), "num_clusters", tuple(range(1, 12)),
                         runs=5)
        rows, err = outcome_and_stderr(sweep_full_set_rate, spec)
        assert [row.runs for row in rows] == [5] * 8 + [0] * 3
        assert err == (
            "warning: skipping rho=0.5;N=9: odd cluster count 9 needs 10 seed UAVs, got 9\n"
            "warning: skipping rho=0.5;N=10: cannot form 10 clusters from 9 UAVs\n"
            "warning: skipping rho=0.5;N=11: cannot form 11 clusters from 9 UAVs\n"
        )


class TestRunsAcrossStreamBlocks:
    """Sweeps whose runs span several stream blocks give the rows of standalone runs."""

    @staticmethod
    def _blocks(monkeypatch):
        monkeypatch.setattr(experiments, "_BLOCK_RUNS", 4)
        blocks = []
        original = core.StreamBlock

        def recorded(seed, run_indices, labels):
            blocks.append(run_indices)
            return original(seed, run_indices, labels)

        monkeypatch.setattr(core, "StreamBlock", recorded)
        return blocks

    @pytest.mark.parametrize("seed", [23, 2**32 + 5])
    def test_compare_schemes(self, seed, monkeypatch):
        blocks = self._blocks(monkeypatch)
        spec = SweepSpec(ScenarioConfig(10, 6, 0.7, 3, seed=seed), "scheme", tuple(Scheme),
                         runs=9)
        assert compare_schemes(spec) == per_point_compare(spec)
        assert blocks == [range(0, 4), range(4, 8), range(8, 9)]

    @pytest.mark.parametrize("seed", [23, 2**32 + 5])
    def test_sweep_full_set_rate(self, seed, monkeypatch):
        blocks = self._blocks(monkeypatch)
        spec = SweepSpec(ScenarioConfig(10, 6, 0.7, 1, seed=seed), "num_clusters",
                         tuple(range(1, 8)), runs=6)
        assert outcome_and_stderr(sweep_full_set_rate, spec) == \
            outcome_and_stderr(per_point_full_set_rate, spec)
        assert blocks == [range(0, 4), range(4, 6)]


class TestReceiptsSampledOncePerRun:
    @staticmethod
    def _sampling_calls(monkeypatch):
        calls = []
        for module in (experiments, simulator):
            original = module.sample_initial_receipts

            def counted(*args, _original=original):
                calls.append(args[:3])
                return _original(*args)

            monkeypatch.setattr(module, "sample_initial_receipts", counted)
        return calls

    def test_compare_samples_each_run_once_for_every_scheme(self, monkeypatch):
        calls = self._sampling_calls(monkeypatch)
        compare_schemes(SweepSpec(base_config(num_clusters=3), "scheme", tuple(Scheme) * 2, runs=4))
        assert calls == [(8, 5, 0.6)] * 4

    def test_full_set_rate_samples_each_run_once_for_every_count(self, monkeypatch):
        calls = self._sampling_calls(monkeypatch)
        sweep_full_set_rate(SweepSpec(base_config(), "num_clusters", (1, 2, 3, 9), runs=4))
        assert calls == [(8, 5, 0.6)] * 4

    def test_sampling_stops_once_every_count_is_infeasible(self, monkeypatch):
        # At U=3, N=5 fails the config and the odd N=3 fails clustering's
        # check, both before any run.
        calls = self._sampling_calls(monkeypatch)
        spec = SweepSpec(base_config(num_uavs=3), "num_clusters", (3, 5), runs=4)
        rows, _ = outcome_and_stderr(sweep_full_set_rate, spec)
        assert [row.runs for row in rows] == [0, 0]
        assert calls == []
        spec = SweepSpec(base_config(num_uavs=3), "num_clusters", (5,), runs=4)
        outcome_and_stderr(sweep_full_set_rate, spec)
        assert calls == []


class TestFlatMemoryAcrossPasses:
    """Repeated sweeps return every block they take, free lists included.

    CPython 3.11 keeps up to 2,000 freed tuples of each length 1-20 for reuse.
    A tuple that is freed onto another length's list than the one it came
    from (a generator-built tuple, resized from a guessed length) or onto the
    20-element list, which 3.11 never pops, stays allocated there, so the
    blocks of such a pass grow with the pass count until those lists are full.
    """

    # Building those tuples afresh per call held about 1,200 more blocks here.
    BOUND = 100

    @staticmethod
    def _one_pass():
        base = ScenarioConfig(20, 10, 0.6, 10, seed=3, runs=5)
        sweep_full_set_rate(SweepSpec(base, "num_clusters", tuple(range(1, 11)), runs=5))
        compare = replace(base, num_clusters=6)
        compare_schemes(SweepSpec(compare, "scheme", tuple(Scheme), runs=5))

    def test_allocated_blocks_stay_flat_over_repeated_passes(self):
        # A full collection empties every free list, so an automatic one inside
        # the window would hide the growth; the passes make no cyclic garbage.
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(5):
                self._one_pass()
            before = sys.getallocatedblocks()
            for _ in range(20):
                self._one_pass()
            grown = sys.getallocatedblocks() - before
        finally:
            if enabled:
                gc.enable()
        assert grown <= self.BOUND, f"{grown} blocks held after 20 more passes"


class TestCsv:
    def test_schema_and_reproducibility(self):
        spec = SweepSpec(base_config(), "num_clusters", (1, 2), runs=15)
        text_a = rows_to_csv(sweep_full_set_rate(spec))
        text_b = rows_to_csv(sweep_full_set_rate(spec))
        assert text_a == text_b
        header = text_a.splitlines()[0]
        assert header == ("param,scheme,mean_exchanges,sd_exchanges,mean_delay_us,"
                          "sd_delay_us,full_set_rate,completion_rate,runs,seed")

    def test_blank_cells_for_missing_metrics(self):
        spec = SweepSpec(base_config(), "num_clusters", (2,), runs=5)
        line = rows_to_csv(sweep_full_set_rate(spec)).splitlines()[1]
        fields = line.split(",")
        assert fields[2] == "" and fields[4] == ""


class TestOneFeasibilityRule:
    """Every entry point decides a cluster count by one rule, with one error and message."""

    @staticmethod
    def feasible(num_uavs, num_clusters):
        # N in [1, U]; seeds come in pairs, so an odd N above 1 needs a spare UAV.
        in_range = 1 <= num_clusters <= num_uavs
        return in_range and (num_clusters == 1 or num_clusters % 2 == 0
                             or num_clusters < num_uavs)

    def test_one_error_class(self):
        assert uavex.InfeasibleClusterCount is core.InfeasibleClusterCount
        assert clustering.InfeasibleClusterCount is core.InfeasibleClusterCount

    def test_cluster_network_follows_the_rule(self):
        for num_uavs in range(13):
            vectors = [IndicatorVector.from_mask(u % 8, 3) for u in range(num_uavs)]
            for num_clusters in range(-1, 15):
                try:
                    cluster_network(vectors, num_clusters, stream(0, 0, "tie-break"))
                except InfeasibleClusterCount as exc:
                    assert not self.feasible(num_uavs, num_clusters), (num_uavs, num_clusters)
                    if not 1 <= num_clusters <= num_uavs:
                        assert str(exc) == \
                            f"cannot form {num_clusters} clusters from {num_uavs} UAVs"
                else:
                    assert self.feasible(num_uavs, num_clusters), (num_uavs, num_clusters)

    def test_scenario_config_raises_the_same_error(self):
        for num_uavs in range(1, 13):
            for num_clusters in [*range(-1, 1), *range(num_uavs + 1, 15)]:
                with pytest.raises(InfeasibleClusterCount) as raised:
                    ScenarioConfig(num_uavs, 4, 0.5, num_clusters)
                assert str(raised.value) == \
                    f"cannot form {num_clusters} clusters from {num_uavs} UAVs"

    @pytest.mark.parametrize("command", ["compare", "trace"])
    @pytest.mark.parametrize("count", ["0", "-1", "5"])
    def test_every_count_outside_the_fleet_exits_two(self, command, count, capsys):
        code = cli_main([command, "--uavs", "4", "--packets", "3", "--rho", "0.5",
                         "--clusters", count, "--runs", "3"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: infeasible scenario: cannot form {count} clusters from 4 UAVs\n"
        )

    def test_full_set_rate_warns_with_the_same_message(self, capsys):
        code = cli_main(["full-set-rate", "--uavs", "4", "--packets", "3", "--rho", "0.5",
                         "--clusters", "0,5", "--runs", "3"])
        assert code == 2
        assert capsys.readouterr().err == (
            "warning: skipping rho=0.5;N=0: cannot form 0 clusters from 4 UAVs\n"
            "warning: skipping rho=0.5;N=5: cannot form 5 clusters from 4 UAVs\n"
            "error: every requested cluster count was infeasible\n"
        )


class TestCli:
    def test_compare_writes_csv(self, capsys):
        code = cli_main([
            "compare", "--uavs", "6", "--packets", "4", "--rho", "0.7",
            "--clusters", "2", "--runs", "10", "--seed", "42",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("param,scheme")
        assert len(lines) == 4  # header + three schemes
        assert {line.split(",")[1] for line in lines[1:]} == {
            "proposed", "mechanism_only", "baseline_csma"
        }

    def test_byte_identical_reruns(self, capsys):
        argv = ["compare", "--uavs", "6", "--packets", "4", "--rho", "0.7",
                "--clusters", "2", "--runs", "8", "--seed", "5"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first

    def test_full_set_rate_range_and_trend(self, capsys):
        code = cli_main([
            "full-set-rate", "--uavs", "10", "--packets", "6", "--rho", "0.7",
            "--clusters", "1..8", "--runs", "60", "--seed", "11",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9
        rates = [float(line.split(",")[6]) for line in lines[1:]]
        # Non-increasing within a small statistical slack.
        assert all(b <= a + 0.06 for a, b in zip(rates, rates[1:]))

    def test_trace_fig1_matches_narrative(self, capsys):
        code = cli_main(["trace", "--fig1", "--seed", "42"])
        assert code == 0
        out = capsys.readouterr().out
        assert "uav=2 request [w1,w2,w4,w6]" in out
        assert "uav=3 reply [w1,w2,w4,w6] peer=2" in out
        assert "exchanges=2" in out
        assert "completed=True" in out

    def test_trace_regular_scenario(self, capsys):
        code = cli_main([
            "trace", "--uavs", "6", "--packets", "4", "--rho", "0.5",
            "--clusters", "2", "--scheme", "proposed", "--seed", "3",
        ])
        assert code == 0
        assert "# exchanges=" in capsys.readouterr().out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code = cli_main([
            "compare", "--uavs", "5", "--packets", "3", "--rho", "0.8",
            "--clusters", "1", "--runs", "5", "--out", str(target),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("param,scheme")

    @pytest.mark.parametrize("argv", [
        ["full-set-rate", "--uavs", "6", "--packets", "4", "--rho", "0.7", "--clusters", "2"],
        ["compare", "--uavs", "6", "--packets", "4", "--rho", "0.7", "--clusters", "2"],
        ["trace", "--uavs", "6", "--packets", "4", "--rho", "0.7", "--clusters", "2",
         "--scheme", "proposed"],
    ])
    def test_empty_out_exits_one_before_any_run(self, argv, monkeypatch, capsys):
        from uavex import cli

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        for name in ("sweep_full_set_rate", "compare_schemes", "run_scenario"):
            monkeypatch.setattr(cli, name, no_run)
        assert cli_main([*argv, "--out", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out takes a file path; got ''\n"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = {
            "num_uavs": 6, "num_packets": 4, "delivery_rate": 0.7,
            "seed": 13, "runs": 6, "cw_total_us": 5000,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        code = cli_main([
            "compare", "--config", str(path), "--clusters", "2", "--runs", "4",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.split(",")[8] == "4" for line in lines[1:])  # flag wins
        assert all(line.split(",")[9] == "13" for line in lines[1:])

    def test_usage_error_exits_one(self, capsys):
        assert cli_main(["compare", "--uavs", "6"]) == 1
        assert cli_main(["no-such-command"]) == 1
        assert cli_main(["trace", "--uavs", "6", "--packets", "4", "--rho", "0.7",
                         "--clusters", "2", "--scheme", ""]) == 1
        capsys.readouterr()

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = cli_main([
            "compare", "--config", str(path), "--clusters", "2",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_uavs": 4, "bogus": 1}))
        assert cli_main(["compare", "--config", str(path), "--clusters", "2"]) == 1
        capsys.readouterr()

    def test_infeasible_scenario_exits_two(self, capsys):
        code = cli_main([
            "compare", "--uavs", "4", "--packets", "3", "--rho", "0.5",
            "--clusters", "5", "--runs", "3",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: infeasible scenario: cannot form 5 clusters from 4 UAVs\n"
        )
        trace = ["trace", "--uavs", "5", "--packets", "3", "--rho", "0.5", "--scheme"]
        assert cli_main([*trace, "proposed", "--clusters", "6"]) == 2
        assert cli_main([*trace, "baseline_csma", "--clusters", "6"]) == 2
        assert cli_main([*trace, "proposed", "--clusters", "5"]) == 2  # odd 5 needs 6 seeds
        # The no-clustering schemes run one cluster, so an odd N = U needs no spare UAV.
        assert cli_main([*trace, "mechanism_only", "--clusters", "5"]) == 0
        capsys.readouterr()

    def test_tiny_window_exits_one_without_traceback(self, capsys):
        # 1 us subwindows used to let equal-stake colliders redraw the same
        # value forever, ending in an uncaught RuntimeError.
        code = cli_main([
            "compare", "--uavs", "6", "--packets", "4", "--rho", "0.5",
            "--clusters", "2", "--runs", "1", "--cw-total-us", "4",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "cw_total_us must be at least 8" in err
        assert "Traceback" not in err

    def test_window_beyond_int64_exits_one_naming_the_setting(self, capsys):
        # numpy's int64 draw used to refuse it mid-run with "high is out of bounds".
        args = ["compare", "--uavs", "4", "--packets", "2", "--rho", "0.5", "--runs", "3",
                "--clusters", "2", "--cw-total-us"]
        for window in (1 << 63, 1 << 70):
            assert cli_main([*args, str(window)]) == 1
            err = capsys.readouterr().err
            assert "cw_total_us must be below 2**63" in err
            assert "Traceback" not in err
        assert cli_main([*args, str((1 << 63) - 1)]) == 0
        assert capsys.readouterr().out.count("\n") == 4  # header and three schemes

    def test_out_help_names_what_each_command_writes(self, capsys):
        for command, output in (("compare", "CSV"), ("full-set-rate", "CSV"),
                                ("trace", "the trace text")):
            assert cli_main([command, "--help"]) == 0
            help_text = " ".join(capsys.readouterr().out.split())
            assert f"--out OUT write {output} here instead of stdout" in help_text

    @pytest.mark.parametrize("key, value", [
        ("delivery_rate", None), ("cw_total_us", [24]), ("num_uavs", 10.7), ("cw_total_us", 24.9),
    ])
    def test_config_value_of_wrong_type_exits_one(self, key, value, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"num_uavs": 10, "num_packets": 6, "delivery_rate": 0.7,
                                    key: value}))
        code = cli_main(["compare", "--config", str(path), "--clusters", "3", "--runs", "1"])
        assert code == 1
        assert f"setting {key} must be" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(key=st.sampled_from(list(CONFIG_KEYS)), value=NON_NUMBER_JSON)
    def test_config_values_of_every_json_type_exit_cleanly(self, key, value):
        # Strings carry no decimal digit, so none parses as a large run count.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.json"
            path.write_text(json.dumps({"num_uavs": 10, "num_packets": 6,
                                        "delivery_rate": 0.7, key: value}))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli_main(["compare", "--config", str(path), "--clusters", "3",
                                 "--runs", "1"])
        assert code in (0, 1, 2), err.getvalue()
        if not isinstance(value, str):
            assert code == 1
            assert f"setting {key} must be" in err.getvalue()

    @pytest.mark.parametrize("key, value, flags", [
        ("runs", "abc", ["--runs", "3"]),
        ("num_clusters", True, ["--clusters", "2"]),
    ])
    def test_config_value_of_wrong_type_exits_one_though_a_flag_wins(
        self, key, value, flags, tmp_path, capsys
    ):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"num_uavs": 10, "num_packets": 6, "delivery_rate": 0.7,
                                    "num_clusters": 3, "runs": 1, key: value}))
        assert cli_main(["compare", "--config", str(path), *flags]) == 1
        assert f"setting {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("clusters", ["3..1", "5..4", "", "a..3", "2,,3"])
    def test_empty_or_descending_cluster_range_names_the_flag(self, clusters, capsys):
        code = cli_main([
            "full-set-rate", "--uavs", "10", "--packets", "6", "--rho", "0.7",
            "--clusters", clusters, "--runs", "2",
        ])
        assert code == 1
        assert "--clusters" in capsys.readouterr().err

    @pytest.mark.parametrize("rhos, bad", [("0.5,abc", "abc"), ("0.5,", ""), ("x", "x"),
                                           ("", "")])
    def test_unparsable_rho_list_names_the_flag_and_item(self, rhos, bad, capsys):
        # --rho is given too: an empty --rhos must not fall back to it.
        code = cli_main([
            "full-set-rate", "--uavs", "10", "--packets", "6", "--rho", "0.5", "--rhos", rhos,
            "--clusters", "2", "--runs", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{rhos!r} is not a number" in err
        assert "--rhos" in err
        assert repr(bad) in err

    @pytest.mark.parametrize("schemes, bad", [("bogus", "bogus"),
                                              ("proposed,,baseline_csma", "")])
    def test_unknown_scheme_names_the_flag_item_and_choices(self, schemes, bad, capsys):
        code = cli_main([
            "compare", "--uavs", "6", "--packets", "4", "--rho", "0.7",
            "--clusters", "2", "--runs", "2", "--schemes", schemes,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--schemes" in err
        assert repr(bad) in err
        assert all(scheme.value in err for scheme in Scheme)

    SCENARIO_FLAGS = {
        "compare": ["--runs", "3"],
        "trace": ["--scheme", "proposed"],
        "full-set-rate": ["--runs", "3"],
    }

    def _run_with_config(self, command, tmp_path, capsys, extra=(), **config):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"num_uavs": 7, "num_packets": 4, "delivery_rate": 0.6,
                                    "seed": 5, **config}))
        code = cli_main([command, "--config", str(path), *self.SCENARIO_FLAGS[command], *extra])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("command", sorted(SCENARIO_FLAGS))
    def test_config_cluster_count_stands_in_for_the_flag(self, command, tmp_path, capsys):
        by_key = self._run_with_config(command, tmp_path, capsys, num_clusters=3)
        by_flag = self._run_with_config(command, tmp_path, capsys, extra=["--clusters", "3"])
        assert by_key == by_flag
        assert by_key[0] == 0 and by_key[1]
        if command != "trace":
            assert "N=3" in by_key[1]

    @pytest.mark.parametrize("command", sorted(SCENARIO_FLAGS))
    def test_cluster_flag_wins_over_the_config(self, command, tmp_path, capsys):
        both = self._run_with_config(command, tmp_path, capsys, extra=["--clusters", "2"],
                                     num_clusters=3)
        flag = self._run_with_config(command, tmp_path, capsys, extra=["--clusters", "2"])
        assert both == flag
        assert both[0] == 0

    @pytest.mark.parametrize("command", sorted(SCENARIO_FLAGS))
    def test_no_cluster_count_names_flag_and_key(self, command, tmp_path, capsys):
        code, _, err = self._run_with_config(command, tmp_path, capsys)
        assert code == 1
        assert "--clusters" in err and "num_clusters" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(SCENARIO_FLAGS))
    @pytest.mark.parametrize("value", ["three", None, True, [3], 2.5])
    def test_cluster_count_of_wrong_type_names_the_key(self, command, value, tmp_path, capsys):
        code, _, err = self._run_with_config(command, tmp_path, capsys, num_clusters=value)
        assert code == 1
        assert "setting num_clusters must be int" in err

    def test_python_dash_m_runs_the_cli(self):
        tests_dir = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(tests_dir.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "uavex", "trace", "--fig1"],
            capture_output=True, env=env, check=False,
        )
        assert proc.returncode == 0
        assert proc.stdout == (tests_dir / "golden" / "trace_fig1.txt").read_bytes()
        assert proc.stderr == b""

    def test_all_infeasible_sweep_exits_two(self, capsys):
        code = cli_main([
            "full-set-rate", "--uavs", "3", "--packets", "3", "--rho", "0.5",
            "--clusters", "3", "--runs", "3",
        ])
        assert code == 2
        capsys.readouterr()

    def test_counts_above_the_fleet_warn_and_the_rest_print(self, capsys):
        code = cli_main([
            "full-set-rate", "--uavs", "5", "--packets", "4", "--rho", "0.5",
            "--clusters", "1..6", "--runs", "2",
        ])
        out, err = capsys.readouterr()
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(row[0], row[8]) for row in rows] == [
            (f"rho=0.5;N={n}", "2") for n in range(1, 5)
        ] + [("rho=0.5;N=5", "0"), ("rho=0.5;N=6", "0")]
        assert err == (
            "warning: skipping rho=0.5;N=5: odd cluster count 5 needs 6 seed UAVs, got 5\n"
            "warning: skipping rho=0.5;N=6: cannot form 6 clusters from 5 UAVs\n"
        )

    def test_counts_all_above_the_fleet_exit_two(self, capsys):
        code = cli_main([
            "full-set-rate", "--uavs", "5", "--packets", "4", "--rho", "0.5",
            "--clusters", "6,7", "--runs", "2",
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.endswith("error: every requested cluster count was infeasible\n")

    def test_selftest_passes(self, capsys):
        assert cli_main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_selftest_failure_exits_one(self, capsys, monkeypatch):
        def planted(rng, fleets):
            raise AssertionError("fleet 0: planted")

        monkeypatch.setattr(selftest, "check_clustering", planted)
        assert cli_main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL: clustering invariants: fleet 0: planted"
        ]
        assert sum(line.startswith("PASS: ") for line in lines) == 4

    def test_selftest_negative_seed_exits_one_before_any_check(self, capsys, monkeypatch):
        def never(seed=0):
            raise AssertionError("no check may run")

        monkeypatch.setattr(selftest, "run_all", never)
        assert cli_main(["selftest", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed must be a non-negative integer, got -1\n"


class TestLeanImport:
    """``import uavex`` loads the library alone; the command line loads when a command runs."""

    ROOT = Path(__file__).resolve().parent.parent

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, check=False)

    def test_import_loads_neither_the_cli_nor_its_parsers(self):
        proc = self._python("-c", "import sys, uavex; print(sorted(m for m in "
                                  "('argparse', 'json', 'uavex.cli') if m in sys.modules))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_the_installed_script_target_answers_help(self):
        scripts = tomllib.loads((self.ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, attr = scripts["uavex"].split(":")
        # A console script calls its target with no arguments, so argv carries the flag.
        run_target = f"import sys, {module}; sys.exit({module}.{attr}())"
        proc = self._python("-c", run_target, "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: uavex")
        assert proc.stderr == ""


class TestSelftestClusterCounts:
    def test_counts_are_drawn_by_the_clustering_rule(self, monkeypatch):
        # The self check asks clustering which counts it can form; a stricter
        # rule must reach the drawn fleets without restating it in selftest.
        drawn = selftest.check_clustering(np.random.default_rng(0), 40)
        assert any(case.num_clusters == 2 for case in drawn)
        original = clustering._check_feasible

        def refuse_two(num_uavs, num_clusters):
            if num_clusters == 2:
                raise InfeasibleClusterCount("two clusters refused")
            original(num_uavs, num_clusters)

        monkeypatch.setattr(selftest, "_check_feasible", refuse_two)
        cases = selftest.check_clustering(np.random.default_rng(0), 40)
        assert len(cases) == 40
        assert all(case.num_clusters != 2 for case in cases)


class TestOversizedInputs:
    """Inputs too large to hold exit 1 with one error line, not a traceback.

    Each size exceeds a 47-bit user address space, so the allocation fails at
    once whatever the host's overcommit setting.
    """

    SCENARIO = ["--uavs", "10", "--packets", "6", "--rho", "0.7"]

    @pytest.mark.parametrize("clusters", [f"1..{10**30}", f"1..{10**18}"])
    def test_cluster_range_names_the_flag(self, clusters, capsys):
        code = cli_main(["full-set-rate", *self.SCENARIO, "--clusters", clusters, "--runs", "2"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: --clusters range {clusters!r} is too large to hold\n"

    def test_run_count_exits_one(self, capsys):
        code = cli_main(["compare", *self.SCENARIO, "--clusters", "3", "--runs", str(10**15)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
