"""Sweep mechanics, CSV output, matched sampling, and the command line."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uavex import core, experiments, selftest, simulator
from uavex.core import ScenarioConfig, Scheme, stream
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


CONFIG_KEYS = ("num_uavs", "num_packets", "delivery_rate", "num_clusters", "scheme", "seed",
               "runs", "difs_us", "cw_total_us", "preamble_us", "payload_us_per_packet")

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
            "warning: skipping rho=0.5;N=10: num_clusters must lie in [1, num_uavs]\n"
            "warning: skipping rho=0.5;N=11: num_clusters must lie in [1, num_uavs]\n"
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
    @given(key=st.sampled_from(CONFIG_KEYS), value=NON_NUMBER_JSON)
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

    @pytest.mark.parametrize("rhos, bad", [("0.5,abc", "abc"), ("0.5,", ""), ("x", "x")])
    def test_unparsable_rho_list_names_the_flag_and_item(self, rhos, bad, capsys):
        code = cli_main([
            "full-set-rate", "--uavs", "10", "--packets", "6", "--rhos", rhos,
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
            "warning: skipping rho=0.5;N=6: num_clusters must lie in [1, num_uavs]\n"
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
