"""Byte-for-byte checks of CLI outputs against the files in tests/golden/.

Each golden file is the output of ``uavex <argv> --out tests/golden/<name>``
taken once from a known-good build (CHANGES.md names the commit). They pin
the random-stream order, the clustering tie-breaks and the trace format, so a
refactor that changes any of them fails here. Do not regenerate them to make
a change pass; a change that means to alter the output says so and why.
"""

from pathlib import Path

import pytest

from uavex.experiments import cli_main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

REF10 = ["--uavs", "10", "--packets", "6", "--rho", "0.7", "--clusters", "3"]
REF20 = ["--uavs", "20", "--packets", "10", "--rho", "0.6", "--clusters", "6"]

GOLDEN = {
    "trace_fig1.txt": ["trace", "--fig1"],
    "trace_ref10_proposed.txt": ["trace", *REF10, "--scheme", "proposed",
                                 "--seed", "0", "--run-index", "0"],
    "trace_ref10_mechanism_only.txt": ["trace", *REF10, "--scheme", "mechanism_only",
                                       "--seed", "0", "--run-index", "0"],
    "trace_ref10_baseline_csma.txt": ["trace", *REF10, "--scheme", "baseline_csma",
                                      "--seed", "0", "--run-index", "0"],
    "trace_contended_mechanism_only.txt": ["trace", *REF10, "--cw-total-us", "24",
                                           "--scheme", "mechanism_only",
                                           "--seed", "0", "--run-index", "0"],
    "trace_contended_baseline_csma.txt": ["trace", *REF10, "--cw-total-us", "24",
                                          "--scheme", "baseline_csma",
                                          "--seed", "0", "--run-index", "17"],
    "trace_ref10_proposed_timeout.txt": ["trace", *REF10, "--scheme", "proposed",
                                         "--seed", "0", "--run-index", "106"],
    "compare_ref10.csv": ["compare", *REF10, "--runs", "20"],
    "compare_ref20.csv": ["compare", *REF20, "--runs", "20"],
    # At the widest window the model accepts, subwindows of about W/6 take
    # the 32-bit step, and plain CSMA's span of exactly 2**32 draws each
    # backoff as a bare 32-bit half.
    "compare_window_2_32.csv": ["compare", *REF10, "--runs", "20",
                                "--cw-total-us", str(1 << 32)],
    "full_set_rate_ref20.csv": ["full-set-rate", "--uavs", "20", "--packets", "10",
                                "--rho", "0.6", "--clusters", "1..10", "--runs", "20"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli_main([*GOLDEN[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
