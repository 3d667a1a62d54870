"""Demo and ``uavex selftest`` outputs, pinned byte for byte so a refactor keeps what they print."""

import runpy
from pathlib import Path

from uavex.experiments import cli_main

DEMOS = Path(__file__).resolve().parent.parent / "demos"

CLUSTERING_WALKTHROUGH = """\
pairwise Hamming distances:
  uav0 vs uav1: 2
  uav0 vs uav2: 3
  uav0 vs uav3: 3
  uav1 vs uav2: 3
  uav1 vs uav3: 3
  uav2 vs uav3: 6

seeds after pair extraction: [[0], [1]], pool: [2, 3]
after one merging round (pool now []):
  cluster 0: members [0, 2], combined holdings (1, 1, 1, 1, 1, 0)
  cluster 1: members [1, 3], combined holdings (1, 1, 1, 1, 1, 1)

final partition: ((0, 2), (1, 3))
full clusters: 1 of 2

10-UAV fleet at delivery rate 0.7, 3 clusters:
  cluster 0: (7, 1, 4, 6) -> complete
  cluster 1: (0, 3, 8) -> complete
  cluster 2: (2, 9, 5) -> complete
"""


def test_clustering_walkthrough_output(capsys):
    runpy.run_path(str(DEMOS / "01_clustering_walkthrough.py"), run_name="__main__")
    assert capsys.readouterr().out == CLUSTERING_WALKTHROUGH

PRIORITY_BACKOFF = """\
window 9207 us over 6 subwindows:
  6 relevant packets -> subwindow 1: (    0,  1534] us
  5 relevant packets -> subwindow 2: ( 1534,  3069] us
  4 relevant packets -> subwindow 3: ( 3069,  4603] us
  3 relevant packets -> subwindow 4: ( 4603,  6138] us
  2 relevant packets -> subwindow 5: ( 6138,  7672] us
  1 relevant packets -> subwindow 6: ( 7672,  9207] us

2000 draws per class, observed ranges:
  m=6: min     1, mean   778.2, max  1534
  m=3: min  4604, mean  5362.8, max  6138
  m=1: min  7673, mean  8431.1, max  9207
  plain: min     2, mean  4571.3, max  9200

priority is strict, not just statistical:
  worst draw with 4 lost packets:  4599 us
  best draw with 2 lost packets:   6139 us
"""

EXCHANGE_WALKTHROUGH = """\
initial holdings:
  uav0: w1,w2,w4
  uav1: w2,w3,w4,w5,w6
  uav2: w3,w5
  uav3: w1,w2,w3,w4,w6

event trace:
  t=    3933us cluster=0 uav=2 request [w1,w2,w4,w6]
  t=   16585us cluster=0 uav=3 reply [w1,w2,w4,w6] peer=2
  t=   16585us cluster=0 uav=1 done
  t=   16585us cluster=0 uav=2 done
  t=   23196us cluster=0 uav=0 request [w3,w5]
  t=   33623us cluster=0 uav=1 reply [w3,w5] peer=0
  t=   33623us cluster=0 uav=0 done
  t=   33623us cluster=0 uav=3 done

exchanges=2 delay=33623us completed=True collisions=0
"""

SELFTEST = """\
PASS: indicator-vector algebra
PASS: subwindow tiling
PASS: backoff priority ordering
PASS: clustering invariants
PASS: exchange invariants
"""


def test_priority_backoff_output(capsys):
    runpy.run_path(str(DEMOS / "02_priority_backoff.py"), run_name="__main__")
    assert capsys.readouterr().out == PRIORITY_BACKOFF


def test_exchange_walkthrough_output(capsys):
    runpy.run_path(str(DEMOS / "03_exchange_walkthrough.py"), run_name="__main__")
    assert capsys.readouterr().out == EXCHANGE_WALKTHROUGH


def test_selftest_output(capsys):
    assert cli_main(["selftest"]) == 0
    assert capsys.readouterr().out == SELFTEST
