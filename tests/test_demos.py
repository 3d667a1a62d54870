"""Demo outputs pinned byte for byte, so a refactor that touches a demo keeps what it prints."""

import runpy
from pathlib import Path

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
