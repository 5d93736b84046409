"""Golden simulated cycles: every Table-4 system on one partitioned scenario.

DL at ``tiny`` partitions the graph even at one resident version (2
partitions for the JetStream baseline, 3 for Work-Sharing's waves, 18
for Direct-Hop and BOE), so these reports exercise the partition
cross-fraction as well as the DRAM, cache and scheduler models.  Every
value is pinned exactly: a change to the simulators that moves a single
cycle, a partition count or an edge fetch must be deliberate and update
this table.
"""

import pytest

from repro.accel import JetStreamSimulator, MegaSimulator
from repro.algorithms import get_algorithm
from repro.workloads import load_scenario

SYSTEMS = {
    "jetstream": JetStreamSimulator(),
    "direct-hop": MegaSimulator("direct-hop"),
    "work-sharing": MegaSimulator("work-sharing"),
    "boe": MegaSimulator("boe"),
    "boe+bp": MegaSimulator("boe", pipeline=True),
}

#: (system, algorithm) -> (cycles, n_partitions, counters.edges_fetched)
GOLDEN = {
    ("jetstream", "BFS"): (17636.693169550173, 2, 34785),
    ("direct-hop", "BFS"): (27903.36479065743, 18, 27188),
    ("work-sharing", "BFS"): (13638.815186851194, 3, 13486),
    ("boe", "BFS"): (12312.811342560553, 18, 10805),
    ("boe+bp", "BFS"): (11353.39957785467, 18, 10805),
    ("jetstream", "SSSP"): (25307.93903114187, 2, 64510),
    ("direct-hop", "SSSP"): (33886.95916349481, 18, 60130),
    ("work-sharing", "SSSP"): (17033.175195501728, 3, 27618),
    ("boe", "SSSP"): (14216.87814013841, 18, 21552),
    ("boe+bp", "SSSP"): (13061.231081314882, 18, 21552),
    ("jetstream", "SSWP"): (32250.754716262967, 2, 113286),
    ("direct-hop", "SSWP"): (33578.95155709347, 18, 67361),
    ("work-sharing", "SSWP"): (17034.858429065735, 3, 45200),
    ("boe", "SSWP"): (15180.805570934257, 18, 41828),
    ("boe+bp", "SSWP"): (13981.982041522493, 18, 41828),
    ("jetstream", "SSNP"): (28954.005948096896, 2, 82198),
    ("direct-hop", "SSNP"): (35416.80072491351, 18, 62713),
    ("work-sharing", "SSNP"): (17442.770416955012, 3, 36453),
    ("boe", "SSNP"): (14860.094998269893, 18, 31596),
    ("boe+bp", "SSNP"): (13657.506762975781, 18, 31596),
    ("jetstream", "Viterbi"): (25913.583827854665, 2, 69246),
    ("direct-hop", "Viterbi"): (34407.979371107285, 18, 59928),
    ("work-sharing", "Viterbi"): (16941.284338235288, 3, 29276),
    ("boe", "Viterbi"): (14179.136881487892, 18, 23560),
    ("boe+bp", "Viterbi"): (13151.787984429071, 18, 23560),
}


@pytest.fixture(scope="module")
def dl_tiny():
    return load_scenario("DL", "tiny", seed=0)


@pytest.mark.parametrize("system, algo", sorted(GOLDEN))
def test_golden_cycles(dl_tiny, system, algo):
    report = SYSTEMS[system].run(dl_tiny, get_algorithm(algo))
    got = (report.cycles, report.n_partitions, report.counters.edges_fetched)
    assert got == GOLDEN[(system, algo)]
