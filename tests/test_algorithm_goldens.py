"""Pinned exploration digests of the §5 comparator algorithms.

:class:`~repro.eval.runner.EvalContext` explores each chapter-5 cell
with the registered engine of its algorithm (``MI`` → ``aco``, ``SI`` →
``si``, ``GREEDY`` → ``greedy``).  The digests below pin every cell's
explored bundle — hot blocks, candidate members, chosen options, block
and weighted savings, source tags and areas — at the quick profile and
seed 7, so a change to any comparator's results fails here rather than
silently moving the figures.  They were recorded with the comparators'
earlier stand-alone implementations and must never be regenerated to
make a refactor pass.
"""

import hashlib

import pytest

from repro.eval.persistence import ExplorationCache
from repro.eval.runner import EvalContext
from repro.sched.machine import MachineConfig

WORKLOADS = ("crc32", "adpcm", "bitcount", "dijkstra")
MACHINES = ((2, "4/2"), (4, "8/4"))

#: ``algorithm:workload:issue:ports`` → explore digest at O3.
_EXPLORE_DIGESTS = {
    "MI:crc32:2:4/2":
        "f0c4d0512edbe9b29d320441c7bc47c514ab6a734931af4c83b869245fc672da",
    "MI:crc32:4:8/4":
        "3c328a8f82776e806e770610b51c81375a12fdd4861b76991b6f3db0f153e56e",
    "MI:adpcm:2:4/2":
        "d3f61f7dd8467ab05bff0771ceaa2a19e859130618dce1ff15b823a2f903bfd6",
    "MI:adpcm:4:8/4":
        "4bb4980d257ffd5607eb20c877fba7ce22f155f1c1a9241f4856e91a034a3733",
    "MI:bitcount:2:4/2":
        "47362b0ec18e0b21921f4e54b15ba7e6bf653fc78e9bad4775948b7161c6ae0d",
    "MI:bitcount:4:8/4":
        "f4867ae480f42cc148cc1aa08c7bb09c2eaa2ddf85f47d9fcf4cc99c81aad507",
    "MI:dijkstra:2:4/2":
        "ffb83428258e670fe951a7bf89b4ed464ae82e7f0d826dbaa6f6852c2358429c",
    "MI:dijkstra:4:8/4":
        "10a087ea66f15e692c0c284caa9f135370de8a605d18e4b889d9573686f304c9",
    "SI:crc32:2:4/2":
        "10323fed6c605b2a54307e4a691c3e18ab5a47e1c2bada98f241db7057cddfe8",
    "SI:crc32:4:8/4":
        "10323fed6c605b2a54307e4a691c3e18ab5a47e1c2bada98f241db7057cddfe8",
    "SI:adpcm:2:4/2":
        "cf1b5a3db6bdc88c6e3078352a84394dc3805e8e3a9b8d9068d8fb61f3d55a69",
    "SI:adpcm:4:8/4":
        "37a739e68207a77fe996073809a288d689aa485b22e033d7d65df6bcc2a50897",
    "SI:bitcount:2:4/2":
        "d2e61ac6e95fc1ebe21d127e523eace5ab0c85c68eb72adc04b6507aab56882e",
    "SI:bitcount:4:8/4":
        "90d24ba6abecd38d4c87d14458f9661cbd392b13e7a855808cdace6819b8ed52",
    "SI:dijkstra:2:4/2":
        "ab75021a45409fa20b2f83144e719e2aa86f2f9b8378a48433d567d2b510fe9e",
    "SI:dijkstra:4:8/4":
        "417fabff190b86ad2b387c959f133900e6f86e5ef30012c9205da7e802502a1d",
    "GREEDY:crc32:2:4/2":
        "961de471e988912c22a1d07824c207dbea19db86b119423f7ef4185f61539d46",
    "GREEDY:crc32:4:8/4":
        "643cf91e6a9c78492af8db320aaabbc1936dc8d6041fe6180f4c2dd3b4bc0490",
    "GREEDY:adpcm:2:4/2":
        "4efba4513eb6543610639dbbb9b8da05617503f76f86d40f492f9d39bdc5ffa8",
    "GREEDY:adpcm:4:8/4":
        "8675dc0ee2415df0c6fce6b93eb9c2a2cad9121f8ce6264c4465fc032cd0b468",
    "GREEDY:bitcount:2:4/2":
        "fd3fd5d7aae127b4663b95ecef8ff347bc79b1149573be93dd3a75beccb463f2",
    "GREEDY:bitcount:4:8/4":
        "3c4dc9679e867f0e013297961fb6174b5850e069b0bbef1b41b12068bcd287a0",
    "GREEDY:dijkstra:2:4/2":
        "155cd6c53f03ca7d8424abdd2575bd082d1c2da1f9695dc688eb619b16527368",
    "GREEDY:dijkstra:4:8/4":
        "8fbaff1235f11f26f7385d9fcf86fddfd1c3aa43d314bd49a498831a28fd39a1",
}


def _explore_digest(explored):
    rows = [explored.program.name, explored.baseline_cycles,
            [list(label) for label in explored.explored_labels]]
    for candidate in explored.candidates:
        members = sorted(candidate.members)
        rows.append([candidate.dfg.function, candidate.dfg.label, members,
                     [candidate.option_of[uid].label for uid in members],
                     candidate.cycle_saving, candidate.weighted_saving,
                     candidate.source, repr(candidate.area)])
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def context():
    with EvalContext(profile="quick", seed=7, jobs=1,
                     workload_names=list(WORKLOADS),
                     disk_cache=ExplorationCache(enabled=False)) as ctx:
        yield ctx


@pytest.mark.parametrize("algorithm", ["MI", "SI", "GREEDY"])
def test_explore_digests_pinned(context, algorithm):
    for workload in WORKLOADS:
        for issue, ports in MACHINES:
            __, explored = context.explored(
                workload, MachineConfig(issue, ports), "O3", algorithm)
            key = "{}:{}:{}:{}".format(algorithm, workload, issue, ports)
            assert _explore_digest(explored) == _EXPLORE_DIGESTS[key], key
