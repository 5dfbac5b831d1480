"""Tests for the comparator engines (SI, greedy) and the exact oracle.

The comparators of the §5 tables are registered engines (``si``,
``greedy``).  The exhaustive explorer below is a test-only optimality
oracle (Pozzi-style [4]): it refuses DFGs with more than
``MAX_EXACT_NODES`` groupable operations, so it can never race.
"""

from itertools import combinations

import pytest

from repro import engines
from repro.config import ExplorationParams
from repro.core.candidate import ISECandidate
from repro.engines.aco import AcoEngine
from repro.engines.base import ExplorationResult, ExplorerEngine
from repro.errors import ExplorationError
from repro.graph import check_candidate
from repro.graph.analysis import is_legal
from repro.sched import MachineConfig

from conftest import chain_dfg, diamond_dfg, memory_dfg


TINY = dict(max_iterations=60, restarts=1, max_rounds=4)

#: Refuse DFGs larger than this (2^N subsets).
MAX_EXACT_NODES = 16


class ExactExplorer(ExplorerEngine):
    """Optimal (per-round) explorer for tiny DFGs.

    Enumerates every connected, legal (convex, port-bounded,
    memory-free) subset of groupable operations, realises each with the
    fastest hardware options, and — round-wise, like the engines —
    fixes the subset whose contraction minimises the block's list
    schedule.
    """

    max_nodes = MAX_EXACT_NODES

    def explore(self, dfg, io_tables=None, jobs=None):
        """Exhaustive per-round optimum; returns an ExplorationResult."""
        groupable = dfg.groupable_nodes()
        if len(groupable) > self.max_nodes:
            raise ExplorationError(
                "exact exploration limited to {} groupable nodes, got {}"
                .format(self.max_nodes, len(groupable)))
        base = self._evaluate(dfg, [])
        candidates = []
        best_cycles = base
        rounds = 0
        while rounds < 8:
            rounds += 1
            taken = set().union(*(c.members for c in candidates))
            best = None
            for members in self._legal_subsets(dfg, taken):
                candidate = ISECandidate(
                    dfg, members, self._min_delay_options(dfg, members),
                    self.technology, source="EXACT")
                cycles = self._evaluate(dfg, candidates + [candidate])
                key = (cycles, candidate.area)
                if best is None or key < best[0]:
                    best = (key, candidate)
            if best is None or best[0][0] >= best_cycles:
                break
            candidate = best[1]
            candidate.cycle_saving = best_cycles - best[0][0]
            candidates.append(candidate)
            best_cycles = best[0][0]
        return ExplorationResult(dfg, candidates, base, best_cycles,
                                 rounds, rounds)

    def _legal_subsets(self, dfg, taken):
        pool = [uid for uid in dfg.groupable_nodes() if uid not in taken]
        for size in range(2, len(pool) + 1):
            for subset in combinations(pool, size):
                members = set(subset)
                if _connected(dfg, members) and \
                        is_legal(dfg, members, self.constraints):
                    yield members


def _connected(dfg, members):
    seen = {next(iter(members))}
    frontier = list(seen)
    while frontier:
        node = frontier.pop()
        for other in list(dfg.predecessors(node)) + list(dfg.successors(node)):
            if other in members and other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen == members


def _greedy(machine):
    return engines.create("greedy", machine)


class TestSingleIssue:
    def test_believes_single_issue(self):
        explorer = engines.create("si", MachineConfig(4, "10/5"))
        assert explorer.machine.issue_width == 1
        assert explorer.machine.register_file.spec == "10/5"

    def test_locality_disabled(self):
        explorer = engines.create(
            "si", MachineConfig(2, "4/2"), params=ExplorationParams(**TINY))
        params = explorer.params
        assert not params.use_critical_path_boost
        assert not params.use_slack_window

    def test_finds_legal_candidates(self):
        dfg = diamond_dfg()
        explorer = engines.create(
            "si", MachineConfig(2, "4/2"), params=ExplorationParams(**TINY),
            seed=2)
        result = explorer.explore(dfg)
        for candidate in result.candidates:
            assert candidate.source == "SI"
            check_candidate(dfg, candidate.members, explorer.constraints)

    def test_base_cycles_are_sequential(self):
        dfg = diamond_dfg()
        explorer = engines.create(
            "si", MachineConfig(2, "4/2"), params=ExplorationParams(**TINY))
        result = explorer.explore(dfg)
        # On a 1-issue machine the baseline is one op per cycle.
        assert result.base_cycles == len(dfg)


class TestGreedy:
    def test_compresses_chain(self):
        dfg = chain_dfg(6)
        explorer = _greedy(MachineConfig(2, "4/2"))
        result = explorer.explore(dfg)
        assert result.final_cycles < result.base_cycles
        assert all(c.source == "GREEDY" for c in result.candidates)

    def test_deterministic(self):
        dfg = diamond_dfg()
        a = _greedy(MachineConfig(2, "4/2")).explore(dfg)
        b = _greedy(MachineConfig(2, "4/2")).explore(dfg)
        assert [c.members for c in a.candidates] == \
            [c.members for c in b.candidates]

    def test_candidates_legal(self):
        dfg = diamond_dfg()
        explorer = _greedy(MachineConfig(2, "4/2"))
        result = explorer.explore(dfg)
        for candidate in result.candidates:
            check_candidate(dfg, candidate.members, explorer.constraints)

    def test_respects_memory_rule(self):
        dfg = memory_dfg()
        result = _greedy(MachineConfig(2, "4/2")).explore(dfg)
        for candidate in result.candidates:
            assert all(not dfg.op(uid).is_memory
                       for uid in candidate.members)

    def test_max_size_cap(self):
        dfg = chain_dfg(8)
        explorer = _greedy(MachineConfig(2, "4/2"))
        explorer.max_size = 3
        result = explorer.explore(dfg)
        assert result.candidates
        assert all(c.size <= 3 for c in result.candidates)


class TestExact:
    def test_size_guard(self):
        dfg = chain_dfg(8)
        explorer = ExactExplorer(MachineConfig(2, "4/2"))
        explorer.max_nodes = 4
        with pytest.raises(ExplorationError):
            explorer.explore(dfg)

    def test_optimal_on_chain(self):
        dfg = chain_dfg(5)
        exact = ExactExplorer(MachineConfig(2, "4/2")).explore(dfg)
        assert exact.final_cycles < exact.base_cycles
        for candidate in exact.candidates:
            assert candidate.source == "EXACT"

    def test_dominates_greedy(self):
        for dfg in (chain_dfg(5), diamond_dfg()):
            machine = MachineConfig(2, "4/2")
            exact = ExactExplorer(machine).explore(dfg)
            greedy = _greedy(machine).explore(dfg)
            assert exact.final_cycles <= greedy.final_cycles

    def test_aco_close_to_exact(self):
        dfg = diamond_dfg()
        machine = MachineConfig(2, "4/2")
        exact = ExactExplorer(machine).explore(dfg)
        aco = AcoEngine(
            machine, params=ExplorationParams(
                max_iterations=150, restarts=3, max_rounds=4),
            seed=4).explore(dfg)
        # The heuristic may trail the oracle by at most one cycle on
        # this 9-node example.
        assert aco.final_cycles <= exact.final_cycles + 1
