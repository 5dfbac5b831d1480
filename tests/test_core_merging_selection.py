"""Tests for ISE merging, greedy selection and hardware sharing."""

import copy

import pytest

from repro.config import ISEConstraints
from repro.core.candidate import ISECandidate
from repro.core.merging import merge_candidates
from repro.core.selection import select_ises, shared_area
from repro.hwlib import DEFAULT_DATABASE, DEFAULT_TECHNOLOGY
from repro.hwlib.options import HardwareOption

from conftest import chain_dfg, dfg_from_block


def candidate_for(dfg, members, fastest=True, saving=1.0):
    option_of = {}
    for uid in members:
        options = DEFAULT_DATABASE.hardware_options(dfg.op(uid).name)
        key = (lambda o: o.delay_ns) if fastest else (lambda o: -o.delay_ns)
        option_of[uid] = min(options, key=key)
    candidate = ISECandidate(dfg, members, option_of, DEFAULT_TECHNOLOGY)
    candidate.weighted_saving = saving
    return candidate


def repeated_pattern_dfg():
    """Two identical addu->xor chains plus a bigger addu->xor->or."""

    def body(b):
        x1 = b.addu("a", "b")
        y1 = b.xor(x1, "c")
        x2 = b.addu("c", "d")
        y2 = b.xor(x2, "a")
        z = b.or_(y1, y2)
        return z

    return dfg_from_block(body)


class TestMerging:
    def test_identical_patterns_merge(self):
        dfg = repeated_pattern_dfg()
        c1 = candidate_for(dfg, {0, 1})
        c2 = candidate_for(dfg, {2, 3})
        merged = merge_candidates([c1, c2])
        assert len(merged) == 1
        assert len(merged[0].absorbed) == 1

    def test_subgraph_merges_into_host(self):
        dfg = repeated_pattern_dfg()
        big = candidate_for(dfg, {2, 3, 4})        # addu->xor->or
        small = candidate_for(dfg, {0, 1})         # addu->xor
        merged = merge_candidates([big, small])
        assert len(merged) == 1
        assert merged[0].representative is big

    def test_same_pattern_prefers_faster_representative(self):
        # Identical patterns always merge; the larger-area (faster)
        # implementation becomes the representative, so no site slows.
        def body(b):
            x1 = b.addu("a", "b")
            y1 = b.xor(x1, "c")
            x2 = b.addu("c", "d")
            y2 = b.xor(x2, "a")
            return b.or_(y1, y2)
        dfg = dfg_from_block(body)
        slow = candidate_for(dfg, {0, 1}, fastest=False)
        fast = candidate_for(dfg, {2, 3}, fastest=True)
        merged = merge_candidates([slow, fast])
        assert len(merged) == 1
        assert merged[0].representative is fast

    def test_cycle_condition_blocks_merge(self):
        # Host: a 4-op slow chain whose matched addu->xor->or subgraph
        # takes 2 cycles (10.06 ns); candidate: the fast 3-op version
        # (8.14 ns, 1 cycle).  Absorbing the candidate would slow its
        # replacement sites down, so the merge must be blocked.
        def body(b):
            x1 = b.addu("a", "b")
            y1 = b.xor(x1, "c")
            z1 = b.or_(y1, "d")
            w1 = b.and_(z1, "a")
            x2 = b.addu("c", "d")
            y2 = b.xor(x2, "a")
            z2 = b.or_(y2, "b")
            return b.subu(w1, z2)
        dfg = dfg_from_block(body)
        host = candidate_for(dfg, {0, 1, 2, 3}, fastest=False)
        fast = candidate_for(dfg, {4, 5, 6}, fastest=True)
        assert fast.cycles == 1
        merged = merge_candidates([host, fast])
        assert len(merged) == 2

    def test_multi_asfu_disables_merging(self):
        dfg = repeated_pattern_dfg()
        c1 = candidate_for(dfg, {0, 1})
        c2 = candidate_for(dfg, {2, 3})
        merged = merge_candidates([c1, c2], single_asfu=False)
        assert len(merged) == 2

    def test_weighted_saving_accumulates(self):
        dfg = repeated_pattern_dfg()
        c1 = candidate_for(dfg, {0, 1}, saving=5.0)
        c2 = candidate_for(dfg, {2, 3}, saving=3.0)
        merged = merge_candidates([c1, c2])
        assert merged[0].weighted_saving == 8.0


class TestSharedArea:
    def test_sharing_counts_peak_instances(self):
        dfg = repeated_pattern_dfg()
        c1 = candidate_for(dfg, {0, 1})
        c2 = candidate_for(dfg, {2, 3})
        merged = merge_candidates([c1], single_asfu=True) \
            + merge_candidates([c2], single_asfu=True)
        shared = shared_area(merged, enable_sharing=True)
        unshared = shared_area(merged, enable_sharing=False)
        assert shared == pytest.approx(c1.area)
        assert unshared == pytest.approx(c1.area + c2.area)

    def test_different_opcodes_not_shared(self):
        dfg = chain_dfg(2, op="addu")
        dfg2 = chain_dfg(2, op="xor")
        c1 = candidate_for(dfg, {0, 1})
        c2 = candidate_for(dfg2, {0, 1})
        merged = merge_candidates([c1], True) + merge_candidates([c2], True)
        shared = shared_area(merged)
        assert shared == pytest.approx(c1.area + c2.area)

    def test_sum_ignores_member_iteration_order(self):
        """A candidate pickled back from a pool worker may walk its
        members in another order; the area must not move by a bit."""
        dfg = repeated_pattern_dfg()
        areas = {"addu": 0.1, "xor": 0.2, "or": 0.3}
        members = (2, 3, 4)                      # addu -> xor -> or
        option_of = {uid: HardwareOption("HW-t", 1.0,
                                         areas[dfg.op(uid).name])
                     for uid in members}
        forward = ISECandidate(dfg, members, option_of, DEFAULT_TECHNOLOGY)
        backward = copy.copy(forward)
        forward.members = members
        backward.members = members[::-1]
        assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1  # order matters
        walks = [shared_area(merge_candidates([c], single_asfu=True))
                 for c in (forward, backward)]
        assert walks == [0.6, 0.6]


class TestSelection:
    def _three_candidates(self):
        dfg = repeated_pattern_dfg()
        good = candidate_for(dfg, {2, 3, 4}, saving=100.0)
        medium = candidate_for(dfg, {0, 1}, saving=50.0)
        useless = candidate_for(dfg, {0, 1}, saving=0.0)
        return [merge_candidates([c], single_asfu=False)[0]
                for c in (good, medium, useless)]

    def test_rank_by_saving(self):
        merged = self._three_candidates()
        result = select_ises(merged, ISEConstraints())
        assert result.selected[0].weighted_saving == 100.0

    def test_zero_saving_skipped(self):
        merged = self._three_candidates()
        result = select_ises(merged, ISEConstraints())
        assert all(m.weighted_saving > 0 for m in result.selected)

    def test_count_budget(self):
        merged = self._three_candidates()
        result = select_ises(merged, ISEConstraints(max_ises=1))
        assert result.count == 1

    def test_area_budget(self):
        merged = self._three_candidates()
        tiny = min(m.area for m in merged[:2])
        result = select_ises(
            merged, ISEConstraints(max_area=tiny),
            enable_sharing=False)
        assert result.area <= tiny

    def test_zero_area_budget_selects_nothing(self):
        merged = self._three_candidates()
        result = select_ises(merged, ISEConstraints(max_area=0))
        assert result.count == 0
        assert result.area == 0


def test_selection_area_is_identical_serial_and_pooled(monkeypatch):
    """Regression: candidates explored on the pool used to sum their
    shared area in another order than serial ones (crc32, 2-issue 4/2,
    seed 566926602, 160000 um2: 12302.83 vs 12302.829999999998)."""
    from repro import api
    from repro.core import parallel

    monkeypatch.setattr(parallel, "_available_cpus", lambda: 2)
    areas = []
    for jobs in (1, 2):
        explored = api.explore("crc32", issue=2, ports="4/2",
                               seed=566926602, jobs=jobs)
        areas.append(api.evaluate(explored, max_area=160_000.0).area)
    assert areas[0] == areas[1] == 12302.83
