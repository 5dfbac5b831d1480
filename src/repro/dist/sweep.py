"""Deterministic sharded design-space sweeps.

A sweep is the ByoRISC-scale batch workload: every (workload × machine)
cell explored once, then evaluated at every area budget.  Exploration
of a cell is a pure function of ``(workload, machine, opt, effort,
seed, engine)``, so the grid can be partitioned across hosts by
*content fingerprint* — each cell hashes to exactly one shard, every
shard computes only its own cells, and the merged result is
bit-identical to a serial sweep by construction (cells are independent
and the merge re-imposes canonical grid order).

The dispatcher deliberately shards at cell granularity rather than
(block, restart): cells are the unit whose results serialise cleanly
(frozen rows), and *within* a shard each exploration still fans its
(block, restart) grid over the host's persistent warm worker pool.

:func:`run_sweep` executes one shard (or the whole grid), returning a
:class:`SweepResult` whose JSON payload round-trips exactly —
``repro sweep --shard i/n --out part.json`` on n hosts followed by
``repro sweep --merge`` reproduces the serial result digest.
"""

import hashlib
from dataclasses import dataclass

from ..errors import ReproError
from ..obs import ensure_observer
from ..sched.machine import PAPER_CASES

#: Default area budgets of the example sweep (µm²).
DEFAULT_BUDGETS = (20_000, 80_000, 320_000)

#: Schema tag of the JSON payload (bump on layout changes).
PAYLOAD_SCHEMA = 1


@dataclass(frozen=True)
class SweepRow:
    """One (workload, machine, budget) outcome of a sweep."""

    workload: str
    ports: str
    issue: int
    budget: float
    baseline_cycles: int
    final_cycles: int
    reduction: float
    num_ises: int
    area: float

    @property
    def cell(self):
        """The exploration cell this row belongs to."""
        return (self.workload, self.ports, self.issue)

    def to_payload(self):
        """JSON-able dict of every field, floats preserved exactly."""
        return {
            "workload": self.workload, "ports": self.ports,
            "issue": self.issue, "budget": self.budget,
            "baseline_cycles": self.baseline_cycles,
            "final_cycles": self.final_cycles,
            "reduction": self.reduction, "num_ises": self.num_ises,
            "area": self.area,
        }

    @classmethod
    def from_payload(cls, record):
        """Rebuild a row from its :meth:`to_payload` dict."""
        return cls(**{name: record[name] for name in (
            "workload", "ports", "issue", "budget", "baseline_cycles",
            "final_cycles", "reduction", "num_ises", "area")})


@dataclass(frozen=True)
class SweepResult:
    """Frozen outcome of one sweep shard (or a full/merged sweep)."""

    workloads: tuple
    machines: tuple            # ((ports, issue), ...) in grid order
    budgets: tuple
    opt: str
    profile: str
    seed: int
    engine: str
    shard_index: int           # None for a full or merged sweep
    shard_count: int
    rows: tuple                # SweepRow, in canonical grid order

    @property
    def digest(self):
        """Content digest of the rows; sharded == serial iff equal."""
        return sweep_digest(self.rows)

    @property
    def cells(self):
        """Exploration cells covered by this result's rows."""
        return tuple(dict.fromkeys(row.cell for row in self.rows))

    def to_payload(self):
        """JSON-able form whose floats round-trip bit-exactly."""
        return {
            "_schema": PAYLOAD_SCHEMA,
            "workloads": list(self.workloads),
            "machines": [[ports, issue] for ports, issue in self.machines],
            "budgets": list(self.budgets),
            "opt": self.opt, "profile": self.profile, "seed": self.seed,
            "engine": self.engine,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "digest": self.digest,
            "rows": [row.to_payload() for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuild a result, validating schema and digest."""
        if payload.get("_schema") != PAYLOAD_SCHEMA:
            raise ReproError(
                "unsupported sweep payload schema {!r}".format(
                    payload.get("_schema")))
        result = cls(
            workloads=tuple(payload["workloads"]),
            machines=tuple((ports, issue)
                           for ports, issue in payload["machines"]),
            budgets=tuple(payload["budgets"]),
            opt=payload["opt"], profile=payload["profile"],
            seed=payload["seed"], engine=payload["engine"],
            shard_index=payload["shard_index"],
            shard_count=payload["shard_count"],
            rows=tuple(SweepRow.from_payload(r) for r in payload["rows"]))
        if payload.get("digest") and payload["digest"] != result.digest:
            raise ReproError(
                "sweep payload digest mismatch (corrupt or edited file)")
        return result

    def _spec(self):
        return (self.workloads, self.machines, self.budgets, self.opt,
                self.profile, self.seed, self.engine)


def sweep_digest(rows):
    """SHA-256 over the exact row contents, in order."""
    text = repr([(row.workload, row.ports, row.issue, row.budget,
                  row.baseline_cycles, row.final_cycles, row.reduction,
                  row.num_ises, row.area) for row in rows])
    return hashlib.sha256(text.encode()).hexdigest()


def cell_grid(workloads, machines):
    """Canonical cell order: machines outer, workloads inner."""
    return tuple((workload, ports, issue)
                 for ports, issue in machines
                 for workload in workloads)


def cell_fingerprint(cell, opt, profile, seed, engine):
    """Stable content fingerprint of one exploration cell."""
    workload, ports, issue = cell
    text = "{}|{}|{}|{}|{}|{}|{}".format(
        workload, ports, issue, opt, profile, seed, engine)
    return hashlib.sha256(text.encode()).hexdigest()


def shard_of(fingerprint, shard_count):
    """The shard a fingerprint lands on (uniform, deterministic)."""
    return int(fingerprint[:16], 16) % shard_count


def parse_shard(text):
    """``"i/n"`` → ``(i, n)`` with bounds checking."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except (ValueError, AttributeError):
        raise ReproError(
            "shard must look like i/n (e.g. 0/4), got {!r}".format(
                text)) from None
    if count < 1 or not 0 <= index < count:
        raise ReproError(
            "shard index {} out of range for {} shard(s)".format(
                index, count))
    return index, count


def run_sweep(*, workloads, machines=PAPER_CASES, budgets=DEFAULT_BUDGETS,
              opt="O3", profile="quick", seed=0, engine="aco", jobs=None,
              batch=None, iterations=None, restarts=None, shard=None,
              obs=None):
    """Execute one shard of the sweep grid (the whole grid by default).

    ``shard`` is ``(index, count)`` or ``None``.  Cells outside the
    shard are *skipped deterministically* — any host given the same
    grid and shard spec runs exactly the same cells — and each owned
    cell runs through :func:`repro.api.explore` /
    :func:`repro.api.evaluate` on this host's warm worker pool.
    """
    from ..api import evaluate as api_evaluate
    from ..api import explore as api_explore

    workloads = tuple(workloads)
    machines = tuple((ports, int(issue)) for ports, issue in machines)
    budgets = tuple(budgets)
    if not workloads or not machines or not budgets:
        raise ReproError(
            "a sweep needs at least one workload, machine and budget")
    shard_index = shard_count = None
    if shard is not None:
        shard_index, shard_count = shard
        if shard_count < 1 or not 0 <= shard_index < shard_count:
            raise ReproError(
                "shard index {} out of range for {} shard(s)".format(
                    shard_index, shard_count))
    obs = ensure_observer(obs)
    cells = cell_grid(workloads, machines)
    owned = [
        cell for cell in cells
        if shard is None or shard_of(
            cell_fingerprint(cell, opt, profile, seed, engine),
            shard_count) == shard_index
    ]
    if obs:
        obs.count("sweep.cells", len(cells))
        obs.count("sweep.cells_run", len(owned))
        obs.count("sweep.cells_skipped", len(cells) - len(owned))
        obs.event("sweep.start", cells=len(cells), owned=len(owned),
                  shard_index=shard_index, shard_count=shard_count)
    rows = []
    for cell in owned:
        workload, ports, issue = cell
        with obs.timer("sweep.cell"):
            explored = api_explore(
                workload, issue=issue, ports=ports, profile=profile,
                seed=seed, opt=opt, jobs=jobs, batch=batch,
                iterations=iterations, restarts=restarts,
                engine=engine, observer=obs)
            for budget in budgets:
                selection = api_evaluate(explored, max_area=budget,
                                         observer=obs)
                rows.append(SweepRow(
                    workload=workload, ports=ports, issue=issue,
                    budget=budget,
                    baseline_cycles=selection.baseline_cycles,
                    final_cycles=selection.final_cycles,
                    reduction=selection.reduction,
                    num_ises=selection.num_ises,
                    area=selection.area))
        if obs:
            obs.count("sweep.rows", len(budgets))
    if obs:
        obs.event("sweep.done", rows=len(rows),
                  shard_index=shard_index, shard_count=shard_count)
    result = SweepResult(
        workloads=workloads, machines=machines, budgets=budgets,
        opt=opt, profile=profile, seed=seed, engine=engine,
        shard_index=shard_index, shard_count=shard_count,
        rows=_canonical_rows(rows, workloads, machines, budgets))
    return result


def _canonical_rows(rows, workloads, machines, budgets):
    """Rows re-imposed into canonical grid order (serial fire order)."""
    index = {}
    position = 0
    for ports, issue in machines:
        for workload in workloads:
            for budget in budgets:
                index[(workload, ports, issue, budget)] = position
                position += 1
    return tuple(sorted(
        rows, key=lambda row: index[(row.workload, row.ports, row.issue,
                                     row.budget)]))


def merge_sweeps(parts):
    """Merge shard results into the full sweep, bit-identically.

    Every part must describe the same grid; together they must cover
    every cell exactly once.  The merged rows are re-imposed into
    canonical grid order, so the digest equals a serial run's.
    """
    parts = list(parts)
    if not parts:
        raise ReproError("merge_sweeps needs at least one part")
    spec = parts[0]._spec()
    for part in parts[1:]:
        if part._spec() != spec:
            raise ReproError(
                "sweep shards disagree on the grid spec; refusing to "
                "merge results of different sweeps")
    workloads, machines, budgets = spec[0], spec[1], spec[2]
    seen = {}
    for part in parts:
        for row in part.rows:
            key = (row.workload, row.ports, row.issue, row.budget)
            if key in seen:
                raise ReproError(
                    "duplicate sweep cell {!r} across shards".format(key))
            seen[key] = row
    expected = {(workload, ports, issue, budget)
                for ports, issue in machines
                for workload in workloads
                for budget in budgets}
    missing = expected - set(seen)
    if missing:
        raise ReproError(
            "merged sweep is missing {} cell(s), e.g. {!r} — were all "
            "shards provided?".format(
                len(missing), sorted(missing)[0]))
    first = parts[0]
    return SweepResult(
        workloads=first.workloads, machines=first.machines,
        budgets=first.budgets, opt=first.opt, profile=first.profile,
        seed=first.seed, engine=first.engine,
        shard_index=None, shard_count=None,
        rows=_canonical_rows(list(seen.values()), workloads, machines,
                             budgets))


def render_sweep(result):
    """The example's reduction matrix, rendered from a SweepResult."""
    lines = []
    header = "{:16s}".format("machine")
    header += "".join("{:>14}".format("{}um2".format(int(budget)))
                      for budget in result.budgets)
    lines.append(
        "Execution-time reduction, mean over {} ({}, engine={})".format(
            "+".join(result.workloads), result.opt, result.engine))
    lines.append(header)
    lines.append("-" * len(header))
    by_cell = {}
    for row in result.rows:
        by_cell.setdefault((row.ports, row.issue, row.budget),
                           []).append(row.reduction)
    best = (None, -1.0)
    for ports, issue in result.machines:
        label = "({}, {}IS)".format(ports, issue)
        cells = []
        for budget in result.budgets:
            values = by_cell.get((ports, issue, budget))
            if not values:
                cells.append(None)
                continue
            value = 100.0 * sum(values) / len(values)
            cells.append(value)
            if value > best[1]:
                best = ("{} @ {} um2".format(label, int(budget)), value)
        lines.append("{:16s}".format(label) + "".join(
            "{:>14}".format("-") if value is None
            else "{:>13.2f}%".format(value) for value in cells))
    if best[0] is not None:
        lines.append("")
        lines.append("Best cell: {} ({:.2f}% reduction)".format(*best))
    return "\n".join(lines)
