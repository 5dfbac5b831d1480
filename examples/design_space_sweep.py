#!/usr/bin/env python3
"""Design-space sweep: pick a machine + ISE budget for a codec core.

Scenario from the paper's introduction: a digital-entertainment SoC
team must decide between widening the issue path and spending silicon
on ISEs.  This example sweeps the six §5.1 machine configurations over
a set of area budgets on a media-ish workload mix (adpcm + jpeg) and
prints the reduction matrix, so the trade-off the paper argues about is
visible in one table.

Built on the stable public API: one :func:`repro.sweep` call runs the
whole (workload × machine × budget) grid — each cell explored once,
every budget evaluated against the frozen exploration — and returns a
frozen :class:`repro.SweepResult` with a content digest.  The same
grid shards across hosts with ``shard=(i, n)`` (or ``repro sweep
--shard i/n`` on the CLI) and merges back bit-identically.

Usage::

    python examples/design_space_sweep.py [--quick] [--shard i/n]
"""

import sys

from repro import sweep
from repro.dist.sweep import parse_shard, render_sweep
from repro.eval import default_profile

BUDGETS = (20_000, 80_000, 320_000)
WORKLOADS = ("adpcm", "jpeg")


def main():
    argv = sys.argv[1:]
    profile = "quick" if "--quick" in argv else default_profile()
    shard = None
    if "--shard" in argv:
        shard = parse_shard(argv[argv.index("--shard") + 1])
    result = sweep(WORKLOADS, budgets=BUDGETS, profile=profile,
                   seed=11, shard=shard)
    if shard is None:
        print(render_sweep(result))
    else:
        print("shard {}/{}: {} row(s) over {} cell(s)".format(
            result.shard_index, result.shard_count,
            len(result.rows), len(result.cells)))
    print("digest: {}".format(result.digest))


if __name__ == "__main__":
    main()
