"""Host-speed calibration for the timing metrics.

The benchmark's host is a shared 2-vCPU virtual machine whose speed
drifts by tens of percent over tens of seconds: the same exploration
has been measured at 2.2 s and 5.3 s a minute apart.  That drift is
the host's, not the program's, so timing metrics can be reported in
*reference-host seconds*: a measured time divided by the host's
slowness while it was measured, the mean of calibration points taken
around it.  ``workloads.py`` decides which times are scaled.

A calibration point times fixed kernels that belong to the benchmark,
not to the program, and divides each by its time on the reference host
(the 2-vCPU development container at a quiet moment); the point is the
geometric mean of those ratios.  A change to the program moves every
measured interval and never the calibration, so program speed-ups and
slow-downs show in full while host slow phases mostly cancel.

The kernels run in a helper process, so their memory never counts in
the benchmark's peak RSS, and only between measured intervals, so they
never compete with the program.  Run as a script, this module is that
helper: it answers each line on stdin with one calibration point.
"""

import math
import random
import subprocess
import sys
import time

import numpy as np


class _Op:
    __slots__ = ("uid", "preds", "succs", "latency", "start")

    def __init__(self, uid):
        self.uid = uid
        self.preds = []
        self.succs = []
        self.latency = 1 + uid % 3
        self.start = 0


def _build():
    """The kernels' fixed inputs, from a fixed seed."""
    rng = random.Random(20080310)
    nodes = 20_000
    graph = [[None, 0] for __ in range(nodes)]
    for node in graph:
        node[0] = [graph[rng.randrange(nodes)] for __ in range(3)]
    ops = [_Op(uid) for uid in range(120)]
    for op in ops[1:]:
        for __ in range(2):
            pred = ops[rng.randrange(op.uid)]
            op.preds.append(pred)
            pred.succs.append(op)
    weights = np.cumsum(np.random.default_rng(3).random(400))
    return graph, ops, weights


def _walk(graph):
    """Depth-first walks of a pointer graph larger than the caches."""
    visited = 0
    for root in range(3):
        seen = set()
        stack = [graph[root]]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            node[1] += 1
            visited += 1
            stack.extend(node[0])
    return visited


def _schedule(ops, weights):
    """Roulette-drawn list scheduling of a small DAG, like an ACO ant."""
    rng = random.Random(11)
    for __ in range(40):
        remaining = {op.uid: len(op.preds) for op in ops}
        ready = [op for op in ops if not op.preds]
        table = {}
        while ready:
            pick = int(np.searchsorted(weights, rng.random() * weights[-1]))
            op = ready.pop(pick % len(ready))
            start = max([p.start + p.latency for p in op.preds], default=0)
            while table.get((start, op.latency), 0) >= 2:
                start += 1
            table[(start, op.latency)] = table.get((start, op.latency), 0) + 1
            op.start = start
            for succ in op.succs:
                remaining[succ.uid] -= 1
                if remaining[succ.uid] == 0:
                    ready.append(succ)


#: (kernel, seconds of one run on the reference host).
KERNELS = ((lambda inputs: _walk(inputs[0]), 0.0325),
           (lambda inputs: _schedule(inputs[1], inputs[2]), 0.0225))

#: Runs of each kernel per calibration point.  The host's speed jitters
#: from one tenth of a second to the next, so a point must be long
#: enough to average that out.
REPEATS = 4


def _point(inputs):
    """One calibration point: geometric-mean slowness over the kernels."""
    logs = 0.0
    for kernel, reference in KERNELS:
        start = time.perf_counter()
        for __ in range(REPEATS):
            kernel(inputs)
        elapsed = (time.perf_counter() - start) / REPEATS
        logs += math.log(elapsed / reference)
    return math.exp(logs / len(KERNELS))


def _serve():
    """Helper loop: one calibration point per line read."""
    inputs = _build()
    _point(inputs)
    print("ready", flush=True)
    for __ in sys.stdin:
        print(repr(_point(inputs)), flush=True)


class HostClock:
    """Calibration points taken between measured intervals."""

    def __init__(self):
        self.points = []           # slowness of each point, in order
        self._helper = None

    def calibrate(self):
        """Take one calibration point now; returns the host's slowness."""
        if self._helper is None:
            self._helper = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)
            self._helper.stdout.readline()
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        slowness = float(self._helper.stdout.readline())
        self.points.append(slowness)
        return slowness

    def slowness(self):
        """The run's mean slowness over every point taken (1 if none)."""
        if not self.points:
            return 1.0
        return sum(self.points) / len(self.points)

    def close(self):
        """Stop the helper process and wait for it (idempotent)."""
        helper, self._helper = self._helper, None
        if helper is not None:
            helper.stdin.close()
            helper.wait(timeout=30)
            helper.stdout.close()


if __name__ == "__main__":
    _serve()
