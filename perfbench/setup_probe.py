"""One set-up, timed in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <gate>:<cap> [...]

Imports nla_weaksim from <src dir>, lifts each named gate at its cap, and
prints the elapsed seconds: the cost a fresh process pays before its first
op can reuse the cached gates.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from nla_weaksim import protocol  # noqa: E402

for spec in sys.argv[2:]:
    gate, cap = spec.split(":")
    protocol.gate_operator(gate, int(cap))
print(time.perf_counter() - start)
