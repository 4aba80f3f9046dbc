"""A fixed pure-Python reference load that shares no code with maghom.

The benchmark shares a 2-CPU machine with other tenants, and how fast its CPU
runs Python changes by up to 1.6x from one second to the next (the process
gets the whole CPU time it asks for; each instruction just takes longer).
Every worker runs this reference right before and right after its command,
and run.py scales the command's times by ``NOMINAL_S`` over the reference's
measured time, so what is reported is the time the command would take on
this machine when the reference takes ``NOMINAL_S``.  A change to maghom's
speed moves the reported time one to one; a change in the machine's speed
moves the reference with it and cancels.

The load mixes what maghom does: dicts and sets keyed by small tuples,
sorting, and row operations on lists of Python integers.
"""

from __future__ import annotations

import time

ROUNDS = 20

# the reference's median time over 40 runs in one process on a 2-CPU Intel
# Xeon with Python 3.11.7; it sets only the scale of the reported times, not
# their spread
NOMINAL_S = 0.11


def reference():
    """The fixed load; returns a checksum so none of it can be skipped."""
    total = 0
    for r in range(ROUNDS):
        seen = {}
        for i in range(6000):
            key = ((i * 7919 + r) % 1009, i % 17, (i >> 3) & 7)
            seen[key] = seen.get(key, 0) + i
        total += sum(sorted(seen.values())[::97])
        total += len({(a, b) for a in range(60) for b in range(a, 60) if (a ^ b) % 3})
        n = 22
        m = [[(i * j * 31 + i + 2 * j + r) % 7 - 3 for j in range(n)] for i in range(n)]
        for c in range(n):
            p = next((i for i in range(c, n) if m[i][c]), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            for i in range(c + 1, n):
                f, g = m[i][c], m[c][c]
                if f:
                    m[i] = [g * x - f * y for x, y in zip(m[i], m[c])]
        total += sum(m[n - 1]) % 1000003
    return total


def timed():
    """Seconds one reference load takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
