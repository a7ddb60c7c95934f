"""A fixed reference loop that gauges how fast the machine runs right now.

On a shared host the speed of a CPU changes by a third or more within a
minute, and every wall time moves with it: on a 2-CPU virtual machine of a
shared Xeon host, the same ``explicit_iso`` pass took 5.6 s to 9.3 s within
200 s, on the same code and inputs.  The loop below does not touch zdgforge.
The benchmark times it before and after each measurement and reports the
measurement scaled to a machine on which the loop takes ``REFERENCE_S``.  A
change to zdgforge moves the scaled time by the same share as the wall time;
a change in the host's speed mostly cancels out.
"""

import gc
import os
import statistics
from time import perf_counter

import numpy

# About the loop's median time on the 2-CPU machine of PREDICTIONS.md, so
# scaled times there read close to wall times.
REFERENCE_S = 0.04
REPEATS = 8


def _loop():
    # Interpreter work (dict, tuples, strings, sort) and memory traffic, the
    # two kinds of work the workloads spend their time on.
    done = 0
    for _ in range(3):
        table = {}
        for i in range(20000):
            table[i * 7919 % 100003] = (i, str(i))
        done += len(sorted(table.items()))
        del table
    for _ in range(4):
        block = numpy.zeros(1_000_000)
        block += 1.0
        done += int(block[0])
        del block
    return done


def probe_s():
    """Median of several timings of the loop, run in a forked child: the
    loop's memory never counts toward the caller's peak, and the caller's
    heap, with the collector off in the child, does not change its cost."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            gc.disable()
            times = []
            for _ in range(REPEATS):
                started = perf_counter()
                _loop()
                times.append(perf_counter() - started)
            os.write(write, repr(statistics.median(times)).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    return float(text)


def scaled(wall, before, after):
    """``wall`` seconds at reference speed, from the probes around it."""
    return wall * REFERENCE_S * 2 / (before + after)
