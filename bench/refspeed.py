"""Fixed reference kernels that measure how fast the machine runs right now.

On a 2-vCPU Xeon virtual machine (2 GHz) that shares its cores with other
tenants, speed moved by up to 3x between seconds while CPU time stayed
equal to wall time, so the drift is not scheduling and no statistic of raw
wall times removes it: eight 8 s runs of kepler-mgi there had per-run
median step times whose quartiles spread by 35% of their median. Timing
this kernel next to every operation and scaling the operation's time by
REFERENCE_US / kernel time cut that spread to a few percent.

The kernel does the kind of work a step does and never calls geodesy, so a
change to the program cannot move it. Small numpy ufunc calls alone slowed
down more than the workloads' steps when the machine did, and plain
interpreter work less; with about 30% of the kernel's time in plain
interpreter work, the scaled time of 0.4 s blocks of operations varied
least on pendulum-mci, lv-fd and kepler-mgi alike.

Set-up (importing and linking modules) slowed down about as much as the
interpreter part alone, which needs no import, so a cold process times it
before and after its set-up: over 40 cold starts, the median of each five
ranged over 43% of their median raw and 14% scaled.
"""

from time import perf_counter

REFERENCE_US = 1000.0  # kernel_seconds() on an idle core of that machine
INTERPRETER_US = 270.0  # interpreter_seconds() on the same core


def interpreter_seconds() -> float:
    start = perf_counter()
    table = {}
    for i in range(3000):
        table[i % 17] = (i * 7) % 13
    return perf_counter() - start


def kernel_seconds() -> float:
    import numpy as np  # here, so that a cold process can use this module before numpy

    x = np.arange(4.0)
    start = perf_counter()
    acc = 0.0
    for _ in range(400):
        v = np.sin(x) * 2.0 + x
        acc += float(v[1])
    return perf_counter() - start + interpreter_seconds()


def to_reference(seconds: float, measured: float, reference_us: float = REFERENCE_US) -> float:
    """A duration taken while a kernel took `measured` seconds, scaled to the kernel's reference time."""
    return seconds * reference_us * 1e-6 / measured
