"""Scaling of measured times to a reference speed of the machine.

On a 2-CPU shared Linux VM the CPU runs a process at speeds up to 1.45x
apart, in spells from under a second to minutes, while the thread's CPU time
stays equal to its wall time, so unscaled times followed the spells.  The
benchmark times a fixed loop between operations (and, inside a CLI
invocation, after every tenth of a second of steps) and scales a time taken
between two calibrations by REFERENCE_NS over their mean.  Over eight
decide-wide runs this cut the spread (quartile distance over median) of
goods_per_s from 0.16 to 0.03, of step_p50_us from 0.20 to 0.01 and of
step_p99_us from 0.18 to 0.05.
"""
import gc
import time

_cpu_now = time.thread_time_ns

# The speed every end-to-end time is scaled to: one pass of calibration_loop
# takes this much CPU time.
REFERENCE_NS = 1_000_000


def calibration_loop():
    """Fixed interpreter work: build small tuples and strings, look them up in
    a dict and sort them by a key.  Of the loops tried, its time followed the
    speed of fairstream's operations most closely (a Fraction-and-small-dict
    loop and an int-list scan under-corrected more)."""
    items = [(i, i % 13, str(i)) for i in range(1500)]
    by_name = {item[2]: item for item in items}
    total = 0
    for item in items:
        total += by_name[item[2]][1]
    items.sort(key=lambda item: (item[1], item[0]))
    return total


def calibrate():
    """CPU ns of one calibration pass, timed after a pass that warms it up.
    The collector is off during the pass, so that a full collection of the
    workload's heap does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        calibration_loop()
        t0 = _cpu_now()
        calibration_loop()
        return _cpu_now() - t0
    finally:
        if enabled:
            gc.enable()


def scale(calibrations):
    """Factor for a time taken between the last two calibrations."""
    return 2 * REFERENCE_NS / (calibrations[-2] + calibrations[-1])
