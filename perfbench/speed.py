"""The machine's speed at a given moment, read off a fixed computation.

On a shared virtual machine the CPU time of one and the same computation
swings by a factor of up to 1.7 within seconds, and stays high or low for
anything from one second to half a minute, as other guests load the host;
CPU time does not leave this out, since it is the speed of the CPU that
changes, not the share the guest gets.  A run of half a minute then reads
fast or slow as a whole, so two runs of one program differ by more than
any bound worth setting.

A probe is a fixed computation of the benchmark's own that does the kind
of work the program does (dictionaries, tuples, small integers and
floats; `reference.epsilon_components` on a fixed cloud of 600 points).
Every timed interval is bracketed by two probes, and its CPU time is
scaled by REFERENCE_S over their mean: the result is the CPU time the
interval would have taken at the speed at which the probe takes
REFERENCE_S.  The probe is not part of the program, so a change to the
program moves the scaled figures as it moves the raw ones.
"""

from __future__ import annotations

import random
import time

import reference

# CPU seconds of one probe on the machine the benchmark was tuned on
# (the median of 600 probes in a row)
REFERENCE_S = 0.0075

_rng = random.Random(5)
_CLOUD = {i: (_rng.random(), _rng.random()) for i in range(600)}
del _rng


def probe():
    """CPU seconds of one run of the fixed computation."""
    t = time.process_time()
    reference.epsilon_components(_CLOUD, 0.05)
    return time.process_time() - t


def scale(before, after):
    """Factor that takes CPU seconds measured between two probes to
    seconds at the reference speed."""
    return 2.0 * REFERENCE_S / (before + after)
