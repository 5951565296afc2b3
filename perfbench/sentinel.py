"""Core-speed sentinel for the benchmark.

    python3 sentinel.py SAMPLES.txt

Every PERIOD_S seconds, times one fixed pure-Python kernel in thread CPU
time and keeps (CLOCK_MONOTONIC at its end, its duration).  On SIGTERM it
writes one "end duration" line per sample to SAMPLES.txt and exits.  It
runs pinned to the one CPU the benchmark's children run on, so a sample
taken while an invocation runs shows how fast that core was then: on a
shared host the same code varies by ±20% from one minute to the next.
"""

import signal
import sys
import time

PERIOD_S = 0.05
LOOP = 10000  # about 1 to 2 ms


def main():
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    samples = []
    while not stop:
        t0 = time.thread_time()
        s = 0
        for i in range(LOOP):
            s += i * i % 7
        samples.append((time.monotonic(), time.thread_time() - t0))
        time.sleep(PERIOD_S)
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.writelines("%.6f %.9f\n" % s for s in samples)


if __name__ == "__main__":
    main()
