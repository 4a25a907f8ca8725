"""Spread of a fixed pure-Python reference loop on this host.

    python3 bench/hostnoise.py [--seconds 30]

The loop sums 1/i over Fractions, the arithmetic lcslie spends its time
in, and does the same work on every iteration.  Any change in its speed
is the host's, so its spread is the floor under the benchmark's spread:
a change to lcslie that moves a metric by less than this shows nothing.
Prints the iteration count, the median iteration time, the spread of
single iterations and of 5-second window medians (interquartile range
over median), and the slowest over the fastest window.
"""

import argparse
import statistics
from fractions import Fraction
from time import perf_counter

WINDOW_S = 5.0


def reference_loop():
    total = Fraction(0)
    for i in range(1, 20000):
        total += Fraction(1, i)
    return total


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    times, windows, window = [], [], []
    start = window_start = perf_counter()
    while perf_counter() - start < args.seconds:
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
        window.append(times[-1])
        if perf_counter() - window_start >= WINDOW_S:
            windows.append(statistics.median(window))
            window, window_start = [], perf_counter()
    print(f"iterations {len(times)}, median {statistics.median(times):.4f} s")
    print(f"spread of single iterations {spread(times):.3f}")
    if len(windows) >= 2:
        print(f"spread of {WINDOW_S:g}-s window medians {spread(windows):.3f}, "
              f"slowest/fastest window {max(windows) / min(windows):.2f}")


if __name__ == "__main__":
    main()
