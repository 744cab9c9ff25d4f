"""The speed kernel: fixed pure-Python work timed to read the machine's speed.

On a shared host the same Python code runs 10-25% faster or slower from one
minute to the next, and a process may land on a slower or faster core.  The
kernel slows with it, so a time multiplied by NOMINAL_S / kernel time reads
as at the nominal speed.  The kernel never calls foldcost, so a change in
foldcost still shows in full.

This module imports nothing but builtins, so that the set-up child can time
the kernel without loading any module that foldcost's import would load.
"""

import gc
import time

NOMINAL_S = 0.004  # about the kernel's median on a 2-core x86 host, Python 3.11


def speed_kernel() -> int:
    """An integer loop and recursive calls; allocates little."""
    def fib(n: int) -> int:
        return n if n < 2 else fib(n - 1) + fib(n - 2)

    total = 0
    for i in range(30_000):
        total += (i * 7) % 13 if i & 1 else i // 3
    return total + fib(19)


def kernel_time(repeat: int = 1) -> float:
    """The kernel's fastest time over `repeat` runs, with the collector off:
    the kernel makes no cycles, so its time does not depend on how many
    objects the caller keeps alive."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeat):
            start = time.perf_counter()
            speed_kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best
