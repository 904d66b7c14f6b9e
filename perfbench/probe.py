"""Set-up time of one workload, in the fresh interpreter this script runs in.

Times `import biqknot`, building and validating the workload's algebras
from their specs, and `builtin_table()`; prints the seconds and the
factor to a nominal-speed machine from the reference loop sampled
around and during it (see reference.py).
Making the specs (input generation) happens before the clock starts.

Usage: python3 perfbench/probe.py <workload>   (from the checkout root, src/ on PYTHONPATH)
"""

import sys
import time

import gen
from reference import Speed, sample

specs = gen.algebra_specs(sys.argv[1])
with Speed(sample()) as speed:
    start = time.perf_counter()
    import biqknot  # noqa: E402  (the import is what is timed)

    for spec in specs.values():
        gen.build_algebra(biqknot, spec)
    biqknot.builtin_table()
    seconds = time.perf_counter() - start - speed.overhead
print(repr(seconds), repr(speed.scale()))
