"""Run the annosim campaign benchmark on one workload.

    python3 perfbench/run.py --workload rand-st --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from that
checkout's ``src/``; without it the script exits with code 2. The last
line of standard output is the JSON result.
"""

import os
import sys

# Every BLAS/OpenMP pool gets one thread, before numpy is imported, so the
# only parallelism is the campaign's own worker pool.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(_SRC, "annosim", "__init__.py")):
        print(f"run.py: no annosim package under {_SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [_SRC, _HERE]
    import campaign_bench

    sys.exit(campaign_bench.main())
