"""Time `verify --suite all` in-process and serially, one new interpreter per
run, so that no cache carries over between runs.

    python tools/time_verify.py [--src DIR] N_MAX [N_MAX ...]

DIR is the `src` directory of the checkout to time (default: this one's),
so two checkouts can be timed alternately with the same script.  Each run
prints the wall and CPU seconds of `verify.run_suite("all", N_MAX, 1)`,
without interpreter start-up or imports, and whether every check passed.
"""

import argparse
import os
import subprocess
import sys

CHILD = """import sys, time
sys.path.insert(0, sys.argv[1])
from ybe_forge import verify
wall, cpu = time.perf_counter(), time.process_time()
report = verify.run_suite("all", int(sys.argv[2]), 1)
print("n_max %s: wall %.2f s, cpu %.2f s, %d checks, %s" % (
    sys.argv[2], time.perf_counter() - wall, time.process_time() - cpu, len(report.checks),
    "all passed" if report.passed else "FAILURES"))
"""


def main():
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n_max", type=int, nargs="+")
    parser.add_argument("--src", default=os.path.normpath(here))
    args = parser.parse_args()
    env = dict(os.environ, FORGE_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    for n_max in args.n_max:
        subprocess.run([sys.executable, "-c", CHILD, args.src, str(n_max)], env=env, check=True)


if __name__ == "__main__":
    main()
