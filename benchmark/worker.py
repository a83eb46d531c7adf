"""One iteration of a workload in this fresh process; prints its result as JSON.

Usage: python3 benchmark/worker.py WORKLOAD SEED DETAILED(0|1) RUN_ID

A fresh process per iteration makes ``ru_maxrss`` the peak of this
iteration alone and starts the ``OperatorSet.prod`` memo cold, as every
CLI call does.
"""

import time

T0 = time.perf_counter()  # before pgaw is imported

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports pgaw from the checkout's src/)

if __name__ == "__main__":
    name, seed, detailed, run_id = sys.argv[1:]
    print(json.dumps(workloads.run(name, int(seed), detailed == "1", run_id, T0)))
