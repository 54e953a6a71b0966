"""Reference outputs: each program's return value on the IR interpreter.

Usage: python3 perfbench/oracle.py WORKLOAD[,WORKLOAD...]

Prints one JSON object, workload -> return value, computed by
``repro.ir.interp.interpret`` on the inputs a default sweep uses
(the workload's first input category, seed 0).  The interpreter shares
no code with the simulator, so it is an independent check of every
``RunResult.return_value`` and every results row.
"""

import json
import sys

from repro.ir.interp import interpret
from repro.workloads import compile_workload, get_workload


def reference(name: str):
    spec = get_workload(name)
    inputs = spec.inputs(category=spec.categories[0], seed=0)
    return interpret(compile_workload(name), inputs=inputs,
                     registers=spec.registers()).return_value


if __name__ == "__main__":
    print(json.dumps({name: reference(name)
                      for name in sys.argv[1].split(",")}))
