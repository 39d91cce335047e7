"""Record golden.json: the exit status and stdout digest of every op.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are trusted; the benchmark counts any
later difference as a failed op.  Each compute-jt op is first checked
against an independent evaluation from the library (tableau enumeration),
so a golden never records a wrong Jacobi-Trudi result.
"""

import hashlib
import json
import platform
import sys
import time

from run import GOLDEN, SRC, run_op
from workloads import WORKLOADS

# compute-jt op -> (reference name, arguments)
REFERENCES = {
    "compute G --shape 3,2,1 --n 4 --deg 8":
        ("enum_mmsvt", ((3, 2, 1), (), 4, 8)),
    "compute g --shape 4,3,2,1 --n 5":
        ("enum_mrpp", ((4, 3, 2, 1), (), 5, 10)),
    "compute G --shape 2,1 --n 5 --deg 5":
        ("enum_mmsvt", ((2, 1), (), 5, 5)),
    "compute G --shape 2,1 --inner 1 --n 4 --deg 5":
        ("enum_mmsvt", ((2, 1), (1,), 4, 5)),
}


def reference_stdout(op):
    sys.path.insert(0, str(SRC))
    from grothpoly import tableaux
    from grothpoly.cli import render_poly
    name, args = REFERENCES[op]
    start = time.perf_counter()
    text = render_poly(getattr(tableaux, name)(*args)) + "\n"
    return name, text.encode(), time.perf_counter() - start


def main():
    if set(REFERENCES) != set(WORKLOADS["compute-jt"]["ops"]):
        sys.exit("REFERENCES must name every compute-jt op")
    ops = {}
    for name, workload in WORKLOADS.items():
        for op in workload["ops"]:
            r = run_op(op, traced=False)
            entry = {"status": r.status, "bytes": len(r.stdout),
                     "sha256": hashlib.sha256(r.stdout).hexdigest()}
            if op in REFERENCES:
                ref, text, took = reference_stdout(op)
                if text != r.stdout:
                    sys.exit(f"{op}: stdout differs from {ref}")
                entry["checked_by"] = ref
                print(f"  {op}: equals {ref} ({took:.2f} s)")
            print(f"{name}: {op}: status {r.status}, {len(r.stdout)} bytes, "
                  f"{r.wall_s:.2f} s")
            ops[op] = entry
    with open(GOLDEN, "w") as fh:
        json.dump({"python": platform.python_version(), "ops": ops}, fh,
                  indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
