"""The benchmark's workloads: fixed lists of grothpoly CLI operations.

Each op is the argument list of one `python -m grothpoly.cli` call.  Two
ops are deliberately absent from every workload:

- `verify matsumura` exits 1 after about 0.1 s at its first case outside
  Matsumura's hypothesis, so its time measures where a known defect sits,
  not its sweep.
- `compute G --shape 4,3,2,1 --n 4` (the roadmap's default compute) takes
  about 270 s, longer than a whole run.
"""

WORKLOADS = {
    "compute-jt": {
        "why": "latency users see from compute; the ring product kernel on "
               "large operands (Jacobi-Trudi determinants, a 609 KB print)",
        "ops": [
            "compute G --shape 3,2,1 --n 4 --deg 8",
            "compute g --shape 4,3,2,1 --n 5",
            "compute G --shape 2,1 --n 5 --deg 5",
            "compute G --shape 2,1 --inner 1 --n 4 --deg 5",
        ],
    },
    "verify-flagged": {
        "why": "verification throughput: tableau enumeration, FlagSweep "
               "and many small ring products",
        "ops": [
            "verify flagged --max-size 3",
            "enumerate G --shape 3,2 --n 4",
            "enumerate g --shape 3,2,1 --n 4",
        ],
    },
    "identities": {
        "why": "tiny products, specialize, exact_divide, lgv paths and the "
               "symfunc caches; catches kernels that lose on small operands",
        "ops": [
            "verify omega --max-size 5",
            "verify G --max-size 5",
            "verify g --max-size 6",
            "verify C --max-size 7",
            "verify c --max-size 7",
            "verify duality --max-size 6",
            "verify cauchy --budget 4",
            "expand G --shape 3,2,1 --n 4 --deg 5",
            "expand G --shape 3,2 --inner 1 --deg 2",
        ],
    },
}
