"""Wall-clock benchmark of the HYPERSONIC reproduction's engines.

Run ``python3 -m perf --help`` from the repository root; see README.md.
"""
