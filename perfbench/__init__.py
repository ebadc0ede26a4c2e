"""The repository's own benchmark: end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
