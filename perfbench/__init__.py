"""Steady benchmark of ``rpif simulate``; run it with ``python3 perfbench/run.py``."""
