"""Layered benchmark for the octv package; run it with ``python3 perfbench/run.py``."""
