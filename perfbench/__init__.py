"""Benchmark of the wolstenholme package; run it with perfbench/run.py."""
