"""Crash event sequence prediction harness.

Parse raw crash logs into per-system event sequences, build k-shot
prompts, obtain next-crash (time, cause) answers from pluggable
backends, and score them with ROUGE-1/ROUGE-L.

The package root exports nothing: import each name from the module that
defines it, e.g. ``crashcast.pipeline.run_all``.
"""
