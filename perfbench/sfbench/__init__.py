"""StateFlow end-to-end and per-layer benchmark (see ``perfbench/run.py``).

Everything here drives the program through its public entry points; the
per-layer tracer wraps those entry points from the outside and reads the
counters the program already keeps.  Nothing in ``src/`` is modified.
"""
