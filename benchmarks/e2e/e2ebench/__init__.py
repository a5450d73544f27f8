"""Client-side end-to-end benchmark of the serving fleet and the store.

``spec`` holds the constants and metric tables, ``harness`` the shared
measurement machinery (fleet builder, closed and open loops, checks),
``workloads`` the five named workloads, ``layers`` the traced run and the
per-layer probes.  ``../run.py`` is the one entry point.
"""
