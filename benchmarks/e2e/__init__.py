"""The repo's end-to-end benchmark (see README.md in this directory).

One command -- ``PYTHONPATH=src python -m benchmarks.e2e run`` -- drives the
system through :mod:`repro.api` and the HTTP surface on four workloads,
prints every metric by name with its unit, checks the outputs and writes one
result JSON.  ``bench.py`` is the single-run entry point named by the
``BENCHMARK.json`` contract at the repo root.
"""
