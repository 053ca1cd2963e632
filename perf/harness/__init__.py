"""Internals of the ``perf/`` benchmark (see ``perf/README.md``).

``perf/run.py`` is the one command; these modules hold the workloads
(:mod:`video`, :mod:`serve`, :mod:`cluster`), the layer probes, the
benchmark's own span recorder and the small statistics helpers.  Nothing
here imports ``repro.profiling`` or ``repro.observability``: the spans are
recorded from the benchmark's side of each layer's public functions.
"""
