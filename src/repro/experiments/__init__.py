"""Experiment harness: the sweep runner, its result cache, and the paper's
figures as data (see DESIGN.md §4).

Run a figure through :func:`repro.api.figure` or the ``python -m
repro.experiments`` CLI; both look it up in
:data:`repro.experiments.figures.FIGURES`.  This package re-exports
nothing: the sweep service imports the result cache
(:mod:`repro.experiments.cache`) without the sweep runner
(:mod:`repro.experiments.runner`), which executes simulations.
"""
