"""Experiment drivers — one module per paper figure.

The list of figures is the registry in :mod:`repro.experiments.cli`:
``repro experiments list`` (``python -m repro.cli experiments list``)
prints it and ``repro experiments <name> [--quick]`` runs one (a
module's ``QUICK`` holds its ``--quick`` arguments).
``docs/experiments.md`` documents every driver — the paper claim it
reproduces, its knobs, and how to read the output. Import the module you need by name
(``from repro.experiments import fig6``).
"""
