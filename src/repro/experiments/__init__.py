"""Experiment drivers — one module per paper figure.

The list of figures is the registry in :mod:`repro.experiments.cli`:
``repro experiments list`` (``python -m repro.cli experiments list``)
prints it, ``repro experiments <name>`` runs one, and each module also
has a ``python -m`` entry point. ``docs/experiments.md`` documents
every driver — the paper claim it reproduces, its knobs, and how to
read the output. Import the module you need by name
(``from repro.experiments import fig6``).
"""
