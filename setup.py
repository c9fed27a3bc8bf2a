"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so PEP 660
editable installs fail; ``pip install -e . --no-use-pep517`` (or plain
``python setup.py develop``) uses this shim instead. All metadata —
packages, console scripts — lives in pyproject.toml, which reads the
version from ``repro.__version__``.
"""

from setuptools import setup

setup()
