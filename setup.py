"""Thin setup.py shim.

Without the ``wheel`` package, pip (23.1+) cannot build an editable install,
but ``python setup.py develop`` can: it needs only setuptools, and offline
it resolves the declared dependencies from the installed packages. All
metadata lives in pyproject.toml.
"""
from setuptools import setup

setup()
