"""Setuptools shim.

The metadata lives in ``pyproject.toml``; this file only lets tools that
still call ``setup.py`` directly read it, e.g. an offline metadata query
(``python setup.py --name --version``) or ``python setup.py develop``.
The documented install is ``pip install -e . --no-build-isolation``.
"""

from setuptools import setup

setup()
