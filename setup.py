"""Packaging metadata for ``repro``, the Saga reproduction.

The repository has no ``pyproject.toml``; this file carries the metadata
itself.  The version is read from ``src/repro/_version.py`` as text, so
building never imports the package or numpy.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__\s*=\s*"([^"]+)"', _VERSION_FILE.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "scipy"],
)
