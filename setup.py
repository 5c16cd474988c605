"""Packaging for the ``repro`` library under ``src/``.

All project metadata lives here (there is no ``pyproject.toml``), so
offline environments lacking the ``wheel`` package can still do an
editable install via the legacy path::

    pip install -e . --no-build-isolation --no-use-pep517
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # keep in step with repro.__version__
    description="Checkpoint and run-time adaptation with pluggable "
                "parallelisation (reproduction runtime)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
