"""Setuptools packaging for the REsPoNse reproduction.

The project is kept installable with a plain ``setup.py`` (no ``wheel`` /
``pyproject.toml`` machinery) so that editable installs keep working on
machines without build isolation (offline environments), where pip falls
back to the legacy ``setup.py develop`` code path.
"""

from setuptools import find_packages, setup

setup(
    name="repro-response",
    version="0.2.0",
    description=(
        "Reproduction of 'Identifying and using energy-critical paths' "
        "(REsPoNse, CoNEXT 2011)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        # routing/mcf.py drives SciPy's vendored HiGHS binding,
        # scipy.optimize._highspy._core: there since 1.15 (the last line
        # with Python 3.10 wheels), verified on 1.17.1.  On any other
        # version tests/test_mcf_session.py checks the names it uses.
        "scipy>=1.15",
        "networkx",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
