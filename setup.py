"""Setuptools configuration for the reproduction package.

Kept as a plain setup.py (no pyproject.toml) so that `pip install -e .` works
on offline machines where PEP 660 editable builds (which require `wheel`) are
unavailable.  The package list is discovered from `src/` and includes the
`repro.campaign` experiment-campaign subsystem; the `repro-campaign` console
script is the installed counterpart of `python -m repro.campaign`.
"""
from setuptools import find_packages, setup

setup(
    name="repro-dattagpv00",
    version="0.5.0",
    description=(
        "Reproduction of self-stabilizing network orientation protocols "
        "(DFTNO/STNO) with a unified experiment API and campaign engine"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro-campaign=repro.campaign.cli:main",
            "repro-lint=repro.lint.cli:main",
            "repro-replay=repro.replay.cli:main",
        ],
    },
)
