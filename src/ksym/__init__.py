"""Coordinate-chart engine for k-symplectic Hamiltonian and Lagrangian
field theory: builds and verifies conservation laws obtained from
symmetries and pseudosymmetries of k-vector fields.

Layering, bottom up:

- ``expr``          symbolic scalar expressions over named charts
- ``calculus``      vector fields, alternating forms, brackets, potentials
- ``bundles``       canonical structures on k-tangent / k-cotangent charts
- ``dynamics``      field systems and pointwise evolution solvers
- ``symmetry``      symmetry / pseudosymmetry / invariance checks
- ``conservation``  conserved-quantity constructors and verifiers
- ``sections``      integral-section grids and divergence checks
- ``models``        model files and the bundled models
- ``cli``           the command table, dispatch and check reports
"""

import importlib

__version__ = "0.1.0"

# the layers above, bottom up; each module's ``__all__`` lists what it exports
_MODULES = (
    "expr", "calculus", "bundles", "dynamics", "symmetry", "conservation", "sections", "models",
    "cli",
)


def __getattr__(name):
    # a module is imported only when one of its names is first asked for, so
    # ``import ksym`` loads no layer and ``python -m ksym.cli`` finds ksym.cli
    # unimported
    for module_name in _MODULES:
        module = importlib.import_module(f"{__name__}.{module_name}")
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
