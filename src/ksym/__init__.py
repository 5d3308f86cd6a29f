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
- ``cli``           model files, bundled models, check reports
"""

from .expr import (
    ChartSpace,
    Check,
    EvaluationDomainError,
    Expression,
    ExprError,
    ExprSyntaxError,
    NonIntegerExponentError,
    SamplingError,
    UnknownIdentifierError,
    base_chart,
    cotangent_chart,
    parse_expression,
    sample_points,
    simplify,
    tangent_chart,
    to_source,
)
from .calculus import (
    ChartMismatchError,
    ClosednessError,
    PForm,
    ScalarField,
    VectorField,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    potential_of_exact_one_form,
)
from .bundles import cotangent_bundle, first_prolongation, tangent_bundle
from .dynamics import (
    FieldSystem,
    InconsistentSystemError,
    KVectorField,
    SingularHessianError,
    build_system,
    check_regularity,
    solve_evolution_hamiltonian,
    solve_evolution_lagrangian,
    verify_evolution,
)
from .symmetry import (
    is_cartan_symmetry,
    is_invariant_form,
    is_symmetry,
    solve_pseudosymmetry,
)
from .conservation import (
    ConservationLaw,
    NotCartanSymmetryError,
    build_bracket_law,
    build_noether_law,
    check_momentum_converse,
    user_law,
    verify_law_pointwise,
)
from .sections import (
    SectionGrid,
    check_integrability,
    export_grid_csv,
    integrate_section,
    verify_law_divergence,
)

__version__ = "0.1.0"


def __getattr__(name):
    # loaded on first use, so that ``python -m ksym.cli`` finds ksym.cli unimported
    if name in ("load_model", "resolve_model_path"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
