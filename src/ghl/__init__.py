"""Exact Gauduchon-family geometry of locally homogeneous almost-Hermitian
spaces presented by Lie-bracket structure constants."""

from .scalars import (DegreeGuardError, ExactDomain, FractionDomain,
                      NumericDomain, PoleError, Polynomial, RationalFunction,
                      UsageError, set_degree_cap)
from .geometry import (AuditReport, BracketSpec, DerivativeTuple,
                       InternalConsistencyError, KillingResult, SingerResult,
                       TorsionData, ValidationReport, connection_audit,
                       covariant_derivative, gauduchon_connection,
                       gauduchon_curvature_torsion, hermitian_s_tuple,
                       killing_generators, lee_form, levi_civita,
                       metric_flags, nomizu_bracket, reduce_non_effective,
                       ricci_and_scalar, riemann_curvature, rho2_matrix,
                       singer_invariant, symbolic_t, torsion_ingredients,
                       validate)
from .fileio import (GhlFormatError, LoadedSpec, build_report, bundled_path,
                     compare_reports, load_ghl, serialize_report)

__version__ = "0.1.0"
