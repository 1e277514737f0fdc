"""stabcert: weak-observability certificates for complete stabilizability.

The package decides, at desk scale, whether a finite truncation of a
linear control system admits the family of weak observability inequalities
characterizing rapid stabilizability, synthesizes feedback achieving any
prescribed decay rate through shifted Riccati equations, and reproduces
four benchmark systems end to end (fractional heat, Hermite heat,
point-controlled heat at a continued-fraction actuation point, and a
time-multiplexed periodic system).
"""

from .systems import (ContinuedFractionPoint, LtiSystem, ProjectionFamily,
                      SpectralSystem, UnboundedConstantsSpec, build_system,
                      continued_fraction_point, fractional_heat,
                      hermite_heat, point_control_heat,
                      spectral_projection_family, system_from_spec, truncate)
from .semigroup import (GramianResult, QuadratureSpec, observability_gramian,
                        observation_energy, propagate, transition_matrix)
from .weakobs import (CERTIFIED, INCONCLUSIVE, REFUTED, CertificateFamily,
                      SequenceEntry, WeakObsCertificate, check_certificate,
                      discrete_sequence, optimal_d_bracket, sweep_alpha)
from .lrconstants import (IllConditionedGramError, ModeVanishesError,
                          SemigroupBound, admissibility_constant,
                          constants_from_spectral_inequality,
                          constants_from_truncated_obs,
                          constants_from_truncated_obs_unbounded,
                          estimate_spectral_constant, fattorini_distance,
                          fit_semigroup_bound, pick_family_entry,
                          point_heat_truncated_obs_constant)
from .feedback import (ControlSignal, DecayReport, FeedbackResult,
                       SteeringError, UnstabilizableError,
                       certificate_to_feedback, concatenated_control,
                       min_norm_eps_null, solve_shifted_riccati)
from .periodic import (PeriodicSystem, build_multiplexed_system,
                       multiplexed_stabilizability_check,
                       noncontrollability_witness,
                       periodic_observation_energy,
                       periodic_observation_energy_quadrature,
                       periodic_weakobs_check)

__version__ = "0.1.0"
