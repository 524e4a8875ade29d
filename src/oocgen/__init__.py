"""Optical orthogonal codes from multi-orbit cyclic subspace codes."""

from .field import (ExtensionField, FieldElement, FieldError,
                    SubfieldEmbedding, field_create, field_from_descriptor,
                    field_for_prime_power, factor_prime_power,
                    gaussian_binomial)
from .subspaces import (CosetFamily, CyclicSubspaceCode, Subspace,
                        SubspaceError, build_coset_family, code_from_dict,
                        code_min_distance, construct_g, construct_w,
                        coset_representatives, difference_counts,
                        dim_intersection, is_multi_sidon, is_sidon, orbit,
                        orbit_size, span, subspace_distance, subspace_to_dict,
                        validate_multi_orbit)
from .ooc import (IndexSet, OocCode, OocError, OocParams, VerificationError,
                  VerificationReport, autocorr_max, build_ooc,
                  check_field_conditions, crosscorr_max, johnson_bound,
                  optimality_ratio, params_table, s_of_w, shift, verify_oos)

__version__ = "0.1.0"
