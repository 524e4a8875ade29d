"""Optical orthogonal codes from multi-orbit cyclic subspace codes."""

from .field import (ExtensionField, FieldError, field_create,
                    field_from_descriptor, field_for_prime_power,
                    factor_prime_power)
from .subspaces import (CosetFamily, CyclicSubspaceCode, Subspace,
                        SubspaceError, build_coset_family, code_from_dict,
                        code_min_distance, construct_g, construct_w,
                        coset_representatives, span, subspace_to_dict)
from .ooc import (IndexSet, OocCode, OocError, OocParams, VerificationError,
                  VerificationReport, build_ooc, johnson_bound,
                  optimality_ratio, params_table, s_of_w, verify_oos)

__version__ = "0.1.0"
