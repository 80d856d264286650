"""Gabor-matrix calculus for Fourier integral operators on a finite
time-frequency model.

The library realizes, on the cyclic group Z_L, the algebra of operators whose
Gabor matrix K[mu, lam] = <T pi(lam) g, pi(mu) g> decays away from the graph
of a canonical transformation chi, and verifies its structure by computation:
almost-diagonalization of pseudodifferential operators, concentration of FIOs
along their symplectic graphs, closedness under composition and inversion,
and the factorization of generalized metaplectic operators.
"""

from .errors import (ConfigError, FitError, FrameDeficient, GaborFIOError,
                     ModelError, NondegeneracyViolation, NotInClass,
                     SingularOperator, SizeError, SolveError, UnitError,
                     WindowError)
from .tfcore import (ModelConfig, Signal, TFGrid, delta, dft_matrix,
                     dft_unitary, periodized_gaussian, random_signal, stft,
                     stft_matrix, tf_shift, tf_shift_matrix, wrap_half)
from .gabor import (CoefficientArray, GaborFrame, Lattice, WeightSpec,
                    analysis, atom_matrix, build_frame, default_lattice,
                    modulation_norm, synthesis)
from .phasegeom import (CanonicalMap, EquivalenceReport, SymplecticMatrix,
                        TamePhase, TameReport, canonical_map_of_phase,
                        check_symplectic, compose_maps, linear_map,
                        phase_chi_equivalence, phase_of_symplectic,
                        tame_phase, validate_tame)
from .operators import (DiscretePhase, MetaplecticWord, OperatorMatrix,
                        SymbolGrid, adjoint, chirp_operator, compose,
                        dft_operator, dilation_operator,
                        discrete_phase_from_tame, fio_type1, fio_type2,
                        identity_operator, kn_phase, kn_quantize,
                        kn_symbol_of, metaplectic, multiplier_operator,
                        quadratic_phase, random_smooth_symbol, symbol_ones,
                        symbol_multiplier, type1_symbol_of)
from .gabormatrix import (DecayProfile, GaborMatrix, OffgridReport,
                          RowPaddedMatrix, SparseGaborMatrix,
                          SymbolClassReport, decay_profile,
                          envelope_fit, gabor_magnitudes, gabor_matrix,
                          gabor_matrix_from_csv, gabor_matrix_to_csv,
                          offgraph_max, offgrid_decay_check,
                          operator_decay_profile, profile_to_csv,
                          schur_bound, sparsify, symbol_class_norm)
from .algebra import (DEFAULT_S_THRESHOLD, AlgebraReport,
                      factorize_metaplectic, verify_composition,
                      verify_inverse)

__version__ = "0.1.0"
