"""Exact computational commutative algebra for reverse-lex generic initial
ideals of low-regularity projective subschemes: Buchberger bases, Borel-fixed
combinatorics, Eliahou-Kervaire Betti tables, ND(1) section analysis, and the
tailing-Betti / sectional-1-normality transform."""

from .borel import (BettiTable, MonomialIdeal, borel_closure, ek_betti,
                    hilbert_function, is_borel_fixed, stratum)
from .errors import (GenericityError, GintailError, HypothesisError,
                     InhomogeneousError, InternalCheckError, NotBorelFixedError,
                     ParseError, RegularityError, RingMismatchError,
                     SaturationRetryError, SingularMatrixError, UnitIdealError)
from .gin import (GinCertificate, certificate_for_borel_ideal, compute_gin,
                  generic_section_gin)
from .groebner import (GroebnerBasis, buchberger, hilbert_function_rank_oracle,
                       initial_ideal, saturate_by_general_linear_form)
from .invariants import (HilbertPolynomial, SchemeProfile, depth_pd,
                         hilbert_polynomial, marginal_betti, nd1_check,
                         regularity, scheme_profile)
from .ring import (Monomial, Polynomial, PolyIdeal, PrimeField, QQ, RingCtx,
                   apply_linear_change)
from .tailing import (TailingReport, XiMatrix, betti_from_normality,
                      build_tailing_report, cohomology_from_tailing,
                      degree_genus_from_tailing, hilbert_from_tailing,
                      normality_from_betti, sectional_normality,
                      structure_check, tailing_from_gin, vector_report,
                      xi_inverse, xi_matrix)

__version__ = "0.1.0"
