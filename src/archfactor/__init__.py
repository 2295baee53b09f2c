"""archfactor: archimedean Gamma factors, pole bookkeeping and
zeta-regularized determinants for Hodge-numeric data.

The package answers one question from two independent directions and
checks that they agree: given the Hodge numbers of a smooth projective
variety over R or C, the completed alternating product of its
archimedean local factors equals, up to an explicit constant, the ratio
of zeta-regularized determinants of the scaling generator acting on the
even and odd parts of a graded cyclic homology theory.
"""

from .cyclic import (Progression, SpectralMeasure, a_to_e, e_to_a,
                     har_dim, hc_dim, hc_dim_complex, hn_dim, hp_dim,
                     is_cyclic_pair, is_pole_pair, theta_spectrum)
from .deligne import OutOfRegimeError, deligne_dim, pole_order
from .factors import completed_alternating_product, serre_factor
from .gamma import (GammaExpression, SINGULARITY_GUARD,
                    SingularEvaluationError, evaluate_log, loggamma_signed,
                    nearest_divisor_point, normalize, order_at, product,
                    render)
from .hodge import (HodgeData, InputError, PRESET_NAMES, Place, WeightPiece,
                    betti, betti_eigen, direct_sum, from_json_dict, preset,
                    to_json_dict, validate)
from .regdet import finite_regdet_log, hurwitz_zeta_deriv0, regdet_progression
from .verify import SamplePoint, VerificationReport, verify_theorem

__version__ = "0.1.0"

