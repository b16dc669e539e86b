"""Wolstenholme-type residue power sums: brute force, closed forms, and
exhaustive verification of the congruence identities relating them."""

from . import errors
from .closedforms import (
    normalize_spec,
    power_sum,
    product_pair,
    product_pair_k,
    quick_case,
    ratio_equal_offsets,
    ratio_pair,
    ratio_single,
    triple_binomial,
    triple_general,
    triple_s1,
    triple_s2,
)
from .general import (
    GeneralSumParams,
    coeff_extraction_sum,
    esp_sum,
    multi_index_J,
    newton_esp,
    root_power_sum,
    scaling_reduce,
)
from .identities import (
    cancellation,
    comp_general,
    cong_general,
    semi_symmetry,
    transpose_binomial,
    vandermonde,
)
from .modarith import (
    Prime,
    binom,
    fermat_reduce,
    is_prime,
    make_prime,
    mod_inverse,
)
from .oracle import (
    ResidueMatrix,
    SumSpec,
    auto_exclusions,
    brute_sum,
    brute_sum_mod_p2,
    make_spec,
    power_moments,
    residue_matrix,
)
from .polyring import (
    BiPolyZp,
    PolyZp,
    build_product,
    coeff,
    poly,
    poly_mul,
    symbolic_coeff_table,
    symbolic_sum_table,
)
from .verify import REGISTRY, VerificationReport, run_one, run_verification

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
