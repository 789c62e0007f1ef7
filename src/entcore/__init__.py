"""entcore: concentrate multipartite pure states into bipartite/tripartite
cores and verify LU/SLOCC equivalence through block-structured certificates,
realignment rank tests and spectral invariants."""

from .decompose import (
    ConcentrationLevel,
    ConcentrationTree,
    HosvdResult,
    ParameterCount,
    TripartiteExtract,
    concentrate,
    count_parameters,
    count_tree_parameters,
    extract_tripartites,
    hosvd,
    reconstruct,
)
from .equivalence import (
    EQUIVALENT,
    INCONCLUSIVE,
    INEQUIVALENT,
    LU,
    SLOCC,
    EquivalenceCertificate,
    EquivalenceVerdict,
    LocalOperatorSet,
    MATRIX_RANK,
    SINGULAR_VALUE_SUM,
    SQRT_SINGULAR_VALUE_SUM,
    SpectralFunctional,
    derive_certificate,
    invariant_filter,
    kron_factorize,
    realign_rank1_check,
    search_equivalence,
    search_p_tilde,
    spectral_preservation_check,
    verify_certificate,
)
from .states import (
    StateSpec,
    apply_local,
    ghz_state,
    haar_unitary,
    make_state,
    paper4_state,
    paper6_state,
    product_state,
    random_invertible,
    random_state,
    w_state,
)
from .tensor_ops import (
    as_tensor,
    pair_dims,
    realign,
    rescale,
    tensor_norm,
    unfold,
    unrescale,
    vectorize,
    wrap,
)

__version__ = "0.1.0"
