"""The public names of ``entcore``, pinned so that any change to them is a deliberate diff here."""

import types

import entcore

PUBLIC_NAMES = {
    # decompose
    "ConcentrationLevel",
    "ConcentrationTree",
    "HosvdResult",
    "ParameterCount",
    "TripartiteExtract",
    "concentrate",
    "count_parameters",
    "count_tree_parameters",
    "extract_tripartites",
    "hosvd",
    "reconstruct",
    # equivalence
    "EQUIVALENT",
    "INCONCLUSIVE",
    "INEQUIVALENT",
    "LU",
    "SLOCC",
    "EquivalenceCertificate",
    "EquivalenceVerdict",
    "LocalOperatorSet",
    "MATRIX_RANK",
    "SINGULAR_VALUE_SUM",
    "SQRT_SINGULAR_VALUE_SUM",
    "SpectralFunctional",
    "derive_certificate",
    "invariant_filter",
    "kron_factorize",
    "realign_rank1_check",
    "search_equivalence",
    "search_p_tilde",
    "spectral_preservation_check",
    "verify_certificate",
    # states
    "StateSpec",
    "apply_local",
    "ghz_state",
    "haar_unitary",
    "make_state",
    "paper4_state",
    "paper6_state",
    "product_state",
    "random_invertible",
    "random_state",
    "w_state",
    # tensor_ops
    "as_tensor",
    "pair_dims",
    "realign",
    "rescale",
    "tensor_norm",
    "unfold",
    "unrescale",
    "vectorize",
    "wrap",
}


def test_public_names_are_pinned():
    # submodules show up as attributes once anything imports them, so they are not names
    names = {
        n
        for n, v in vars(entcore).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
