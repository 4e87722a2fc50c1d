"""Witness systems for finite-group compatibility.

Builds a common group with isomorphic normal subgroups whose quotients are
two given groups, via inverse limits over in-forest posets, wreath and
hybrid wreath products, and a recursive good-witness construction; every
certificate is independently checkable.
"""

from .bounds import DEFAULT_BOUNDS, Bounds, HypothesisError, UndecidedError
from .catalog import construct, frobenius21, named_group, quaternion
from .groups import (
    FiniteGroup,
    Subgroup,
    alternating,
    central_subgroup_of_order_p,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_elements,
    normal_sylow,
    symmetric,
    trivial_group,
)
from .homs import Homomorphism, compose, image, kernel, quotient, restrict
from .hybrid import (
    HybridWreath,
    bw_as_limit,
    evaluation_maps,
    hybrid_wreath,
    transversal_independence,
)
from .inverse_limits import (
    InverseSystem,
    LimitGroup,
    Subsystem,
    SystemMorphism,
    kernel_system,
    limit,
    limit_of_morphism,
    preimage_system,
    projection_system,
    section_of_set_system,
    star_limit,
    star_system,
    subsystem_limit,
)
from .isos import (
    AutomorphismSet,
    automorphism_set,
    conjugate_transport,
    enumerate_isomorphisms,
    find_isomorphism,
    inner_automorphisms,
    restricted,
    stabilized,
)
from .posets import Poset, chain_poset, star_poset
from .sequences import (
    GroupSequence,
    concatenation,
    contraction,
    pad_to_length,
    sequence_to_series,
    series_to_sequence,
    sharp,
)
from .witness import (
    CompData,
    VerificationReport,
    WitnessCertificate,
    assemble_certificate,
    build_good_witness,
    build_recursion_step,
    build_witness_length2,
    comp_membership,
    compatible_central_series,
    compose_witness,
    is_trivially_extendable,
    sequences_from_series,
    square_free_series,
    verify_witness,
    witness_nilpotent,
    witness_square_free,
)
from .wreath import (
    GroupAction,
    PermutationTransversal,
    StandardEmbedding,
    WreathProduct,
    coset_action,
    default_transversal,
    embedding_conjugator,
    natural_action,
    standard_embedding,
    wreath_of_homomorphisms,
    wreath_product,
)

__version__ = "0.1.0"
