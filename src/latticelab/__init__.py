"""latticelab: exact-arithmetic lattice theory toolkit.

Gram-matrix lattices, finite discriminant forms, Conway-Sloane genus
symbols, even-lattice existence/uniqueness criteria, overlattice (glue)
enumeration, and the classification pipelines for symplectic
automorphism groups of cubic fourfolds and low-degree K3 surfaces.
"""

from .lattice import (
    GramLattice,
    build_lattice,
    direct_sum,
    lattice_from_json_dict,
    named_lattice,
    rescale,
)
from .shortvec import short_vectors
from .rank2 import (
    Rank2Form,
    rank2_automorphism_orders,
    rank2_enumerate,
    rank2_form_from_gram,
    rank2_isometries,
    rank2_reduce,
)
from .fqf import (
    FiniteQuadraticForm,
    Subgroup,
    automorphisms,
    bruteforce_isomorphic,
    complement_quotient,
    direct_sum_forms,
    discriminant_form,
    discriminant_group,
    embedding_images,
    form_embeddings_mod_aut,
    isotropic_subgroups,
    negate_form,
    primary_lengths,
    total_length,
    trivial_form,
)
from .symbol import (
    GenusSymbol,
    JordanConstituent,
    form_from_symbol,
    form_from_symbol_text,
    is_isomorphic,
    parse_symbol,
    signature_mod8,
    to_symbol,
)
from .cyclotomic import gauss_sum_signature
from .nikulin import (
    ExistenceVerdict,
    LatticeInvariant,
    SaturationWitness,
    even_lattice_exists,
    primitive_embedding_into_even_unimodular_exists,
    saturations_keeping_primitive,
    unique_primitive_embedding,
)
from .casebook import (
    CaseVerdict,
    LeechPairRecord,
    PolarizationRoot,
    analyze_record,
    condition_check,
    embedding_class_count,
    full_report,
    load_table,
    nonsymplectic_order,
    phi_order_bound,
    polarization_root,
    polarized_criterion,
    root_for_degree,
    transcendental_candidates,
    uniqueness_for_record,
)
from .normalforms import (
    DiagonalAction,
    degree3_monomials,
    family_dimension,
    invariant_monomials,
    symplectic_weight_check,
)

__version__ = "0.1.0"
