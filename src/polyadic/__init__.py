"""Finite polyadic (n-ary) groups: construction, verification and analysis.

The package covers the constructive theory at desk scale: n-ary Cayley
tables and twisted (automorphism, element) presentations, binary retracts,
canonical self-actions with conjugacy classes and centralizers, Post
covering groups, complex matrix representations with characters, and normal
subgroups with quotients and the simplicity classification.
"""

__version__ = "0.1.0"

from .errors import (
    CriterionUnavailableError,
    InvalidGroupError,
    ParseError,
    PolyadicError,
    SizeLimitError,
)
from .report import VerificationReport
from .binary import (
    BinaryGroup,
    HGData,
    abelian_characters,
    abelian_invariants,
    automorphisms,
    cyclic_group,
    dihedral_group,
    direct_product,
    find_isomorphism,
    is_automorphism,
    quaternion_group,
    small_group_tag,
    symmetric_group_3,
    verify_binary_table,
)
from .core import (
    NaryGroup,
    is_nary_identity,
    is_semiabelian,
    retract_table,
    verify_associativity,
    verify_nary_group,
    verify_quasigroup,
)
from .retract import b_derived, derived, hg_construct, hg_decompose, retract, retract_isomorphism
from .structure import (
    Partition,
    QuotientGroup,
    SimplicityReport,
    SubgroupRef,
    central_elements,
    classify_simplicity,
    cosets,
    is_central,
    is_normal,
    is_subgroup,
    normal_subgroups,
    quotient,
    subgroup_closure,
    subgroups,
    verify_subgroup,
)
from .action import (
    Action,
    canonical_action,
    centralizer,
    conjugacy_classes,
    conjugate_subgroup_closure,
    is_conjugation_congruence,
    orbits,
    stabilizer,
    verify_action,
)
from .cover import CoveringGroup, cover_H, covering_group, verify_embedding
from .rep import (
    BinaryRepresentation,
    Character,
    DerivedLiftCriteria,
    GModule,
    Representation,
    TernaryMinusClassification,
    character,
    character_conjugation_rule,
    classify_ternary_minus,
    coset_example_group,
    der_b_lift_criteria,
    equivalent,
    factor_rep,
    hat_char,
    hat_rep,
    kernel,
    kernel_chi,
    lift_from_retract,
    lift_module_from_cover,
    maschke_decompose,
    one_dim_reps,
    one_dim_reps_bruteforce,
    orthogonality_check,
    pull_back_rep,
    restrict_to_coset,
    similar_representations,
    value_vector_set,
    verify_binary_representation,
    verify_representation,
)
from .fileformat import group_from_dict, group_to_dict, load_group, save_group
