"""Exact solvers and constructions for the Hopf, pentagonal and quantum
Yang-Baxter equations on V (x) V, with the FRT-type bialgebra B(R) built from
any finite-dimensional solution."""

from .fields import QQ, Field, FieldError, PrimeField, parse_field
from .freealgebra import NCPoly, TensorPoly, comatrix_alphabet, free_alphabet
from .tensorops import (
    CapExceededError,
    EndoV,
    TensorOp,
    check_cocommutative,
    check_commutative,
    check_hopf,
    check_pentagon,
    check_qybe,
    conjugate,
    enumerate_solutions,
    from_structure_constants,
    identity_op,
    invert,
    leg,
    pair_tensor,
    solution_report,
    switch,
    to_structure_constants,
)
from .bialgebras import (
    GradedModuleSpec,
    StructureBialgebra,
    check_bialgebra_axioms,
    galois_beta,
    galois_rprime,
    graded_solution,
    group_algebra,
    takesaki,
)
from .frt import (
    NotHopfSolutionError,
    Presentation,
    build,
    chi,
    chi_relations,
    frt_commutative,
    frt_presentation,
    verify_commutator_identity,
    verify_defect_identity,
    verify_delta_chi,
)
from .rewriting import (
    DimensionReport,
    RewriteSystem,
    check_coideal,
    complete,
    dimension,
    irreducible_words,
    normal_form,
    presentations_equivalent,
    quotient_bialgebra,
)
from .hopfmodules import (
    BialgebraHopfModule,
    HopfModuleData,
    act_poly,
    act_word,
    check_hopf_compat,
    induced_R,
    module_from_R,
    obstructions,
    regular_hopf_module,
    verify_morphism,
)

__version__ = "0.1.0"
