"""Exact symbolic kernel for Lie-Rinehart algebras: their enveloping
algebras with normal-form rewriting, the coproduct/counit/antipode
living on those, the differential-graded calculus of multivectors, and
machine verification batteries for every axiom involved.
"""

from .algebra import (
    AlgebraMorphism,
    CommutativeAlgebra,
    Derivation,
    GeneratorDecl,
    LaurentPoly,
    antipode_morphism,
    comultiplication,
    counit_morphism,
    identity_morphism,
)
from .calculus import (
    MultiVector,
    ce_differential,
    check_gerstenhaber,
    check_lr_bialgebra,
    dual_differential,
    schouten_bracket,
)
from .dsl import ParseError, parse_env_element, parse_expression, parse_structure_file
from .enveloping import EnvElement, check_action, check_pbw
from .hopf import (
    antipode,
    check_antipode,
    check_bialgebra,
    check_hopf_axioms,
    check_hopf_lr,
    cobracket_images,
    conjecture_probe,
    coproduct,
    counit,
    standard_coproduct,
)
from .lie_rinehart import (
    LieRinehartAlgebra,
    LRElement,
    check_bi_lr,
    check_lr_axioms,
    make_opposite,
    tensor_square,
)
from .report import CheckResult, Report
from .tensor import CoproductLikeMap, TensorEnvElement, tensor_pair

__version__ = "0.1.0"

__all__ = [
    "AlgebraMorphism",
    "CheckResult",
    "CommutativeAlgebra",
    "CoproductLikeMap",
    "Derivation",
    "EnvElement",
    "GeneratorDecl",
    "LaurentPoly",
    "LieRinehartAlgebra",
    "LRElement",
    "MultiVector",
    "ParseError",
    "Report",
    "TensorEnvElement",
    "antipode",
    "antipode_morphism",
    "ce_differential",
    "check_action",
    "check_antipode",
    "check_bi_lr",
    "check_bialgebra",
    "check_gerstenhaber",
    "check_hopf_axioms",
    "check_hopf_lr",
    "check_lr_axioms",
    "check_lr_bialgebra",
    "check_pbw",
    "cobracket_images",
    "comultiplication",
    "conjecture_probe",
    "coproduct",
    "counit",
    "counit_morphism",
    "dual_differential",
    "identity_morphism",
    "make_opposite",
    "parse_env_element",
    "parse_expression",
    "parse_structure_file",
    "schouten_bracket",
    "standard_coproduct",
    "tensor_pair",
    "tensor_square",
    "__version__",
]
