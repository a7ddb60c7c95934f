"""Exact-arithmetic toolkit for zero-divisor graphs of finite nilpotent rings.

Subpackages:

* fpcore: linear algebra over Z_p (rref, kernels, canonical subspaces)
* algebra: structure-constant algebras, quotients, annihilators, JSON form
* constructions: the two-step quotient builder, the paper's quotients,
  product/annihilator criteria,
  relation-form invariants, non-isomorphism certificates
* graphs: explicit and blow-up zero-divisor graphs, isomorphism, fingerprints
* identities: polynomial identities checked by substitution
* rings: element-level finite rings with composite additive orders
* catalog: census of the variety xyz=0, x^2=0, 2x=0 and graph determinacy
* cli: the zdg-forge command line
"""

from .algebra import (
    AlgebraElement,
    SCAlgebra,
    algebra_from_json,
    algebra_to_json,
    annihilator,
    direct_sum,
    field_algebra,
    ideal_generated,
    make_algebra,
    mul,
    quotient,
    square_ideal,
    zero_mul_algebra,
)
from .catalog import (
    CatalogEntry,
    brute_force_census,
    determinacy_report,
    enumerate_variety_rings,
    rings_isomorphic,
)
from .constructions import (
    Certificate,
    GradedPresentation,
    RelationForm,
    annihilator_exhaustive,
    construct,
    free_m1,
    free_m2,
    noniso_certificate,
    product_criterion,
    product_criterion_exhaustive,
    relation_form,
    two_step_quotient,
)
from .errors import (
    AssociativityViolation,
    CapExceeded,
    EvenCharacteristicUnsupported,
    IdentityParseError,
    NotAnIdeal,
    PremiseNotSatisfied,
    RingAxiomViolation,
    ZdgError,
)
from .fpcore import FpMatrix, FpVector, PrimeField, Subspace, is_invertible, kernel, rref
from .graphs import (
    BlowupGraph,
    IsoResult,
    ZdGraph,
    blowup_isomorphic,
    compressed_graph,
    expand,
    explicit_graph,
    fingerprint,
    graphs_isomorphic,
)
from .identities import (
    HoldsResult,
    Identity,
    direct_sum_degree,
    holds,
    lower_degree,
    parse,
    power_identity,
    verify_sum_lemma,
)
from .rings import TableRing, null_ring, ring_direct_sum, ring_table, zn_ring

__version__ = "0.1.0"
