"""Finite groupoid C*-algebra toolkit.

Builds and validates finite groupoids, their convolution *-algebras and
block invariants, bundles of fibers over a base groupoid induced by
surjective morphisms (with numerically certified axioms and section
algebras), finite-depth graph path machinery, groupoid actions and
coverings, 2-cocycles and twisted algebras, and the reconstruction of
twisted coverings from bundles with commutative unit fibers.
"""

from .groupoid import (AssociativityFailure, Bisection, FiniteGroupoid,
                       GroupoidError, GroupoidMorphism, IllegalComposite,
                       InverseFailure, KernelDecomposition, MissingComposite,
                       MorphismClassification, NotABisection, NotAMorphism,
                       NotASubgroupoid, NotSurjective, UnitFailure,
                       check_bisection, check_morphism, classify_morphism,
                       greedy_bisection_cover, isotropy_quotient, kernel,
                       subgroupoid, validate_groupoid)
from .algebra import (AlgebraElement, BaseMismatch, NumericalDegeneracy,
                      RegularRepresentation, WedderburnInvariants,
                      conditional_expectation, convolve, cstar_norm,
                      faithfulness_defect, involute, positivity_check,
                      random_element, wedderburn)
from .bundle import (AxiomReport, BundleNotVerified, FellBundle,
                     FellBundleError, FiberElement, IsoReport, NotComposable,
                     NotSaturated, Section, SectionAlgebra,
                     bisection_bimodule_check, build_bundle, fiber_mul,
                     fiber_norm, fiber_star, line_bundle, psi, psi_iso_check,
                     section_algebra, verify_axioms)
from .graphs import (DirectedGraph, DomainNotCollapse, GraphMorphism,
                     IncidenceViolation, LiftSet, NotLiftable,
                     check_graph_morphism, collapse_morphism,
                     cylinder_cover_check, grading_degree,
                     kernel_fiber_groupoid, lift_counts, lift_paths)
from .actions import (ActionAxiomViolation, Cocycle, CocycleIdentityFailure,
                      GroupoidAction, LineDimensionFailure, NotACovering,
                      NotAbelian, TwistedConvolutionAlgebra, abelian_extract,
                      build_action_groupoid, cocycle_check,
                      coboundary_cocycle, covering_to_action,
                      pullback_cocycle, trivial_cocycle, twisted_algebra,
                      validate_action)
from .extensions import (CharacterData, GroupExtension, GroupTable,
                         NotAbelianKernel, NotNormal, group_extension_bundle,
                         unit_root)

__version__ = "0.1.0"
