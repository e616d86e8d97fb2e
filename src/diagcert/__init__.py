"""Certified diagonal-equivalence analysis over exact factorial domains.

Public surface: exact ring arithmetic (rings), matrices and Smith normal
form with certificates (linalg), Groebner bases with witnesses (groebner),
finitely presented modules and Ext/Hom (homalg), cyclic filtrations
(filtration), the diagonalizability pipeline (diagonalizer), independent
oracles (testkit), and the command line (cli).
"""

from .bounds import Bounds
from .errors import (DegenerateInputError, DiagcertError,
                     FullRankRequiredError, InternalInvariantError,
                     NotEuclideanError, ParseError, StepBudgetExceeded,
                     UsageError)
from .rings import (IdealHandle, RingDescriptor, RingElement, ZZ,
                    exact_divide, gcd, lcm)
from .factorize import FactorResult, factor
from .groebner import (FreeVector, SubmoduleHandle, colon, groebner_basis,
                       ideal_intersection, membership, syzygies)
from .linalg import (EquivalenceCertificate, RingMatrix, SmithForm,
                     apply_elementary, determinant, fitting_ideal,
                     smith_normal_form, verify_certificate)
from .homalg import (FPModule, FreeResolution, Grade, IsoResult, ModuleHom,
                     QGResult, SplitResult, annihilator, element_annihilator,
                     ext, free_resolution, grade, hom_dual_sequence,
                     hom_module, is_isomorphic, is_quasi_gorenstein,
                     quotient_presentation, split_test,
                     submodule_presentation)
from .filtration import (AnnihilatorSample, CyclicFiltration,
                         FiltrationSearchResult, filtration_from_decomposition,
                         sample_lattice, search_minimal_cyclic_filtration,
                         verify_filtration)
from .diagonalizer import (DiagnosisReport, DiagonalizeResult,
                           ObstructionRecord, analyze, diagonalize)

__version__ = "0.1.0"
