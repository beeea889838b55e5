"""Exact computation of the flow category and the directed
Donaldson-Fukaya presentation attached to a framed link, with the
supporting combinatorial and numeric machinery: link-complement
homology over Z/2, Morse-Bott cascade complexes on flat models,
Maslov-index and Fredholm-gluing arithmetic, quadric geometry checks,
and quivers with relations over F2.
"""

from .errors import FukayaFlowError
from .flow import DirectedCategoryPresentation, build_flow_category, \
    rp2_category
from .fukaya import build_fukaya_category, verify_theorem_b
from .homology import ComplementHomology, F2Presentation, \
    complement_homology
from .links import FramedLink, LinkDiagram, LinkingMatrix, fixture, \
    linking_matrix, linking_number, parse_pd
from .morse import CascadeComplex, CriticalComponent, Correspondence, \
    cascade_moduli, differential_case_I, handle_complex_from_link

__all__ = [
    "CascadeComplex", "ComplementHomology", "Correspondence",
    "CriticalComponent", "DirectedCategoryPresentation", "F2Presentation",
    "FramedLink", "FukayaFlowError", "LinkDiagram",
    "LinkingMatrix", "build_flow_category", "build_fukaya_category",
    "cascade_moduli", "complement_homology", "differential_case_I",
    "fixture", "handle_complex_from_link", "linking_matrix",
    "linking_number", "parse_pd", "rp2_category",
    "verify_theorem_b",
]

__version__ = "0.1.0"
