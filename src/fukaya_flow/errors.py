"""Exception types shared across the package.

Every error raised on bad user input derives from FukayaFlowError so the
CLI can map them uniformly to exit code 2.
"""


class FukayaFlowError(Exception):
    """Base class for all package errors."""


# --- link diagram parsing ---

class MalformedToken(FukayaFlowError):
    """A PD-code token is not X(a,b,c,d) or O(a) over positive integers."""


class ArcLabelNotPairedTwice(FukayaFlowError):
    """Some arc label does not occur exactly twice among the crossings."""


class InconsistentOrientation(FukayaFlowError):
    """No consistent strand orientation exists for the diagram: some
    strand cannot run a -> c through every crossing it passes under.
    links.parse_pd names one witness arc and the crossings (1-based) at
    its ends: an arc under at position 0 at both ends has two heads, one
    under at position 2 at both ends has two tails, and otherwise the
    arc along which a strand walk reaches an under-passage at position 2
    has two tails."""


class NonPlanarPD(FukayaFlowError):
    """A connected piece of a PD code fails the Euler check V - E + F = 2,
    so the code describes no diagram in the plane.  links.parse_pd
    raises it, naming the piece's smallest crossing, for every link
    input."""


class MalformedLink(FukayaFlowError, ValueError):
    """A framed link with no component, a framing count other than its
    component count or a non-int framing; a linking matrix not square,
    symmetric and of ints; a component index out of range."""


class UnknownFixture(FukayaFlowError, KeyError):
    """A fixture name is not in the catalog."""

    def __str__(self) -> str:
        # the plain message, not KeyError's quoted repr of it
        return Exception.__str__(self)


# --- presentations ---

class DuplicateGeneratorName(FukayaFlowError):
    """Two generators of one presentation or cascade complex share a
    name."""


class MalformedCategory(FukayaFlowError, ValueError):
    """A directed category presentation whose hom layers, object names,
    table keys or products do not fit, or a composition through a middle
    index it does not have; the message names which."""


# --- Morse-Bott machinery ---

class NonTransverse(FukayaFlowError):
    """A required intersection is not transverse in the flat model.

    The message names the overlapping cell groups, or the point and the
    open condition whose boundary it meets.  Caller must perturb the
    marked points.
    """


class TooManyTranslates(FukayaFlowError):
    """morse.intersect_cell_groups would search more than
    TRANSLATE_BOUND lattice translates: its equations need D^r of them,
    and the message names D, r and the bound."""


class DifferentialNotSquareZero(FukayaFlowError):
    """The differential of a claimed chain complex does not square to zero."""


class MalformedComplex(FukayaFlowError, ValueError):
    """Cascade complex columns that are not one bitmask over the
    generators each; no degree, one that is not an int >= 0 or a d not
    dropping it by one in a Betti query; an evaluation map not one
    offset per row."""


class UnsupportedModel(FukayaFlowError):
    """Morse-Bott data outside the modelled range: a flat model with more
    than two circle factors or names that miss the point grid or repeat,
    a bad circle profile, an evaluation map with a non-integer linear
    part, a correspondence cell above (R/Z)^2, or a cascade chain of two
    or more correspondences."""


class ActionOrderViolation(FukayaFlowError):
    """A correspondence does not strictly decrease the action level."""


class UnknownComponent(FukayaFlowError):
    """A correspondence names a critical component that is not given,
    or does not join the two components it is given with."""


class UnknownGenerator(FukayaFlowError):
    """A tag, boundary, relation, vector, composition or cascade query
    names no generator of the complex, presentation, hom layer or
    components; a generator has no degree."""


class NegativeCascadeCount(FukayaFlowError):
    """A cascade enumeration was asked for fewer than zero strips."""


# --- index calculus ---

class NotClosed(FukayaFlowError):
    """A loop of lines does not close up."""


class AngleOutOfRange(FukayaFlowError, OverflowError):
    """A loop has a non-finite float angle; the message names the
    breakpoint.  Every other angle is an exact rational multiple of pi."""


class UnknownConvention(FukayaFlowError, ValueError):
    """A loop's orientation convention is neither dx^dy nor dy^dx."""


class MismatchedPuncture(FukayaFlowError):
    """Glued punctures disagree (missing, reused, or different dimension)."""


class InvalidIndexProblem(FukayaFlowError, ValueError):
    """A triangle index problem has a non-int argument or no integer
    solution: the gluing equations need 2n - 1 + mu' even, and the
    vanishing-cycle triangle an even base dimension of at least 2."""


# --- numeric geometry ---

class DomainViolation(FukayaFlowError):
    """A point fails its defining constraint beyond tolerance, or is not
    of the shape its map takes."""


class BranchCutProximity(FukayaFlowError):
    """The trivialization was evaluated too close to a square-root branch cut."""


class ZeroArgument(FukayaFlowError):
    """A map was evaluated at a forbidden zero argument."""


class GridTooSmall(FukayaFlowError):
    """A sampling grid has too few points to span its interval."""


# --- quivers ---

class ShapeMismatch(FukayaFlowError):
    """Matrix shapes disagree: a quiver representation's with its
    quiver, or an evaluation map's with its cell or its target model."""


class MalformedQuiver(FukayaFlowError, ValueError):
    """A quiver presentation is not well formed: an arrow name repeats,
    an arrow ends at a non-vertex, or a relation has an empty path, a
    path that names an unknown arrow or is not composable, or paths
    with different endpoints.  The message names the arrow, vertex or
    path at fault."""


class DimensionTooLarge(FukayaFlowError):
    """A search exceeds its named bound: quiver.isomorphic walks at most
    2^HOM_DIM_BOUND elements of Hom(rep1, rep2), and the message names
    dim Hom and the bound; the test oracle's GL(n, F2) enumeration is
    capped at dimension 3."""


# --- command line ---

class MalformedArgument(FukayaFlowError):
    """A JSON command-line argument does not have the documented shape."""


class IOFailure(FukayaFlowError):
    """An output artifact could not be written."""
