"""Exception types raised across the package.

Every domain error derives from LatticeLabError so callers (and the CLI)
can distinguish bad mathematical input from programming errors.
"""


class LatticeLabError(Exception):
    """Base class for all domain errors."""


class NonSymmetricError(LatticeLabError):
    """Gram matrix is not symmetric."""


class DegenerateError(LatticeLabError):
    """Bilinear form is degenerate (determinant zero)."""


class ZeroScaleError(LatticeLabError):
    """Rescaling factor must be nonzero."""


class NotDefiniteError(LatticeLabError):
    """Operation requires a definite form."""


class IndefiniteLatticeError(NotDefiniteError):
    """Short vector enumeration needs a definite lattice."""


class RankTooLargeError(LatticeLabError):
    """Enumeration rank cap exceeded."""


class NormCapExceededError(LatticeLabError):
    """Short vector norm cap exceeded."""


class OddLatticeError(LatticeLabError):
    """Discriminant quadratic forms exist only for even lattices."""


class CapExceededError(LatticeLabError):
    """A work cap exceeded: group order, determinant, trial divisor or symbol rank."""


class NotIsotropicError(LatticeLabError):
    """Subgroup is not isotropic for the quadratic form."""


class SymbolSyntaxError(LatticeLabError):
    """Genus symbol string does not match the grammar."""


class RealizabilityError(LatticeLabError):
    """Genus symbol violates the 2-adic sign/oddity constraints."""


class BadSignatureError(LatticeLabError):
    """Target signature is inconsistent with an even unimodular lattice."""


class NotMaximalRankError(LatticeLabError):
    """Operation only applies when the complement has rank 2."""


class AssumptionMissingError(LatticeLabError):
    """Record lacks the isometry-surjectivity flag needed for counting."""


class MixedWeightClassesError(LatticeLabError):
    """Monomials do not share a single weight class mod n."""


class DataFileMissingError(LatticeLabError):
    """A bundled data table could not be located."""


class UnknownLatticeError(LatticeLabError):
    """Name is not in the named-lattice registry."""
