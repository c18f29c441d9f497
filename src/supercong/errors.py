"""Exception types shared across the package."""


class SupercongError(Exception):
    """Base class for package-specific errors."""


class InvalidPrime(SupercongError):
    """Value is not an odd prime >= 5."""


class NotPAdicInteger(SupercongError):
    """Rational has the working prime in its denominator."""


class PrecisionMismatch(SupercongError):
    """Residue precision outside the supported range."""


class NonUnitDivisor(SupercongError):
    """Inversion or division by a residue that is not a unit."""


class WrongResidueClass(SupercongError):
    """Prime lies outside the residue class the operation requires."""


class WeightZero(SupercongError):
    """Weighted point count requested with weight exponent 0."""


class UnknownId(SupercongError):
    """Family or identity id not present in the catalog."""


class GridBoundExceeded(SupercongError, ValueError):
    """Prime lies past the float64 bound of the T1.1 grids."""
