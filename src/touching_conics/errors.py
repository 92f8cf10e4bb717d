"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed input (wrong degree, empty range, bad enum value)."""


class InvalidParameterError(ValueError):
    """Surface parameters violate a hard constraint (a <= 0 or b <= 0)."""


class DomainError(ValueError):
    """Quantity requested outside its legal domain; message names the violated constraint."""


class DegeneratePlaneError(DomainError):
    """Plane slice where the two branch factors coincide."""


class DegenerateConicError(ValueError):
    """Conic matrix is singular, i.e. the conic is a union of lines."""


class PreconditionError(RuntimeError):
    """A documented operation precondition does not hold."""


class NotFoundError(RuntimeError):
    """Search exhausted its budget without an admissible candidate."""
