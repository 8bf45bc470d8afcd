"""Exception types shared across the library."""


class AirnavError(Exception):
    """Base class for all airnav errors."""


class GimbalLockError(AirnavError):
    """Euler-angle extraction attempted with pitch too close to +/-90 deg."""


class DegenerateMatrixError(AirnavError):
    """Matrix cannot be projected onto the rotation group."""


class RateMismatchError(AirnavError):
    """Sensor rates do not divide the IMU rate evenly."""


class SingularInnovationError(AirnavError):
    """Innovation covariance could not be factorized even after jitter."""


class DivergenceError(AirnavError):
    """Observer state or covariance exceeded the numerical divergence floor."""


class ConfigParseError(AirnavError):
    """Config file cannot be read, or is malformed (line number if known)."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ConfigValidationError(AirnavError):
    """Config parsed fine but violates an invariant (message names it)."""
