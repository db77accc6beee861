"""Exception types raised across the package."""


class WavehopError(Exception):
    """Base class for every error this package raises on purpose."""


# --- WAV container ---------------------------------------------------------

class MalformedRiff(WavehopError):
    """WAV container is structurally broken (magic, chunk layout, sizes)."""


class UnsupportedEncoding(WavehopError):
    """WAV encoding other than 16-bit PCM or 32-bit IEEE float."""


class EmptySignal(WavehopError):
    """A signal must contain at least one sample."""


class NonFiniteSamples(WavehopError, ValueError):
    """Signal samples must be finite (no NaN or infinity)."""


# --- parameter validation --------------------------------------------------

class InvalidHop(WavehopError, ValueError):
    """Hop size must be an integer >= 1."""


class InvalidSpec(WavehopError, ValueError):
    """Synthesis spec violates its constraints."""


class InvalidRange(WavehopError, ValueError):
    """Frequency range for a scale grid is out of order or out of band."""


class InvalidCount(WavehopError, ValueError):
    """Scale count is not usable for the requested range."""


class InvalidScale(WavehopError, ValueError):
    """Wavelet scales must be positive, finite, ascending, and need a bounded tap count."""


class TooManyLevels(WavehopError, ValueError):
    """Requested decomposition depth exceeds what the signal length allows."""


class InvalidBank(WavehopError, ValueError):
    """Filter bank taps are inconsistent."""


class DegenerateLabels(WavehopError, ValueError):
    """Labels must be 0 or 1, with at least one of each for an AUC."""


class InvalidParameter(WavehopError, ValueError):
    """A numeric parameter or score is out of its allowed range."""


class CoefficientOverflow(WavehopError, ValueError):
    """Coefficients would not be finite, or do not fit the format that stores them."""


# --- serialized artifacts --------------------------------------------------

class MalformedHeader(WavehopError):
    """Coefficient-matrix file header is invalid."""


class TruncatedPayload(WavehopError):
    """Coefficient-matrix file ends before the declared payload."""


class IoFailure(WavehopError):
    """Underlying file read/write failed."""
