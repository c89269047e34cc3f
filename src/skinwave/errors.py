"""Exception types shared across the engine."""


class SkinwaveError(Exception):
    """Base class for all engine errors."""


class InvalidGrid(SkinwaveError):
    """Grid too small or spacing nonpositive."""


class InvalidParameter(SkinwaveError):
    """Model or packet parameter outside its allowed range."""


class ExceptionalParameter(InvalidParameter):
    """|gamma/2| == |t1|: the skin factor degenerates and the chain may be defective."""


class DimensionMismatch(SkinwaveError):
    """Operands built for different matrix sizes."""


class DefectiveMatrix(SkinwaveError):
    """Eigenvector matrix too ill-conditioned for a trustworthy left basis."""


class NumericalOverflow(SkinwaveError):
    """Non-finite value produced where the scaling safeguards should have prevented it."""


class DegenerateDensity(SkinwaveError):
    """All-zero density frame; no peak can be located."""


class WidthUnavailable(SkinwaveError):
    """Too few measured widths to form a width series."""


class InsufficientData(SkinwaveError):
    """Too few samples for the requested series operation."""


class ConfigError(SkinwaveError):
    """Config file failed to parse or validate; message names the offending field."""


class UnknownPreset(SkinwaveError):
    """Preset name not in the registry."""
