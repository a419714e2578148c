"""Exception taxonomy for the workbench.

Every contract violation raises a named class so callers (and tests) can
distinguish failure modes without parsing messages.
"""


class TouchlabError(Exception):
    """Base class for all workbench errors."""


# --- stream / descriptor validation -----------------------------------------

class ZeroRate(TouchlabError, ValueError):
    pass


class UnknownKind(TouchlabError, ValueError):
    pass


class DuplicateStream(TouchlabError, ValueError):
    pass


# --- record log --------------------------------------------------------------

class BadMagic(TouchlabError, ValueError):
    pass


class VersionMismatch(TouchlabError, ValueError):
    pass


class TruncatedChunk(TouchlabError, ValueError):
    pass


class UnsortedSamples(TouchlabError, ValueError):
    pass


# --- scenario synthesis ------------------------------------------------------

class OverlappingEvents(TouchlabError, ValueError):
    pass


class NotAContainer(TouchlabError, ValueError):
    pass


class ContactOutsideSurface(TouchlabError, ValueError):
    pass


# --- signal processing -------------------------------------------------------

class NyquistViolation(TouchlabError, ValueError):
    pass


class TooShort(TouchlabError, ValueError):
    pass


class MissingModality(TouchlabError, ValueError):
    pass


class InsufficientData(TouchlabError, ValueError):
    pass


class NoOnset(TouchlabError, ValueError):
    pass


class NonDecaying(TouchlabError, ValueError):
    pass


# --- optics ------------------------------------------------------------------

class BudgetTooSmall(TouchlabError, ValueError):
    pass


class EmptyMask(TouchlabError, ValueError):
    pass


class ZeroMean(TouchlabError, ValueError):
    pass


# --- neural network engine ---------------------------------------------------

class ShapeMismatch(TouchlabError, ValueError):
    pass


class EmptyDataset(TouchlabError, ValueError):
    pass


class LabelOutOfRange(TouchlabError, ValueError):
    pass


# --- liquid-level analysis ---------------------------------------------------

class NoTapsFound(TouchlabError, ValueError):
    pass


# --- CLI ---------------------------------------------------------------------

class ScenarioParseError(TouchlabError, ValueError):
    pass


class ConfigError(TouchlabError, ValueError):
    pass
