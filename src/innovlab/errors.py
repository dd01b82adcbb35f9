"""Exception hierarchy shared by all innovlab modules."""


class InnovlabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(InnovlabError):
    """Invalid grid, model parameters, or experiment configuration."""


class ShapeError(InnovlabError):
    """Operands live on different grids or have incompatible dimensions."""


class DegeneracyError(InnovlabError):
    """A weighted ensemble collapsed (all weights vanished or underflowed)."""


class NumericalError(InnovlabError):
    """Non-finite inputs or linear algebra beyond rescue."""


class UsageError(InnovlabError):
    """Operation called with inconsistent or missing arguments."""


class AbsoluteContinuityError(InnovlabError):
    """Relative entropy requested between laws without p << q."""


class UnsupportedModelError(InnovlabError):
    """A closed-form oracle was asked for a model outside its family."""


class ChildProcessLost(InnovlabError):
    """A forked child ended without sending back its results."""


class StageError(InnovlabError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # rebuilt from its stage and cause, so that it pickles: a forked
        # child sends its error to the caller that way
        return type(self), (self.stage, self.cause)
