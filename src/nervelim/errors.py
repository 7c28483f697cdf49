class GuardExceeded(RuntimeError):
    """An enumeration guard (levels selected, vertices of a level or of all
    levels, simplex dimension, partial selections searched) was exceeded."""


class InputError(ValueError):
    """Malformed user input (files, configuration)."""


class PreconditionUnmet(ValueError):
    """A check cannot run on the selected levels (no maximum level, a chain
    level that was not built); the run reports it as skipped."""
