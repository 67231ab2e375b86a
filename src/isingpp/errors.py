"""Exception types shared across the package.

All of these derive from ValueError so that callers who do not care about
the distinction can catch a single base. Invalid vertex indices raise the
builtin IndexError instead.
"""


class DimensionError(ValueError):
    """A spin vector or coefficient array has the wrong length."""


class ParameterError(ValueError):
    """A numeric parameter is outside its valid range."""


class SizeError(ValueError):
    """A problem or graph is too large: above ``core.SIZE_LIMIT``, or for an
    exact (enumerating) operation."""


class InputError(ValueError):
    """An input collection is empty, inconsistent, or otherwise unusable."""


class WidthError(ValueError):
    """A subgraph's elimination width exceeds the configured cap or
    ``altpp.MAX_WIDTH``."""


class ParseError(ValueError):
    """A problem or runs file is malformed; a bad config file raises
    ConfigError, a results file InputError. Message names the line or field."""


class ConfigError(ValueError):
    """An experiment configuration is inconsistent."""
