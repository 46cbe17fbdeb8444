"""Exception hierarchy shared across the toolkit.

Every failure is one of two families, and each maps onto a CLI exit
code: ``ConfigError`` -> 2, ``DataError`` -> 3.  The message names the
cause (file and line, row, or the bad value); no caller tells causes
apart by type.
"""


class GeotaxError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GeotaxError):
    """Invalid configuration (bad key, missing key, unparseable value)."""


class DataError(GeotaxError):
    """Invalid or inconsistent input data, or an input that cannot be read."""
