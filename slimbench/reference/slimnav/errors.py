"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class SensorError(RuntimeError):
    """Sensor query from an invalid pose (e.g. inside an obstacle)."""


class NoPathError(RuntimeError):
    """Start and goal are not connected in the motion graph."""


class LoadError(RuntimeError):
    """Artifact file is missing fields, truncated, or version-mismatched."""


class TrainingError(RuntimeError):
    """Training produced non-finite values."""


class DependencyError(RuntimeError):
    """A required upstream artifact is missing or inconsistent."""


class ConstraintViolation(RuntimeError):
    """Trained policy failed the path-length constraint gate."""
