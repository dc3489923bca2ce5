"""Exception types shared across the simulator."""


class ThermoError(Exception):
    """Base class for all physics / configuration errors raised here."""


class DomainError(ThermoError):
    """An input is outside the physically meaningful domain (T <= 0, C >= 1, ...)."""


class GeometryError(ThermoError):
    """Invalid sensor geometry (overlapping particles, observer inside a particle)."""


class SolverError(ThermoError):
    """The mean-field root is not bracketed by the solver's fixed bracket."""


class LabelingAmbiguityError(ThermoError):
    """Two eigenvectors have equal overlap with |m_s=0>, so the 0-like level
    cannot be identified."""


class UnmeasurableError(ThermoError):
    """The requested sensitivity is infinite (zero signal slope)."""


class EstimationError(ThermoError):
    """A protocol window could not be converted into a temperature estimate."""


class SchemaError(ThermoError):
    """Scenario configuration violates the schema; message carries the field path."""


class UsageError(Exception):
    """A scenario file that cannot be read as UTF-8 text, an output
    directory (--out, or the scenario's run.out_dir) that cannot be made (a
    file in its path, or a path the OS rejects), or an output file that is a
    directory or whose name the OS rejects; message names the path."""
