"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """Raised when a configuration value is invalid or inconsistent."""


class UsageError(ReproError):
    """Raised for invalid command-line usage (bad flags, bad combos).

    The CLI reports these in the same ``<prog>: error: <message>``
    shape argparse uses and exits with argparse's status 2, so every
    user-facing error path reads identically.
    """


class CacheError(ReproError):
    """Raised when the sweep result cache is unusable (e.g. the cache
    directory cannot be created or written)."""


class CheckError(ReproError):
    """Raised when static analysis (:mod:`repro.check`) rejects an
    experiment before simulation — e.g. the sweep pre-flight finding a
    stream whose realized ILP contradicts its declaration.

    ``check`` names the analysis pass whose finding triggered the
    rejection (e.g. ``"preflight"``, ``"compose"``) so callers can
    account rejections per pass without parsing the message.
    """

    def __init__(self, message: str, check: str = "") -> None:
        super().__init__(message)
        self.check = check


class ModelViolation(CheckError):
    """Raised when a simulated result falls outside the static CPI
    interval the analytic model proves for it (:mod:`repro.model`) — a
    simulator regression caught analytically rather than by golden
    files."""


def format_cli_error(prog: str, message) -> str:
    """The one CLI error shape: mirrors argparse's own error prefix."""
    return f"{prog}: error: {message}"


class WorkerLost(ReproError):
    """Raised when a pool worker (of a CLI sweep or the daemon) dies
    mid-cell.  The message names the cells that did not finish; nothing
    of the batch is published."""


class SimulationError(ReproError):
    """Raised when the simulated machine reaches an invalid state."""


class DeadlockError(SimulationError):
    """Raised when the simulation makes no progress for too long.

    Carries a human-readable diagnostic of each logical CPU's state so
    that synchronization bugs in workloads are debuggable.
    """

    def __init__(self, message: str, diagnostics: str = ""):
        super().__init__(message + ("\n" + diagnostics if diagnostics else ""))
        self.diagnostics = diagnostics
