"""Exception types and the check report shared across the package.

Failures of mathematical preconditions get their own classes so that
tests can assert the precise failure mode.  A plain unsolvable linear
system is not an error (solve returns None); these exceptions mark
structural defects in the input data or certified-window violations;
checks that report rather than raise record into a TakeuchiReport.
Each class carries the exit code of the command line in exit_code.
"""


class HopfHomologyError(ValueError):
    """A package error; exit_code 1 marks a structural failure with this witness."""

    exit_code = 1

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or message


class ValidationError(HopfHomologyError):
    """Constructor rejected data that violates a structural axiom."""


class NotWellDefinedError(HopfHomologyError):
    """A map does not descend to the requested quotient."""


class NotInvertibleError(HopfHomologyError):
    """The Galois map is not bijective, so the bialgebroid is not Hopf."""

    def __init__(self, message, rank=None, dims=None):
        super().__init__(message, f"{message}: rank {rank} of {dims}")
        self.rank = rank
        self.dims = dims


class NotProjectiveError(HopfHomologyError):
    """No splitting exists, so the module is not projective."""


class NotDualityError(HopfHomologyError):
    """Ext against the ring does not concentrate in a single degree."""


class LiftFailedError(HopfHomologyError):
    """A chain-map lift was inconsistent (target not exact in range)."""


class WindowExceededError(HopfHomologyError):
    """A homological degree outside the certified window was requested."""

    exit_code = 3


class TakeuchiReport:
    """Named checks with the witness of each failed one."""

    def __init__(self, checks=None, failures=None):
        self.checks = {} if checks is None else checks
        self.failures = [] if failures is None else failures

    def record(self, name, ok, witness=None):
        self.checks[name] = bool(ok)
        if not ok:
            self.failures.append(witness if witness else name)

    def sweep(self, name, witnesses):
        """Record a basis sweep: witnesses lazily yields one string per failing element.

        The check passes iff it yields none; the first one is the witness.
        """
        witness = next(iter(witnesses), None)
        self.record(name, witness is None, witness)

    @property
    def ok(self):
        return all(self.checks.values())
