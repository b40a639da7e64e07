"""Exception hierarchy shared across the package.

Every domain error derives from VolnetError so the CLI can map any failure to
exit code 1 with the class name as a machine-readable code.
"""


class VolnetError(Exception):
    """Base class for all domain errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- ingest ---

class MissingColumn(VolnetError):
    pass


def _in_file(path, msg: str) -> str:
    return msg if path is None else f"{path}: {msg}"


class UnparseableRow(VolnetError):
    def __init__(self, line_number: int, detail: str = "", path=None):
        self.line_number = line_number
        msg = f"line {line_number}"
        if detail:
            msg += f": {detail}"
        super().__init__(_in_file(path, msg))


class PriceInvariantViolation(VolnetError):
    def __init__(self, date, detail: str = "", path=None):
        self.date = date
        msg = str(date)
        if detail:
            msg += f": {detail}"
        super().__init__(_in_file(path, msg))


class DuplicateDate(VolnetError):
    def __init__(self, date, path=None):
        self.date = date
        super().__init__(_in_file(path, str(date)))


class EmptyIntersection(VolnetError):
    pass


# --- rv ---

class WindowTooSmall(VolnetError):
    pass


class SeriesTooShort(VolnetError):
    pass


class DatesNotIncreasing(VolnetError):
    def __init__(self, line_number: int, date, previous):
        self.line_number = line_number
        self.date = date
        super().__init__(f"line {line_number}: date {date} does not follow {previous}")


# --- har ---

class RankDeficientDesign(VolnetError):
    pass


# --- elasticnet ---

class NonFiniteInput(VolnetError):
    pass


class GridEmpty(VolnetError):
    pass


class TooFewObservations(VolnetError):
    pass


class DidNotConvergeWarning(UserWarning):
    """The elastic-net solver hit max_iter iterations before its KKT
    certificate held to tol; the last iterate is returned with converged=False."""


# --- hybrid / evaluation ---

class HistoryTooShort(VolnetError):
    pass


# --- jirf ---

class SingularSubmatrix(VolnetError):
    pass


class ExplosiveModel(VolnetError):
    pass


class NonFiniteSimulation(VolnetError):
    pass


# --- bootstrap ---

class PanelTooShort(VolnetError):
    pass


class TooManyReplicateFailures(VolnetError):
    def __init__(self, n_failed: int, n_total: int, by_code: dict[str, int]):
        self.n_failed = n_failed
        self.n_total = n_total
        self.by_code = dict(sorted(by_code.items()))
        detail = ", ".join(f"{code}: {n}" for code, n in self.by_code.items())
        super().__init__(f"{n_failed} of {n_total} replicates failed"
                         + (f" ({detail})" if detail else ""))


# --- evaluation ---

class DegenerateSplit(VolnetError):
    pass


class LengthMismatch(VolnetError):
    pass


class ZeroActualForMape(VolnetError):
    pass


class ExplosiveSpec(VolnetError):
    pass


# --- cli ---

class InvalidConfig(VolnetError):
    pass
