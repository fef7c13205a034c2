"""Exception types shared across the package."""


class ClusterSolError(Exception):
    """Base class for all errors raised by this package."""


# --- tame field ---

class NonOddPrime(ClusterSolError):
    pass


class WildRamification(ClusterSolError):
    pass


class ZeroElement(ClusterSolError):
    pass


class PrecisionExhausted(ClusterSolError):
    pass


# --- curve input ---

class ParseError(ClusterSolError):
    pass


class UnsupportedFactor(ClusterSolError):
    pass


class DegreeTooSmall(ClusterSolError):
    pass


class NotGaloisClosed(ClusterSolError):
    pass


class WildInput(ClusterSolError):
    pass


class RootCollision(ClusterSolError):
    pass


class NonRationalCoefficient(ClusterSolError):
    pass


# --- corpus ---

class CorpusError(ClusterSolError):
    pass


# --- oracle ---

class NotSquarefree(ClusterSolError):
    pass


class InternalError(ClusterSolError):
    pass
