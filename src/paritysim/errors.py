"""Exception types raised across the package."""


class ParitySimError(Exception):
    """Base class for all errors raised by paritysim."""


class DegenerateState(ParitySimError):
    """A state with (near-)zero norm where a normalizable state is required."""


class DegenerateSuperposition(ParitySimError):
    """u and v coincide up to sign, so u + v or u - v has no direction."""


class NonRealOverlap(ParitySimError):
    """The inner product <u|v> has an imaginary part beyond tolerance."""


class TruncationTooSevere(ParitySimError):
    """The probability weight above the requested cutoff exceeds the tolerance."""


class InvalidMode(ParitySimError):
    """Mode index out of range, or the same mode was named twice."""


class InvalidResource(ParitySimError):
    """A resource specification that cannot define an entangled pair (e.g. N == M)."""


class SchemaError(ParitySimError):
    """A scenario document violates the schema.

    ``path`` names the first offending field; ``errors`` lists every
    (path, message) pair found, so a document is validated in one pass.
    """

    def __init__(self, path: str, message: str, errors=None):
        self.path = path
        self.errors = list(errors) if errors else [(path, message)]
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.errors))
