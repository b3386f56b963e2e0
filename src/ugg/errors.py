"""Exception types shared across the package."""


class UggError(Exception):
    """Base class for all errors raised by this package."""


class InputError(UggError):
    """A caller's input is malformed or out of range, as opposed to a failed
    check of a well-formed input; the command line exits 2 on it."""


class IndexOutOfRange(InputError, IndexError):
    """A vertex or node index lies outside its valid range."""


class EqualIndices(InputError, ValueError):
    """Two indices that must differ are equal."""


class InvalidSize(InputError, ValueError):
    """A size parameter is not a positive integer in its allowed range."""


class DegenerateEdge(InputError, ValueError):
    """An edge joins a vertex to itself."""


class SizeTooLarge(UggError, ValueError):
    """An input exceeds a documented size cap."""


class InvalidS(InputError, ValueError):
    """The split parameter s is outside [1, |V(T)|]."""


class PreconditionViolated(UggError, ValueError):
    """A checked structural precondition does not hold; the message names it."""


class SizeMismatch(InputError, ValueError):
    """Two objects that must have equal sizes do not."""


class InternalInvariantBroken(UggError, RuntimeError):
    """The implementation detected a state its own invariants forbid."""


class NotACaterpillar(InputError, ValueError):
    """The input tree is not a caterpillar."""


class NotTwoChord(InputError, ValueError):
    """The input graph is not a cycle with exactly two chords."""


class NoRealizingPair(UggError, RuntimeError):
    """No pair of star centers realizes the required circular distance."""


class NoSpanningCycle(UggError, ValueError):
    """The host graph does not contain the spanning cycle 0,1,...,n-1."""


class MalformedInput(InputError, ValueError):
    """A text file does not conform to its documented format."""
