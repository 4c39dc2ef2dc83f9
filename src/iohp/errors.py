"""Exception types shared across the package."""


class MatrixFormatError(ValueError):
    """Malformed Matrix Market (or CSV) input; message carries the line number."""


class BoundsError(ValueError):
    """An index fell outside its declared range."""


class DimensionError(ValueError):
    """Operand dimensions do not conform."""


class DegenerateInputError(ValueError):
    """A dimension or tile parameter is zero or negative."""


class GridLimitError(ValueError):
    """A PE grid dimension exceeds what the block encoding can represent."""


class MalformedBlockError(ValueError):
    """A block encoding violates its structural invariants."""


class PsumOverflowError(RuntimeError):
    """Psum store overflow under the `fail` policy; message names the tile."""


class GatherError(ValueError):
    """A dense-row gather could not serve a requested column index."""


class InfeasibleError(ValueError):
    """No tiling satisfies the buffer constraints; message names the violated one."""


class CoordinateError(ValueError):
    """A matrix coordinate is not an integer."""
