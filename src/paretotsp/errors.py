"""Exception types shared across the package, and its file primitives:
`read_text`, whose decode errors are `ParseError`s, `write_file`, which
replaces a file's bytes atomically, and `format_float`, the one way a float
becomes text in an output file."""

import os


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class DimensionError(ContractError):
    """Operand shapes are incompatible."""


class NonFiniteError(RuntimeError):
    """A forward pass produced NaN or Inf."""


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss or gradient.

    Carries a diagnostic snapshot of the failing iteration.
    """

    def __init__(self, message: str, snapshot: dict | None = None):
        super().__init__(message)
        self.snapshot = snapshot or {}


class ParseError(ValueError):
    """An input file is malformed; message names file and, if known, line."""

    def __init__(self, path, line_no: int | None, message: str):
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line_no = line_no


def read_text(path) -> str:
    """The UTF-8 text of the file `path`; an undecodable byte is a ParseError
    that names its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}") from exc


def format_float(x) -> str:
    """`x` as text with 17 significant digits, enough to read back the same float64."""
    return format(float(x), ".17g")


def write_file(path, data: bytes) -> None:
    """Replace the bytes of `path`, or of a symlink's target, with `data`
    through a sibling `<path>.tmp`, removed if anything fails, and an atomic
    rename, so it holds all the old bytes or all the new; a target that is not
    a regular file is refused."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise ContractError(f"{path} exists and is not a regular file")
    tmp = target + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise
