"""Every text format the package reads or writes.

Numbers go out with 17 significant digits (:func:`format_number`), so that
reports are byte-reproducible, and every file is written atomically
(:func:`write_atomic`).  The readers take UTF-8 text, skip blank and ``#``
lines and refuse the first row they cannot use with a
:class:`DataFormatError` at its file:line.  Formats: a map file is
``zeta_o re im``, ``zeta_b re im``, then ``k re(a_k) im(a_k)`` for
k = 0..M; a boundary data file is ``L <perimeter>``, ``alpha <value>``,
then ``s value [derivative]`` at uniform arclength on [0, L); a CSV file is
a header line, then comma-separated rows; a config file has ``key = value``
lines in one ``[section]`` per command.
"""

from __future__ import annotations

import configparser
import io
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ._spectral import uniform_grid
from .boundary import BoundaryFunction
from .conformal import ConformalMap, boundary_grid
from .errors import DataFormatError, InvalidInputError
from .geometry import DomainBoundary
from .norms import _check_alpha


def format_number(x: float) -> str:
    """A number as every output file writes it: 17 significant digits."""
    return f"{x:.17g}"


def write_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and rename it over
    ``path``.  On failure the temporary file is removed and ``path`` is left
    as it was (or absent)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lines(rows, sep: str) -> str:
    """One line per row; a string cell is written as it is, a number by
    :func:`format_number`."""
    return "".join(sep.join(cell if isinstance(cell, str) else format_number(cell)
                            for cell in row) + "\n" for row in rows)


def write_csv(path, header: str, rows) -> None:
    """A CSV file: the header line, then one comma-separated line per row."""
    write_atomic(path, header + "\n" + _lines(rows, ","))


def _read_text(path) -> str:
    """A file's text with its newlines translated, as ``open`` reads it; a
    byte that is not UTF-8 is refused at its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(path, data.count(b"\n", 0, exc.start) + 1,
                              f"byte {data[exc.start]:#04x} is not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _numbered_rows(path, minimum: int, expected: str) -> list[tuple[int, list[str]]]:
    """(line number, fields) of every line that is neither blank nor a ``#``
    comment; a file with fewer than ``minimum`` such lines is refused at its
    last line."""
    raw = io.StringIO(_read_text(path)).readlines()
    rows = [(i, line.split()) for i, line in enumerate(raw, start=1)
            if line.strip() and not line.lstrip().startswith("#")]
    if len(rows) < minimum:
        raise DataFormatError(path, len(raw), f"expected {expected}")
    return rows


def _number(path, line_no: int, text: str) -> float:
    """A finite float, or a DataFormatError at path:line_no."""
    try:
        x = float(text)
    except ValueError:
        raise DataFormatError(path, line_no, f"bad number {text!r}") from None
    if not math.isfinite(x):
        raise DataFormatError(path, line_no, f"number {text!r} is not finite")
    return x


def _keyed(path, row, form: str) -> list[float]:
    """The numbers of a header line laid out as ``form`` (``key name...``)."""
    line_no, parts = row
    words = form.split()
    if len(parts) != len(words) or parts[0] != words[0]:
        raise DataFormatError(path, line_no, f"expected '{form}'")
    return [_number(path, line_no, p) for p in parts[1:]]


@contextmanager
def at_line(path, line_no: int):
    """Report an InvalidInputError raised inside as a DataFormatError at
    path:line_no."""
    try:
        yield
    except InvalidInputError as exc:
        raise DataFormatError(path, line_no, str(exc)) from None


def save_map(path, f: ConformalMap) -> None:
    """Write a map in the map file format."""
    write_atomic(path, _lines(
        [("zeta_o", f.zeta_o.real, f.zeta_o.imag), ("zeta_b", f.zeta_b.real, f.zeta_b.imag)]
        + [(k, a.real, a.imag) for k, a in enumerate(f.coefficients)], " "))


def load_map(path) -> ConformalMap:
    """Read a map written by :func:`save_map`."""
    rows = _numbered_rows(path, 4, "two marked points and coefficients")
    zeta_o = complex(*_keyed(path, rows[0], "zeta_o re im"))
    zeta_b = complex(*_keyed(path, rows[1], "zeta_b re im"))
    coeffs = []
    for idx, (line_no, parts) in enumerate(rows[2:]):
        if len(parts) != 3:
            raise DataFormatError(path, line_no, "expected 'k re im'")
        try:
            k = int(parts[0])
        except ValueError:
            raise DataFormatError(path, line_no, f"bad index {parts[0]!r}") from None
        if k != idx:
            raise DataFormatError(path, line_no, f"coefficient index {k}, expected {idx}")
        coeffs.append(complex(*(_number(path, line_no, p) for p in parts[1:])))
    coeffs = np.asarray(coeffs, dtype=complex)
    if abs(coeffs[0] - zeta_o) > 1e-12 * max(1.0, abs(zeta_o)):
        raise DataFormatError(path, rows[2][0], "a_0 does not match zeta_o")
    with at_line(path, rows[1][0]):
        return ConformalMap(coeffs, zeta_b=zeta_b)


def save_boundary_data(path, phi: BoundaryFunction) -> None:
    """Write a datum in the boundary data file format."""
    columns = [phi.grid, phi.values]
    if phi.derivative_values is not None:
        columns.append(phi.derivative_values)
    write_atomic(path, _lines([("L", phi.L), ("alpha", phi.alpha)] + list(zip(*columns)), " "))


def load_boundary_data(path) -> BoundaryFunction:
    """Read a datum written by :func:`save_boundary_data`."""
    rows = _numbered_rows(path, 3, "header plus samples")
    L, = _keyed(path, rows[0], "L <value>")
    if not L > 0:
        raise DataFormatError(path, rows[0][0], "perimeter must be positive")
    alpha, = _keyed(path, rows[1], "alpha <value>")
    with at_line(path, rows[1][0]):
        _check_alpha(alpha)
    samples = []
    for line_no, parts in rows[2:]:
        if len(parts) not in (2, 3):
            raise DataFormatError(path, line_no, "expected 's value [derivative]'")
        if len(parts) != len(rows[2][1]):
            raise DataFormatError(path, line_no, "inconsistent derivative column")
        samples.append([_number(path, line_no, p) for p in parts])
    columns = np.ascontiguousarray(np.transpose(samples))
    if not np.allclose(columns[0], uniform_grid(columns.shape[1], L),
                       rtol=0, atol=1e-9 * max(L, 1.0)):
        raise DataFormatError(path, rows[2][0], "arclength grid is not uniform on [0, L)")
    with at_line(path, rows[2][0]):
        return BoundaryFunction(columns[1], L, alpha=alpha,
                                derivative_values=columns[2] if len(columns) == 3 else None)


def save_polyline(path, b: DomainBoundary, s: np.ndarray) -> None:
    """CSV export: one ``theta,s,re,im`` row per boundary sample, theta on
    the uniform grid of the circle and s the arclength there
    (``arclength(f, n)[0]`` for ``boundary_of(f, n)``)."""
    if np.shape(s) != b.points.shape:
        raise InvalidInputError("need one arclength per boundary sample")
    write_csv(path, "theta,s,re,im", zip(boundary_grid(b.n), s, b.points.real, b.points.imag))


def read_config(path: Path, section: str) -> list[tuple[int, str, str]]:
    """(line number, key, value text) of every option in one section of a
    config file; keys keep their case (M0, M1, P vs p) and '%' is a plain
    character.  A file that does not parse is refused at its file:line."""
    if not path.exists():
        raise InvalidInputError(f"config file {path} does not exist")
    text = _read_text(path)
    lines = text.splitlines()
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        errors = getattr(exc, "errors", None)  # a ParsingError lists its malformed lines
        if errors:
            line = errors[0][0]
            raise DataFormatError(path, line, f"malformed line {lines[line - 1].strip()!r}") from None
        raise DataFormatError(path, getattr(exc, "lineno", 0) or 0,
                              exc.message.splitlines()[0]) from None
    if not parser.has_section(section):
        return []

    def line_of(key):
        current = None
        for i, line in enumerate(lines, start=1):
            if line.strip().startswith("["):
                current = line.strip()[1:-1].strip()
            elif current == section and line.replace(":", "=").split("=")[0].strip() == key:
                return i
        return 0

    return [(line_of(key), key, value) for key, value in parser.items(section)]
