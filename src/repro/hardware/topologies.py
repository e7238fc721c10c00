"""Standard coupling graphs, including the three Tokyo variants from Fig. 9.

The IBM Q20 Tokyo device is a 4x5 grid with nearest-neighbour couplings plus
one diagonal coupling per grid cell (alternating orientation).  The paper's
architecture study (Q4) removes all diagonals (Tokyo-) or adds both diagonals
to every cell (Tokyo+); the average vertex degree of Tokyo sits exactly halfway
between the two, which these constructors preserve.
"""

from __future__ import annotations

from repro.hardware.architecture import Architecture

TOKYO_ROWS = 4
TOKYO_COLUMNS = 5


def _grid_edges(rows: int, columns: int) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    for row in range(rows):
        for column in range(columns):
            qubit = row * columns + column
            if column + 1 < columns:
                edges.append((qubit, qubit + 1))
            if row + 1 < rows:
                edges.append((qubit, qubit + columns))
    return edges


def _tokyo_diagonals(both: bool, rows: int = TOKYO_ROWS,
                     columns: int = TOKYO_COLUMNS) -> list[tuple[int, int]]:
    """Diagonal couplings of a ``rows`` x ``columns`` Tokyo-style lattice.

    The real device has one diagonal per cell with alternating orientation;
    ``both=True`` produces the Tokyo+ variant with both diagonals everywhere.
    """
    edges: list[tuple[int, int]] = []
    for row in range(rows - 1):
        for column in range(columns - 1):
            top_left = row * columns + column
            top_right = top_left + 1
            bottom_left = top_left + columns
            bottom_right = bottom_left + 1
            forward = (top_left, bottom_right)
            backward = (top_right, bottom_left)
            if both:
                edges.append(forward)
                edges.append(backward)
            elif (row + column) % 2 == 0:
                edges.append(backward)
            else:
                edges.append(forward)
    return edges


def tokyo_minus_architecture() -> Architecture:
    """Tokyo- (Fig. 9a): the 4x5 grid with all diagonal couplings removed."""
    return Architecture(20, _grid_edges(TOKYO_ROWS, TOKYO_COLUMNS), name="tokyo-")


def tokyo_architecture() -> Architecture:
    """IBM Q20 Tokyo (Fig. 9b): 4x5 grid plus one alternating diagonal per cell."""
    edges = _grid_edges(TOKYO_ROWS, TOKYO_COLUMNS) + _tokyo_diagonals(both=False)
    return Architecture(20, edges, name="tokyo")


def tokyo_plus_architecture() -> Architecture:
    """Tokyo+ (Fig. 9c): 4x5 grid plus both diagonals in every cell."""
    edges = _grid_edges(TOKYO_ROWS, TOKYO_COLUMNS) + _tokyo_diagonals(both=True)
    return Architecture(20, edges, name="tokyo+")


def line_architecture(num_qubits: int) -> Architecture:
    """A 1-D nearest-neighbour chain."""
    edges = [(qubit, qubit + 1) for qubit in range(num_qubits - 1)]
    return Architecture(num_qubits, edges, name=f"line-{num_qubits}")


def ring_architecture(num_qubits: int) -> Architecture:
    """A 1-D chain closed into a ring."""
    if num_qubits < 3:
        raise ValueError("a ring needs at least three qubits")
    edges = [(qubit, (qubit + 1) % num_qubits) for qubit in range(num_qubits)]
    return Architecture(num_qubits, edges, name=f"ring-{num_qubits}")


def grid_architecture(rows: int, columns: int) -> Architecture:
    """A rows x columns nearest-neighbour grid."""
    if rows < 1 or columns < 1:
        raise ValueError("grid dimensions must be positive")
    return Architecture(rows * columns, _grid_edges(rows, columns),
                        name=f"grid-{rows}x{columns}")


def full_architecture(num_qubits: int) -> Architecture:
    """A fully connected device (no routing ever needed); useful as a control."""
    edges = [(first, second)
             for first in range(num_qubits)
             for second in range(first + 1, num_qubits)]
    return Architecture(num_qubits, edges, name=f"full-{num_qubits}")


def heavy_hex_architecture(distance: int = 3) -> Architecture:
    """A small heavy-hex style lattice similar to newer IBM devices.

    This is not used in the paper but is provided for the architecture-variation
    experiment (Q4) and for users who want to test against current hardware
    shapes.  ``distance`` controls the lattice size (27 qubits at distance 3).
    """
    if distance == 3:
        edges = [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
            (0, 10), (4, 11), (8, 12),
            (10, 13), (11, 17), (12, 21),
            (13, 14), (14, 15), (15, 16), (16, 17), (17, 18), (18, 19), (19, 20),
            (20, 21), (21, 22), (22, 23),
            (15, 24), (19, 25), (23, 26),
        ]
        return Architecture(27, edges, name="heavy-hex-27")
    raise ValueError("only distance=3 heavy-hex is provided")


def reduced_tokyo_architecture(num_qubits: int) -> Architecture:
    """The subgraph of Tokyo induced on its first ``num_qubits`` physical qubits.

    The pure-Python MaxSAT stack cannot match Open-WBO's raw speed, so the
    scaled experiment presets route onto reduced Tokyo subgraphs that keep the
    mixed grid/diagonal structure of the device while shrinking the encoding.
    """
    if not 2 <= num_qubits <= 20:
        raise ValueError("reduced Tokyo supports 2..20 qubits")
    return tokyo_architecture().subgraph(list(range(num_qubits)),
                                         name=f"tokyo-{num_qubits}")
