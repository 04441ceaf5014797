"""Uniform 1D grid axes shared by every coordinate direction."""

import math
import operator
from dataclasses import dataclass

import numpy as np

# Fewest cells an axis may have; see ``GridAxis``.
MIN_CELLS = 4


@dataclass(frozen=True)
class GridAxis:
    """A uniform axis with ``n_cells`` intervals between ``left`` and ``right``.

    Nodes sit at ``left + i*spacing`` for ``i = 0 .. n_cells``. At least 4
    cells are required: with only 4 nodes the derivative-operator coefficient
    matrix is exactly singular (its boundary closures and interior relations
    become linearly dependent), so 5 nodes is the smallest solvable system.
    The cell count must be an integer, and h^2 and 32/h^2 finite and
    positive for the spacing h, so that the operator built on the axis is
    finite: the CCD equations' coefficients reach 31/h and 3/h^2, and the
    operator's entries 7.84/h^2.
    """

    n_cells: int
    left: float = 0.0
    right: float = 1.0

    def __post_init__(self):
        try:
            operator.index(self.n_cells)
        except TypeError:
            raise ValueError(
                f"cell count must be an integer, got {self.n_cells!r}"
            ) from None
        if self.n_cells < MIN_CELLS:
            raise ValueError(
                f"axis needs at least {MIN_CELLS} cells, got {self.n_cells}"
            )
        if not self.right > self.left:
            raise ValueError(
                f"invalid interval [{self.left}, {self.right}]"
            )
        h = self.spacing
        if not (0 < h * h < math.inf and 32 / (h * h) < math.inf):
            raise ValueError(
                f"spacing {h} of [{self.left}, {self.right}] is not usable: "
                f"h^2 and 32/h^2 must be finite and positive"
            )

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def spacing(self) -> float:
        return (self.right - self.left) / self.n_cells

    def nodes(self) -> np.ndarray:
        return np.linspace(self.left, self.right, self.n_nodes)
