"""Bundled reference tables of survival probabilities.

Five benchmark parameterizations with displaced Poisson seasons, each
carrying a grid of finite-horizon values and (except the last) a
limiting row, all rounded to three decimals. They serve as regression
fixtures: ``verify_table`` recomputes every cell and compares within the
rounding tolerance.

The fourth table is special: its printed finite rows correspond to a
first-season distribution shifted down by one unit, and its limit row
starts from the margin value where a certain first-step ruin forces
phi(0) = 0. It disagrees with this implementation by construction, so
its mismatching cells are reported with status "flag" rather than
"fail"; the other tables must match exactly (within rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

from .finite import survival_finite
from .model import ModelSpec
from .pmf import make_displaced_poisson
from .ultimate import survival_ultimate

MATCH_TOL = 5e-4 + 1e-12


@dataclass(frozen=True)
class ReferenceTable:
    """One benchmark model and its printed survival values.

    ``finite_rows`` maps a horizon T to the row of values over
    ``u_values``; ``ultimate_row`` is the T -> infinity row or None.
    """

    name: str
    x_lam: float
    x_shift: int
    y_lam: float
    y_shift: int
    u_values: tuple[int, ...]
    finite_rows: dict[int, tuple[float, ...]]
    ultimate_row: tuple[float, ...] | None
    flagged_expected: bool = False

    def model(self) -> ModelSpec:
        return ModelSpec(
            x=make_displaced_poisson(self.x_lam, self.x_shift),
            y=make_displaced_poisson(self.y_lam, self.y_shift),
        )

    @property
    def x_spec(self) -> str:
        return f"dpois:{self.x_lam!r},{self.x_shift}"

    @property
    def y_spec(self) -> str:
        return f"dpois:{self.y_lam!r},{self.y_shift}"


TABLE_1 = ReferenceTable(
    name="table-1",
    x_lam=1.0, x_shift=0, y_lam=2.0, y_shift=0,
    u_values=(0, 1, 2, 3, 4, 5, 10, 15),
    finite_rows={
        1: (0.736, 0.920, 0.981, 0.996, 0.999, 1, 1, 1),
        2: (0.564, 0.788, 0.909, 0.965, 0.988, 0.996, 1, 1),
        3: (0.547, 0.771, 0.898, 0.959, 0.985, 0.995, 1, 1),
        4: (0.505, 0.727, 0.863, 0.936, 0.972, 0.989, 1, 1),
        5: (0.499, 0.720, 0.857, 0.932, 0.969, 0.987, 1, 1),
        10: (0.46, 0.673, 0.813, 0.898, 0.946, 0.972, 0.999, 1),
        20: (0.446, 0.656, 0.795, 0.882, 0.933, 0.962, 0.998, 1),
        30: (0.443, 0.652, 0.791, 0.878, 0.930, 0.960, 0.998, 1),
        40: (0.443, 0.651, 0.790, 0.877, 0.929, 0.959, 0.997, 1),
        50: (0.442, 0.650, 0.790, 0.876, 0.928, 0.959, 0.997, 1),
    },
    ultimate_row=(0.442, 0.650, 0.790, 0.876, 0.928, 0.958, 0.997, 1),
)

TABLE_2 = ReferenceTable(
    name="table-2",
    x_lam=1.0, x_shift=1, y_lam=1.9, y_shift=0,
    u_values=(0, 1, 2, 3, 4, 5, 10, 20, 30, 40),
    finite_rows={
        1: (0.368, 0.736, 0.920, 0.981, 0.996, 0.999, 1, 1, 1, 1),
        2: (0.259, 0.581, 0.803, 0.919, 0.970, 0.990, 1, 1, 1, 1),
        3: (0.223, 0.518, 0.743, 0.877, 0.947, 0.979, 1, 1, 1, 1),
        4: (0.192, 0.458, 0.677, 0.823, 0.910, 0.957, 1, 1, 1, 1),
        5: (0.177, 0.428, 0.641, 0.791, 0.886, 0.942, 0.999, 1, 1, 1),
        10: (0.130, 0.324, 0.505, 0.652, 0.765, 0.847, 0.990, 1, 1, 1),
        20: (0.098, 0.248, 0.396, 0.525, 0.634, 0.724, 0.951, 1, 1, 1),
        30: (0.084, 0.214, 0.343, 0.460, 0.562, 0.649, 0.908, 0.998, 1, 1),
        40: (0.076, 0.193, 0.311, 0.419, 0.515, 0.599, 0.869, 0.994, 1, 1),
        50: (0.070, 0.179, 0.289, 0.390, 0.481, 0.562, 0.837, 0.989, 1, 1),
        100: (0.057, 0.144, 0.234, 0.318, 0.395, 0.465, 0.731, 0.952, 0.995, 1),
    },
    ultimate_row=(0.037, 0.094, 0.152, 0.208, 0.259, 0.307, 0.506, 0.748, 0.872, 0.935),
)

TABLE_3 = ReferenceTable(
    name="table-3",
    x_lam=1.0, x_shift=1, y_lam=0.9, y_shift=1,
    u_values=(0, 1, 2, 3, 4, 5, 10, 20, 30, 40),
    finite_rows={
        1: (0.368, 0.736, 0.920, 0.981, 0.996, 0.999, 1, 1, 1, 1),
        2: (0.284, 0.629, 0.850, 0.950, 0.986, 0.996, 1, 1, 1, 1),
        3: (0.237, 0.552, 0.784, 0.910, 0.967, 0.989, 1, 1, 1, 1),
        4: (0.212, 0.506, 0.739, 0.878, 0.949, 0.980, 1, 1, 1, 1),
        5: (0.191, 0.466, 0.695, 0.844, 0.927, 0.968, 1, 1, 1, 1),
        10: (0.145, 0.366, 0.572, 0.729, 0.837, 0.908, 0.997, 1, 1, 1),
        20: (0.111, 0.286, 0.459, 0.605, 0.720, 0.807, 0.981, 1, 1, 1),
        30: (0.096, 0.249, 0.404, 0.538, 0.650, 0.740, 0.957, 1, 1, 1),
        40: (0.087, 0.227, 0.370, 0.496, 0.604, 0.693, 0.933, 0.999, 1, 1),
        50: (0.081, 0.212, 0.346, 0.466, 0.570, 0.658, 0.910, 0.998, 1, 1),
        100: (0.067, 0.175, 0.288, 0.390, 0.482, 0.562, 0.828, 0.984, 0.999, 1),
    },
    ultimate_row=(0.048, 0.127, 0.209, 0.286, 0.355, 0.417, 0.649, 0.873, 0.954, 0.983),
)

TABLE_4 = ReferenceTable(
    name="table-4",
    x_lam=0.5, x_shift=2, y_lam=1.0 / 3.0, y_shift=1,
    u_values=(0, 1, 2, 3, 4, 5, 10, 15, 20, 25),
    finite_rows={
        1: (0.607, 0.910, 0.986, 0.998, 1, 1, 1, 1, 1, 1),
        2: (0.435, 0.797, 0.948, 0.990, 0.998, 1, 1, 1, 1, 1),
        3: (0.395, 0.758, 0.928, 0.983, 0.997, 0.999, 1, 1, 1, 1),
        4: (0.346, 0.700, 0.894, 0.969, 0.992, 0.998, 1, 1, 1, 1),
        5: (0.329, 0.678, 0.878, 0.961, 0.989, 0.997, 1, 1, 1, 1),
        10: (0.262, 0.573, 0.788, 0.906, 0.962, 0.986, 1, 1, 1, 1),
        20: (0.219, 0.494, 0.705, 0.838, 0.916, 0.959, 0.999, 1, 1, 1),
        30: (0.202, 0.459, 0.662, 0.799, 0.884, 0.936, 0.998, 1, 1, 1),
        40: (0.192, 0.439, 0.637, 0.773, 0.862, 0.918, 0.996, 1, 1, 1),
        50: (0.186, 0.426, 0.620, 0.756, 0.846, 0.905, 0.994, 1, 1, 1),
        100: (0.173, 0.398, 0.583, 0.716, 0.808, 0.872, 0.985, 0.999, 1, 1),
    },
    ultimate_row=(0.167, 0.383, 0.563, 0.693, 0.784, 0.849, 0.974, 0.996, 0.999, 1),
    flagged_expected=True,
)

TABLE_5 = ReferenceTable(
    name="table-5",
    x_lam=2.0, x_shift=1, y_lam=1.0, y_shift=1,
    u_values=(0, 1, 2, 3, 4, 5, 10, 20, 30, 40, 50),
    finite_rows={
        1: (0.135, 0.406, 0.677, 0.857, 0.947, 0.983, 1, 1, 1, 1, 1),
        2: (0.100, 0.324, 0.581, 0.782, 0.903, 0.962, 1, 1, 1, 1, 1),
        3: (0.054, 0.194, 0.391, 0.589, 0.750, 0.862, 0.998, 1, 1, 1, 1),
        4: (0.045, 0.166, 0.343, 0.532, 0.696, 0.820, 0.996, 1, 1, 1, 1),
        5: (0.029, 0.112, 0.243, 0.401, 0.558, 0.696, 0.982, 1, 1, 1, 1),
        10: (0.010, 0.042, 0.099, 0.179, 0.278, 0.388, 0.854, 1, 1, 1, 1),
        20: (0.002, 0.008, 0.020, 0.038, 0.065, 0.102, 0.417, 0.946, 0.999, 1, 1),
        30: (0, 0.002, 0.005, 0.010, 0.017, 0.029, 0.161, 0.723, 0.978, 1, 1),
        40: (0, 0.001, 0.001, 0.003, 0.005, 0.008, 0.058, 0.439, 0.874, 0.991, 1),
        50: (0, 0, 0, 0.001, 0.002, 0.003, 0.020, 0.228, 0.674, 0.943, 0.996),
        100: (0, 0, 0, 0, 0, 0, 0, 0.003, 0.035, 0.173, 0.461),
    },
    ultimate_row=(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
)

ALL_TABLES = (TABLE_1, TABLE_2, TABLE_3, TABLE_4, TABLE_5)


@dataclass(frozen=True)
class CellCheck:
    table: str
    u: int
    horizon: int | None  # None marks the ultimate row
    expected: float
    computed: float
    status: str  # "ok" | "flag" | "fail"


@dataclass(frozen=True)
class TableReport:
    name: str
    checks: list[CellCheck]

    @property
    def n_ok(self) -> int:
        return sum(1 for c in self.checks if c.status == "ok")

    @property
    def n_flag(self) -> int:
        return sum(1 for c in self.checks if c.status == "flag")

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def passed(self) -> bool:
        return self.n_fail == 0


def verify_table(table: ReferenceTable) -> TableReport:
    """Recompute every cell of one reference table and compare within
    MATCH_TOL.

    Mismatches become "fail" normally, "flag" when the table is marked
    flagged_expected (a known-inconsistent table must not abort runs).
    """
    model = table.model()
    u_max = max(table.u_values)
    t_max = max(table.finite_rows)
    grid = survival_finite(model, u_max=u_max, t_max=t_max)
    miss = "flag" if table.flagged_expected else "fail"

    checks: list[CellCheck] = []
    for horizon, row in sorted(table.finite_rows.items()):
        for u, expected in zip(table.u_values, row):
            got = float(grid.value(u, horizon))
            ok = abs(got - expected) <= MATCH_TOL
            checks.append(CellCheck(table.name, u, horizon, float(expected), got, "ok" if ok else miss))

    if table.ultimate_row is not None:
        ult = survival_ultimate(model, u_max=u_max)
        for u, expected in zip(table.u_values, table.ultimate_row):
            got = float(ult.phi[u])
            ok = abs(got - expected) <= MATCH_TOL
            checks.append(CellCheck(table.name, u, None, float(expected), got, "ok" if ok else miss))

    return TableReport(name=table.name, checks=checks)
