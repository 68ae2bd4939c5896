"""Critical-exponent calculus in exact rational arithmetic.

Every closed-form index is evaluated with ``fractions.Fraction`` so the
identities between them (piecewise vs max forms, two-dimensional
cross-checks, continuity at breakpoints) hold exactly, not up to
tolerance.  Floats are rejected on input: pass ``Fraction``, ``int`` or a
string like ``"6/5"``.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, fields
from fractions import Fraction

__all__ = [
    "as_fraction",
    "delta_critical",
    "p1_of",
    "rho_n",
    "theta_of",
    "delta_tilde",
    "delta_bar",
    "nu_2",
    "delta_bar_2",
    "conjugate",
    "admissible_pair",
    "admissible_vv",
    "alpha_exponent",
    "weight_indices",
    "ExponentRecord",
]

HALF = Fraction(1, 2)

PROVIDERS = ("dim2_solved", "assume_conjecture")


def as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError(
            f"exact rational input required, got float {x!r}; "
            "pass Fraction, int, or a string like '6/5'"
        )
    return Fraction(x)


def conjugate(p) -> Fraction:
    """Hoelder conjugate p' = p/(p-1)."""
    p = as_fraction(p)
    if p <= 1:
        raise ValueError(f"conjugate needs p > 1, got {p}")
    return p / (p - 1)


def delta_critical(p, n: int = 2) -> Fraction:
    """Conjecturally sharp smoothness threshold ``max{n|1/p - 1/2| - 1/2, 0}``."""
    p = as_fraction(p)
    if p <= 1:
        raise ValueError(f"need p in (1, inf), got {p}")
    return max(n * abs(1 / p - HALF) - HALF, Fraction(0))


def p1_of(p0) -> Fraction:
    """Companion exponent ``p1 = 2(3/2 - 1/p0)``, in (1, 2) for p0 in (1, 2)."""
    p0 = as_fraction(p0)
    if not 1 < p0 < 2:
        raise ValueError(f"need p0 in (1, 2), got {p0}")
    p1 = 2 * (Fraction(3, 2) - 1 / p0)
    assert 1 < p1 < 2
    return p1


def rho_n(p0, n: int = 2) -> Fraction:
    """Local L^{p0} -> L^2 decay rate for the dyadic pieces:
    ``max{n(1/p0 - 1/2) - 1/2, (n-1)/2 (1/p0 - 1/2)}``."""
    p0 = as_fraction(p0)
    if not 1 <= p0 <= 2:
        raise ValueError(f"need p0 in [1, 2], got {p0}")
    x = 1 / p0 - HALF
    value = max(n * x - HALF, Fraction(n - 1, 2) * x)
    # cross-check against the piecewise form with crossover at 2(n+1)/(n+3)
    crossover = Fraction(2 * (n + 1), n + 3)
    piecewise = Fraction(n - 1, 2) * x if p0 >= crossover else n * x - HALF
    assert piecewise == value, (p0, n)
    return value


def theta_of(p1) -> Fraction:
    """Interpolation coefficient from ``1/2 = (1-theta)/p1``: theta = 1 - p1/2."""
    p1 = as_fraction(p1)
    if not 1 <= p1 <= 2:
        raise ValueError(f"need p1 in [1, 2], got {p1}")
    return 1 - p1 / 2


def delta_tilde(p1, n: int = 2, provider: str = "dim2_solved") -> Fraction:
    """Smallest exponent making the operator L^{p1}-bounded.

    ``dim2_solved`` returns the critical threshold, which is the true value
    in dimension two; ``assume_conjecture`` returns the same number for
    n >= 3 where it is only conjectural.
    """
    if provider not in PROVIDERS:
        raise ValueError(f"unknown provider {provider!r}; choose from {PROVIDERS}")
    if provider == "dim2_solved" and n != 2:
        raise ValueError("provider 'dim2_solved' is only valid in dimension 2")
    return delta_critical(p1, n)


def delta_bar(p0, n: int = 2, provider: str = "dim2_solved") -> Fraction:
    """Sparse-domination threshold ``delta_tilde(p1) + (n-1)/2 (1/p0 - 1/2)``."""
    p0 = as_fraction(p0)
    value = delta_tilde(p1_of(p0), n, provider) + Fraction(n - 1, 2) * (1 / p0 - HALF)
    assert value >= rho_n(p0, n)
    return value


def nu_2(p0) -> Fraction:
    p0 = as_fraction(p0)
    return HALF * (1 / p0 - HALF)


def delta_bar_2(p0) -> Fraction:
    """Two-dimensional threshold, piecewise in p0 with breakpoint 6/5:

        nu_2(p0)                          for 6/5 <= p0 <= 2
        nu_2(p0) + 1/(1 - 2 nu_2) - 3/2   for 1 <= p0 <= 6/5.
    """
    p0 = as_fraction(p0)
    if not 1 <= p0 <= 2:
        raise ValueError(f"need p0 in [1, 2], got {p0}")
    nu = nu_2(p0)
    if p0 >= Fraction(6, 5):
        return nu
    return nu + 1 / (1 - 2 * nu) - Fraction(3, 2)


def admissible_pair(p0, q0) -> bool:
    """Exponent pair for the general bilinear form: ``p0, q0 in [6/5, 6]``,
    ``p0 < q0`` and ``1/p0 - 1/q0 <= 1/3``."""
    p0, q0 = as_fraction(p0), as_fraction(q0)
    lo, hi = Fraction(6, 5), Fraction(6)
    if not (lo <= p0 <= hi and lo <= q0 <= hi and p0 < q0):
        return False
    return 1 / p0 - 1 / q0 <= Fraction(1, 3)


def admissible_vv(p, q) -> bool:
    """Vector-valued admissibility: ``p, q in [6/5, 6]`` and ``|1/p - 1/q| < 1/3``."""
    p, q = as_fraction(p), as_fraction(q)
    lo, hi = Fraction(6, 5), Fraction(6)
    if not (lo <= p <= hi and lo <= q <= hi):
        return False
    return abs(1 / p - 1 / q) < Fraction(1, 3)


def alpha_exponent(p, p0, side: str) -> Fraction:
    """Weighted-bound exponent.

    ``below2`` (p0 < p < 2): ``max{1/(p - p0), 1/(2 - p)}``.
    ``above2`` (2 < p < p0'): ``max{1/(p - 2), (p0' - 2)/(p0' - p)}``.
    """
    return _bound_exponents(p, p0, side)[0]


def weight_indices(p, p0, side: str) -> tuple[Fraction, Fraction]:
    """A_p and reverse-Hoelder indices of the weighted bound on the ranges of
    :func:`alpha_exponent`: ``(p/p0, (2/p)')`` below 2, ``(p/2, (p0'/2)')`` above."""
    return _bound_exponents(p, p0, side)[1:]


def _bound_exponents(p, p0, side: str) -> tuple[Fraction, Fraction, Fraction]:
    p, p0 = as_fraction(p), as_fraction(p0)
    if side == "below2":
        if not p0 < p < 2:
            raise ValueError(f"side below2 needs p in ({p0}, 2), got {p}")
        return max(1 / (p - p0), 1 / (2 - p)), p / p0, conjugate(2 / p)
    if side == "above2":
        p0c = conjugate(p0)
        if not 2 < p < p0c:
            raise ValueError(f"side above2 needs p in (2, {p0c}), got {p}")
        return max(1 / (p - 2), (p0c - 2) / (p0c - p)), p / 2, conjugate(p0c / 2)
    raise ValueError(f"side must be 'below2' or 'above2', got {side!r}")


# the report labels of the fields not reported under their own name
_ROW_LABELS = {"delta_p": "delta(p)", "rho": "rho_n(p0)", "delta_bar": "delta_bar_n(p0)",
               "nu2": "nu_2(p0)", "delta_bar2": "delta_bar_2(p0)",
               "alpha_below": "alpha(below2)", "alpha_above": "alpha(above2)",
               "provider": "delta_tilde_provider"}


@dataclass(frozen=True)
class ExponentRecord:
    """Every closed-form index for a parameter choice (n, p0, q0, delta, p, q)."""

    n: int
    p0: Fraction
    q0: Fraction
    p: Fraction
    q: Fraction | None
    delta: Fraction | None
    delta_p: Fraction
    p1: Fraction
    theta: Fraction
    rho: Fraction
    delta_bar: Fraction
    nu2: Fraction
    delta_bar2: Fraction
    alpha_below: Fraction | None
    alpha_above: Fraction | None
    pair_admissible: bool
    vv_admissible: bool | None
    provider: str
    conjectural: bool

    @classmethod
    def compute(cls, n: int, p0, q0, p, q=None, delta=None,
                provider: str = "dim2_solved") -> "ExponentRecord":
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        p0, q0, p = as_fraction(p0), as_fraction(q0), as_fraction(p)
        q = as_fraction(q) if q is not None else None
        delta = as_fraction(delta) if delta is not None else None
        # the ranges ExperimentConfig enforces for every other subcommand
        if not q0 > 1:
            raise ValueError(f"q0 must be > 1, got {q0}")
        if q is not None and not q >= 1:
            raise ValueError(f"q must be >= 1, got {q}")
        if delta is not None and delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        p1 = p1_of(p0)
        alphas = dict.fromkeys(("below2", "above2"))
        for side in alphas:
            with suppress(ValueError):
                alphas[side] = alpha_exponent(p, p0, side)
        dbar = delta_bar(p0, n, provider)
        dbar2 = delta_bar_2(p0)  # p1_of has checked p0 in (1, 2)
        assert n != 2 or p0 < Fraction(6, 5) or dbar == dbar2
        return cls(
            n=n, p0=p0, q0=q0, p=p, q=q, delta=delta,
            delta_p=delta_critical(p, n),
            p1=p1,
            theta=theta_of(p1),
            rho=rho_n(p0, n),
            delta_bar=dbar,
            nu2=nu_2(p0),
            delta_bar2=dbar2,
            alpha_below=alphas["below2"],
            alpha_above=alphas["above2"],
            pair_admissible=admissible_pair(p0, q0),
            vv_admissible=admissible_vv(p, q) if q is not None else None,
            provider=provider,
            conjectural=provider == "assume_conjecture" and n >= 3,
        )

    def rows(self) -> list[tuple[str, str]]:
        """``(label, value)`` for every field in order, labelled by
        :data:`_ROW_LABELS` or by its own name; None reads ``-`` and a bool
        ``true``/``false``."""
        def fmt(v):
            if v is None:
                return "-"
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)

        return [(_ROW_LABELS.get(f.name, f.name), fmt(getattr(self, f.name)))
                for f in fields(self)]
