"""Seeded synthetic regression streams.

A :class:`StreamSpec` pins down everything about a stream: dimensions,
the true coefficient vector (explicit, or drawn once from a seeded
standard normal), the regressor law (Gaussian or multivariate t with a
shared shape matrix), the noise scale, and an optional sparse
outlier process.  ``generate`` walks the stream lazily in constant
memory; ``materialize`` returns the same values as arrays.

Each random ingredient draws from its own substream of the spec seed,
so the stream is bitwise reproducible and unaffected by how it is
consumed: the regressors of datum n are the same whether the noise is
ever drawn, whether generation is blocked or one-shot, and whether
outliers are enabled for the y side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError, config_section, integer, read_field
from .estimators import _PANEL, batch_lse
from .numkit.rng import derive, substream

__all__ = ["StreamSpec", "toeplitz_cov", "generate", "materialize", "full_lse_mse"]

# Substream identities for each random ingredient.
_THETA, _DESIGN, _NOISE, _TAIL, _OUT_FLAG, _OUT_MAG = range(6)

# Keys of a config's stream section, and of its cov object by kind.
_STREAM_FIELDS = ("p", "D", "sigma", "seed", "design", "cov", "df", "theta", "outliers")
_COV_FIELDS = {"identity": ("kind",), "toeplitz": ("kind", "a", "r"),
               "explicit": ("kind", "matrix")}


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def toeplitz_cov(p: int, a: float, r: float) -> np.ndarray:
    """Exponentially decaying covariance: Sigma_ij = a * r^|i-j|.

    SPD for a > 0 and |r| < 1 (it is a scaled AR(1) correlation
    matrix).
    """
    if not a > 0.0:
        raise DomainError("toeplitz_cov needs a > 0")
    if not abs(r) < 1.0:
        raise DomainError("toeplitz_cov needs |r| < 1")
    idx = np.arange(int(p))
    return a * np.float64(r) ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True, eq=False)
class StreamSpec:
    """Full description of a synthetic stream of (y, x) data.

    theta None means "draw theta once from a seeded standard normal";
    cov None means the identity.  Outliers add alpha*beta to y with
    alpha ~ Bernoulli(outlier_prob) and beta ~ N(0, outlier_var).
    """

    p: int
    D: int
    sigma: float
    seed: int
    design: str = "gaussian"
    cov: np.ndarray | None = None
    df: float | None = None
    theta: np.ndarray | None = None
    outlier_prob: float = 0.0
    outlier_var: float = 0.0

    def __post_init__(self):
        if self.p < 1 or self.D < 1:
            raise DomainError("p and D must be positive")
        if self.sigma < 0.0:
            raise DomainError("sigma must be nonnegative")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.design not in ("gaussian", "student-t"):
            raise DomainError(f"unknown design {self.design!r}")
        if self.design == "student-t":
            if self.df is None or self.df < 1.0:
                raise DomainError("student-t design needs df >= 1")
        if self.cov is not None:
            cov = np.asarray(self.cov, dtype=np.float64)
            if cov.shape != (self.p, self.p):
                raise DomainError("cov must be p x p")
            object.__setattr__(self, "cov", cov)
        if self.theta is not None:
            theta = np.asarray(self.theta, dtype=np.float64)
            if theta.shape != (self.p,):
                raise DomainError("theta must have length p")
            object.__setattr__(self, "theta", theta)
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise DomainError("outlier_prob must lie in [0, 1]")
        if self.outlier_var < 0.0:
            raise DomainError("outlier_var must be nonnegative")

    @property
    def has_outliers(self) -> bool:
        return self.outlier_prob > 0.0 and self.outlier_var > 0.0

    def resolved_theta(self) -> np.ndarray:
        """The true coefficients, drawing the seeded default if needed."""
        if self.theta is not None:
            return self.theta
        return substream(self.seed, _THETA).standard_normal(self.p)

    def design_cov(self) -> np.ndarray:
        """Shape matrix of the regressor law (identity when unset)."""
        return np.eye(self.p) if self.cov is None else self.cov

    @classmethod
    def from_doc(cls, doc, default_seed: int) -> "StreamSpec":
        """The spec a config's 'stream' section describes.

        Keys: p, D and sigma (required), seed (default default_seed),
        design, df, theta, outliers as {prob, var}, and cov as
        {"kind": "identity"}, {"kind": "toeplitz", "a", "r"},
        {"kind": "explicit", "matrix"} or a bare matrix.  An unknown key
        at any level, or a spec outside its domain, raises ConfigError.
        """
        sd = config_section(doc, "stream", _STREAM_FIELDS, required=("p", "D", "sigma"))

        def read(key, cast=float, section=sd, name="stream"):
            return read_field(cast, section[key], f"{name}.{key}")

        try:
            p = read("p", integer)
            cov = sd.get("cov")
            if isinstance(cov, dict):
                kind = cov.get("kind")
                if kind not in _COV_FIELDS:
                    raise ConfigError(f"unknown stream.cov kind {kind!r}")
                config_section(cov, "stream.cov", _COV_FIELDS[kind],
                               required=("a", "r") if kind == "toeplitz" else ())
                if kind == "toeplitz":
                    cov = toeplitz_cov(p, read("a", section=cov, name="stream.cov"),
                                       read("r", section=cov, name="stream.cov"))
                else:
                    cov = None if kind == "identity" else \
                        read_field(_float_array, cov.get("matrix"), "stream.cov.matrix")
            elif cov is not None:
                cov = read("cov", _float_array)
            outliers = sd.get("outliers") or {}
            if outliers and ("prob" not in outliers or "var" not in outliers):
                raise ConfigError("field 'stream.outliers' must carry 'prob' and 'var'")
            config_section(outliers, "stream.outliers", ("prob", "var"))
            return cls(p=p, D=read("D", integer), sigma=read("sigma"),
                       seed=read_field(integer, sd.get("seed", default_seed), "stream.seed"),
                       design=str(sd.get("design", "gaussian")), cov=cov,
                       df=read("df") if sd.get("df") is not None else None,
                       theta=read("theta", _float_array) if sd.get("theta") is not None else None,
                       outlier_prob=read_field(float, outliers.get("prob", 0.0),
                                               "stream.outliers.prob"),
                       outlier_var=read_field(float, outliers.get("var", 0.0),
                                              "stream.outliers.var"))
        except DomainError as exc:
            raise ConfigError(f"invalid 'stream' section: {exc}") from exc

    def to_doc(self) -> dict:
        """The stream section from_doc reads back as this spec; any
        covariance is written as an explicit matrix."""
        doc: dict = {"p": self.p, "D": self.D, "sigma": self.sigma,
                     "seed": self.seed, "design": self.design}
        if self.cov is not None:
            doc["cov"] = {"kind": "explicit", "matrix": self.cov.tolist()}
        if self.df is not None:
            doc["df"] = self.df
        if self.theta is not None:
            doc["theta"] = self.theta.tolist()
        if self.has_outliers:
            doc["outliers"] = {"prob": self.outlier_prob, "var": self.outlier_var}
        return doc

    def with_seed(self, seed: int) -> "StreamSpec":
        return replace(self, seed=int(seed))

    def pinned(self) -> "StreamSpec":
        """Same spec with theta made explicit, so reseeding (e.g. per
        Monte Carlo replicate) keeps the truth fixed."""
        if self.theta is not None:
            return self
        return replace(self, theta=self.resolved_theta())


def _chol_factor(spec: StreamSpec) -> np.ndarray | None:
    if spec.cov is None:
        return None
    try:
        return np.linalg.cholesky(spec.cov)
    except np.linalg.LinAlgError as exc:
        raise DomainError("cov is not symmetric positive definite") from exc


def _panels(spec: StreamSpec):
    """Yield (y, X) panels of a fixed internal size.

    The panel size is a constant, never caller-chosen: matrix products
    round differently for different operand shapes, so computing in
    caller-sized chunks would leak the consumption pattern into the
    last bits of the stream.  No panel outlives the consumer's hold on
    it: the generator keeps no reference to what it has yielded.
    """
    L = _chol_factor(spec)
    theta = spec.resolved_theta()
    rng_x = substream(spec.seed, _DESIGN)
    rng_v = substream(spec.seed, _NOISE)
    rng_t = substream(spec.seed, _TAIL) if spec.design == "student-t" else None
    if spec.has_outliers:
        rng_of = substream(spec.seed, _OUT_FLAG)
        rng_om = substream(spec.seed, _OUT_MAG)

    def draw(m: int):
        X = rng_x.standard_normal((m, spec.p))
        if L is not None:
            X = X @ L.T
        if rng_t is not None:
            u = rng_t.chisquare(spec.df, size=m)
            X *= np.sqrt(spec.df / u)[:, None]
        y = X @ theta + spec.sigma * rng_v.standard_normal(m)
        if spec.has_outliers:
            flags = rng_of.random(m) < spec.outlier_prob
            mags = rng_om.standard_normal(m) * np.sqrt(spec.outlier_var)
            y = y + flags * mags
        return y, X

    remaining = spec.D
    while remaining > 0:
        m = min(_PANEL, remaining)
        remaining -= m
        yield draw(m)


def generate(spec: StreamSpec, panels: bool = False):
    """Lazily yield the stream's (y, x) data in order.

    y is a float and x a length-p array; storage stays O(panel * p)
    regardless of D, and the values are bitwise identical to
    ``materialize`` of the same spec.  With panels=True the walk yields
    the internal (y, X) panels themselves, up to ``_PANEL`` (256)
    consecutive data each, instead of one datum at a time.
    """
    if panels:
        yield from _panels(spec)
        return
    for y, X in _panels(spec):
        yield from zip(y, X)


def materialize(spec: StreamSpec) -> tuple[np.ndarray, np.ndarray]:
    """The whole stream as (X, y) arrays, identical to the lazy walk."""
    ys, Xs = [], []
    for y, X in _panels(spec):
        ys.append(y)
        Xs.append(X)
    return np.concatenate(Xs, axis=0), np.concatenate(ys)


def full_lse_mse(spec: StreamSpec, runs: int) -> float:
    """Monte Carlo MSE of the full-data least-squares estimate.

    Averages ||theta_hat - theta_o||^2 over fresh instances of the
    spec (child seeds), the reference floor for streaming curves.
    """
    if runs < 1:
        raise DomainError("runs must be >= 1")
    total = 0.0
    for r in range(int(runs)):
        inst = spec.with_seed(derive(spec.seed, r))
        X, y = materialize(inst)
        err = batch_lse(X, y) - inst.resolved_theta()
        total += float(err @ err)
    return total / runs
