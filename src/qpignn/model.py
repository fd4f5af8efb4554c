"""Two-layer mean-aggregation GNN encoder with interchangeable heads.

The encoder is shared by every variant: two rounds of
``X W_self + mean_neighbors(X) W_neigh + bias`` with ReLU (and optional
dropout) after each.  Heads differ:

- ``dual``:         a point head plus a softplus half-width head; the
                    interval is [center - halfwidth, center + halfwidth].
- ``fixed_margin``: a point head plus one learnable scalar margin.
- ``single``:       a 2-output head emitting (low, up) directly, with no
                    ordering constraint.
- ``sqr``:          a point head conditioned on a quantile level passed
                    as an extra input column.
- ``rqr``:          same shape as ``single``; trained with a different
                    objective by the harness.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping

import numpy as np

from . import diffkit as dk
from .diffkit import ParamStore, Tape, Tensor, constant
from .errors import ContractError, ParameterError, ShapeError
from .graphcore import Graph
from .rng import derive_seed, keyed_rng

VARIANTS = ("dual", "fixed_margin", "single", "sqr", "rqr")


@dataclass(frozen=True)
class ModelConfig:
    in_dim: int
    hidden: int = 64
    variant: str = "dual"
    dropout_p: float = 0.0

    def __post_init__(self):
        if self.in_dim < 1 or self.hidden < 1:
            raise ParameterError("in_dim and hidden must be positive")
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ParameterError("dropout_p must lie in [0, 1)")

    @property
    def encoder_in_dim(self) -> int:
        # The sqr variant consumes the quantile level as one extra column.
        return self.in_dim + 1 if self.variant == "sqr" else self.in_dim


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Per-node prediction intervals, the package's central output.

    ``low`` and ``up`` are (n, 1) tensors; they stay differentiable when
    produced by a model under a tape and are plain constants otherwise.
    """

    low: Tensor
    up: Tensor

    def __post_init__(self):
        if self.low.shape != self.up.shape or self.low.shape[1] != 1:
            raise ShapeError("bounds must both be (n, 1)")

    @classmethod
    def from_arrays(cls, low, up) -> "IntervalSet":
        return cls(constant(np.asarray(low).reshape(-1, 1)),
                   constant(np.asarray(up).reshape(-1, 1)))

    def __len__(self) -> int:
        return self.low.shape[0]

    @property
    def low_values(self) -> np.ndarray:
        return self.low.value.ravel()

    @property
    def up_values(self) -> np.ndarray:
        return self.up.value.ravel()

    def widths(self) -> np.ndarray:
        return self.up_values - self.low_values

    def centers(self) -> np.ndarray:
        return 0.5 * (self.low_values + self.up_values)

    def crossing_rate(self) -> float:
        """Fraction of nodes with low > up (possible for raw 2-output heads)."""
        return float(np.mean(self.low_values > self.up_values))


def _glorot(shape: tuple[int, int], seed: int, name: str) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return keyed_rng(seed, f"init:{name}").uniform(-limit, limit, size=shape)


def init_params(config: ModelConfig, seed: int) -> ParamStore:
    """Glorot-uniform weights keyed per parameter name; zero biases.

    The fixed-margin scalar starts at zero, i.e. a softplus half-width
    of ln 2, matching an untrained width head with zero weights.
    """
    d_in = config.encoder_in_dim
    h = config.hidden
    shapes: dict[str, tuple[int, int]] = {
        "sage1.self": (d_in, h),
        "sage1.neigh": (d_in, h),
        "sage2.self": (h, h),
        "sage2.neigh": (h, h),
    }
    if config.variant in ("dual", "fixed_margin", "sqr"):
        shapes["pred.weight"] = (h, 1)
    if config.variant == "dual":
        shapes["width.weight"] = (h, 1)
    if config.variant in ("single", "rqr"):
        shapes["bounds.weight"] = (h, 2)

    params = ParamStore()
    for name, shape in sorted(shapes.items()):
        params.add(name, _glorot(shape, seed, name))
    params.add("sage1.bias", np.zeros((1, h)))
    params.add("sage2.bias", np.zeros((1, h)))
    if config.variant in ("dual", "fixed_margin", "sqr"):
        params.add("pred.bias", np.zeros((1, 1)))
    if config.variant == "dual":
        params.add("width.bias", np.zeros((1, 1)))
    if config.variant == "fixed_margin":
        params.add("margin", np.zeros((1, 1)))
    if config.variant in ("single", "rqr"):
        params.add("bounds.bias", np.zeros((1, 2)))
    return params


@dataclass(frozen=True, eq=False)
class Model:
    config: ModelConfig
    params: ParamStore


def init_model(config: ModelConfig, seed: int) -> Model:
    return Model(config, init_params(config, seed))


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def _sage_layer(graph: Graph, h: Tensor, params: Mapping[str, Tensor],
                prefix: str) -> Tensor:
    own = dk.matmul(h, params[f"{prefix}.self"])
    nbr = dk.matmul(dk.csr_mean_aggregate(graph, h), params[f"{prefix}.neigh"])
    return dk.add_row_bias(dk.add(own, nbr), params[f"{prefix}.bias"])


def _first_layer(graph: Graph, x: Tensor,
                 params: Mapping[str, Tensor]) -> Tensor:
    """``relu(sage1(x))``: the encoder's first layer, before dropout."""
    if x.shape[0] != graph.num_nodes:
        raise ShapeError(f"{x.shape[0]} feature rows for {graph.num_nodes} nodes")
    if x.shape[1] != params["sage1.self"].shape[0]:
        raise ShapeError(
            f"feature dim {x.shape[1]} vs encoder input "
            f"{params['sage1.self'].shape[0]}")
    return dk.relu(_sage_layer(graph, x, params, "sage1"))


def _after_first_layer(graph: Graph, h: Tensor, params: Mapping[str, Tensor],
                       dropout_p: float, train_mode: bool, seed: int) -> Tensor:
    """The rest of ``encode``, from the first layer's output on."""
    h = dk.dropout(h, dropout_p, derive_seed(seed, "enc-drop", 1), train_mode)
    h = dk.relu(_sage_layer(graph, h, params, "sage2"))
    return dk.dropout(h, dropout_p, derive_seed(seed, "enc-drop", 2), train_mode)


def encode(graph: Graph, x: Tensor, params: Mapping[str, Tensor],
           dropout_p: float = 0.0, train_mode: bool = False,
           seed: int = 0) -> Tensor:
    """Two message-passing layers with ReLU, dropout after each ReLU."""
    return _after_first_layer(graph, _first_layer(graph, x, params), params,
                              dropout_p, train_mode, seed)


def qpi_forward(h: Tensor, params: Mapping[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Dual head: point prediction and softplus half-width (always >= 0)."""
    yhat = dk.add_row_bias(dk.matmul(h, params["pred.weight"]),
                           params["pred.bias"])
    dhat = dk.softplus(dk.add_row_bias(dk.matmul(h, params["width.weight"]),
                                       params["width.bias"]))
    return yhat, dhat


def intervals(yhat: Tensor, dhat: Tensor) -> IntervalSet:
    """[center - halfwidth, center + halfwidth]; halfwidths must be >= 0."""
    if np.any(dhat.value < 0):
        raise ContractError("half-widths must be non-negative")
    return IntervalSet(dk.sub(yhat, dhat), dk.add(yhat, dhat))


def variant_forward(h: Tensor, params: Mapping[str, Tensor],
                    variant: str) -> IntervalSet:
    """Intervals for the encoder-output-based variants."""
    if variant == "dual":
        return intervals(*qpi_forward(h, params))
    if variant == "fixed_margin":
        yhat = dk.add_row_bias(dk.matmul(h, params["pred.weight"]),
                               params["pred.bias"])
        half = dk.softplus(params["margin"])
        return IntervalSet(dk.add_row_bias(yhat, dk.scale(half, -1.0)),
                           dk.add_row_bias(yhat, half))
    if variant in ("single", "rqr"):
        bounds = dk.add_row_bias(dk.matmul(h, params["bounds.weight"]),
                                 params["bounds.bias"])
        # Raw (low, up) columns: no ordering is imposed here.
        return IntervalSet(dk.slice_cols(bounds, 0, 1),
                           dk.slice_cols(bounds, 1, 2))
    raise ParameterError(f"variant {variant!r} has no direct interval head")


def sqr_forward(graph: Graph, x: np.ndarray, tau, params: Mapping[str, Tensor],
                dropout_p: float = 0.0, train_mode: bool = False,
                seed: int = 0) -> Tensor:
    """Quantile-conditioned point prediction.

    ``tau`` is a scalar or per-node vector in (0, 1), appended to the
    features as a constant column, so one trained model can be queried
    at any quantile level.
    """
    tau_arr = np.asarray(tau, dtype=np.float64).reshape(-1)
    if tau_arr.size == 1:
        tau_arr = np.full(graph.num_nodes, tau_arr[0])
    if tau_arr.shape != (graph.num_nodes,):
        raise ShapeError("tau must be scalar or one value per node")
    if np.any((tau_arr <= 0.0) | (tau_arr >= 1.0)):
        raise ParameterError("tau values must lie strictly inside (0, 1)")
    x_tau = constant(np.hstack([np.asarray(x, dtype=np.float64),
                                tau_arr.reshape(-1, 1)]))
    h = encode(graph, x_tau, params, dropout_p, train_mode, seed)
    return dk.add_row_bias(dk.matmul(h, params["pred.weight"]),
                           params["pred.bias"])


def forward_intervals(model: Model, graph: Graph, x: np.ndarray,
                      tape: Tape | None = None, train_mode: bool = False,
                      seed: int = 0, alpha: float = 0.1) -> IntervalSet:
    """Evaluate a model into an IntervalSet.

    With a tape, parameters enter as tracked leaves and the result is
    differentiable; without one the pass is forward-only.  For the
    ``sqr`` variant the interval is [q(alpha/2), q(1 - alpha/2)].
    """
    params = model.params.leaves(tape) if tape is not None \
        else model.params.constants()
    p = model.config.dropout_p
    if model.config.variant == "sqr":
        low = sqr_forward(graph, x, alpha / 2.0, params, p, train_mode, seed)
        up = sqr_forward(graph, x, 1.0 - alpha / 2.0, params, p, train_mode, seed)
        return IntervalSet(low, up)
    h = encode(graph, constant(x), params, p, train_mode, seed)
    return variant_forward(h, params, model.config.variant)


def interval_from_mc_samples(samples: np.ndarray, t_mult: float) -> IntervalSet:
    """Mean +/- t_mult * sample std (ddof=1) across the first axis."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ParameterError("need a (passes, nodes) array with passes >= 2")
    mu = samples.mean(axis=0)
    sd = samples.std(axis=0, ddof=1)
    return IntervalSet.from_arrays(mu - t_mult * sd, mu + t_mult * sd)


def mc_dropout_interval(graph: Graph, x: np.ndarray, model: Model,
                        passes: int = 100, dropout_p: float = 0.2,
                        t_mult: float = 1.6449, seed: int = 0) -> IntervalSet:
    """Stochastic-forward intervals from a point predictor.

    Runs ``passes`` forward evaluations with dropout left on and builds
    mean +/- t_mult * std per node.  Pass seeds are derived from
    (seed, pass index), so the whole procedure is reproducible.
    """
    if passes < 2:
        raise ParameterError("passes must be >= 2")
    if "pred.weight" not in model.params:
        raise ContractError("model has no point-prediction head")
    params = model.params.constants()
    # The first layer has no dropout yet, so every pass shares it.
    h1 = _first_layer(graph, constant(x), params)
    rows = []
    for t in range(passes):
        h = _after_first_layer(graph, h1, params, dropout_p, True,
                               derive_seed(seed, "mc", t))
        yhat = dk.add_row_bias(dk.matmul(h, params["pred.weight"]),
                               params["pred.bias"])
        rows.append(yhat.value.ravel())
    return interval_from_mc_samples(np.vstack(rows), t_mult)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path: str | Path) -> None:
    """JSON checkpoint: config plus name -> shape and row-major values."""
    payload = {
        "config": asdict(model.config),
        "params": {
            name: {
                "shape": list(model.params.value(name).shape),
                "values": model.params.value(name).ravel().tolist(),
            }
            for name in model.params.names()
        },
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild a model, validating every parameter's shape against the
    config and rejecting non-finite values."""
    payload = json.loads(Path(path).read_text())
    config = ModelConfig(**payload["config"])
    expected = init_params(config, 0)
    stored = payload["params"]
    if set(stored) != set(expected.names()):
        raise ContractError("checkpoint parameter names do not match config")
    params = ParamStore()
    for name in expected.names():
        shape = tuple(stored[name]["shape"])
        if shape != expected.value(name).shape:
            raise ContractError(
                f"checkpoint shape {shape} for {name!r}, "
                f"expected {expected.value(name).shape}")
        arr = np.asarray(stored[name]["values"], dtype=np.float64).reshape(shape)
        if not np.all(np.isfinite(arr)):
            # json reads NaN and Infinity without complaint.
            raise ContractError(f"checkpoint parameter {name!r} is not finite")
        params.add(name, arr)
    return Model(config, params)
