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
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping

import numpy as np

from . import diffkit as dk
from .diffkit import ParamStore, Tape, Tensor, _as_matrix, constant
from .errors import ContractError, ParameterError, ShapeError
from .graphcore import Graph
from .rng import derive_seed, keyed_rng

# Each variant's output heads: (name, width) pairs, one linear layer each.
_HEADS = {
    "dual": (("pred", 1), ("width", 1)),
    "fixed_margin": (("pred", 1),),
    "single": (("bounds", 2),),
    "sqr": (("pred", 1),),
}
VARIANTS = tuple(_HEADS)


@dataclass(frozen=True)
class ModelConfig:
    in_dim: int
    hidden: int = 64
    variant: str = "dual"
    dropout_p: float = 0.0

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and v >= 1
                   for v in (self.in_dim, self.hidden)):
            raise ParameterError("in_dim and hidden must be positive integers, "
                                 f"got {self.in_dim!r} and {self.hidden!r}")
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

    def __len__(self) -> int:
        return self.low.shape[0]

    @property
    def low_values(self) -> np.ndarray:
        return self.low.value.ravel()

    @property
    def up_values(self) -> np.ndarray:
        return self.up.value.ravel()

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
    heads = _HEADS[config.variant]
    shapes: dict[str, tuple[int, int]] = {
        "sage1.self": (d_in, h),
        "sage1.neigh": (d_in, h),
        "sage2.self": (h, h),
        "sage2.neigh": (h, h),
    }
    shapes.update((f"{head}.weight", (h, k)) for head, k in heads)

    params = ParamStore()
    for name, shape in sorted(shapes.items()):
        params.add(name, _glorot(shape, seed, name))
    params.add("sage1.bias", np.zeros((1, h)))
    params.add("sage2.bias", np.zeros((1, h)))
    for head, k in heads:
        params.add(f"{head}.bias", np.zeros((1, k)))
    if config.variant == "fixed_margin":
        params.add("margin", np.zeros((1, 1)))
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

def _features(x) -> Tensor:
    """``constant(x)``, but an array already in its layout is not copied:
    ``encode`` never writes ``x``."""
    return Tensor(np.ascontiguousarray(_as_matrix(x)))


def encode(graph: Graph, x: Tensor, params: Mapping[str, Tensor],
           dropout_p: float = 0.0, seed: int = 0) -> Tensor:
    """Two message-passing layers with ReLU, dropout after each ReLU.

    Dropout runs whenever ``dropout_p`` > 0, with masks keyed by
    ``seed``.  Each layer runs its own dropout (``dk.sage_relu``),
    masking the output it has just made in place; ``x`` is never
    written, so callers hand it over uncopied.
    """
    if x.shape[0] != graph.num_nodes:
        raise ShapeError(f"{x.shape[0]} feature rows for {graph.num_nodes} nodes")
    if x.shape[1] != params["sage1.self"].shape[0]:
        raise ShapeError(
            f"feature dim {x.shape[1]} vs encoder input "
            f"{params['sage1.self'].shape[0]}")
    h = x
    for layer in (1, 2):
        h = dk.sage_relu(graph, h, *(params[f"sage{layer}.{part}"]
                                     for part in ("self", "neigh", "bias")),
                         dropout_p, derive_seed(seed, "enc-drop", layer))
    return h


def _heads(h: Tensor, params: Mapping[str, Tensor], names) -> list[Tensor]:
    """The output heads ``names`` of ``_HEADS`` on ``h``, as one step.
    ``h`` is always an encoder output made here that nothing reads
    again, so its buffer takes its gradient (see ``dk.linear_heads``)."""
    return dk.linear_heads(h, [(params[f"{n}.weight"], params[f"{n}.bias"])
                               for n in names], dead=True)


def sqr_forward(graph: Graph, x: np.ndarray, tau, params: Mapping[str, Tensor],
                dropout_p: float = 0.0, seed: int = 0) -> Tensor:
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
    x_tau = Tensor(np.hstack([np.asarray(x, dtype=np.float64),
                              tau_arr.reshape(-1, 1)]))
    h = encode(graph, x_tau, params, dropout_p, seed)
    return _heads(h, params, ("pred",))[0]


def forward_intervals(model: Model, graph: Graph, x: np.ndarray,
                      tape: Tape | None = None, seed: int = 0,
                      alpha: float = 0.1) -> IntervalSet:
    """Evaluate a model into an IntervalSet.

    A taped forward is the training forward: parameters enter as tracked
    leaves, dropout runs at the model's ``dropout_p`` with masks keyed
    by ``seed``, and the result is differentiable.  Without a tape the
    pass is forward-only and dropout is off.  For the ``sqr`` variant
    the interval is [q(alpha/2), q(1 - alpha/2)].
    """
    if tape is not None:
        params, p = model.params.leaves(tape), model.config.dropout_p
    else:
        params, p = model.params.constants(), 0.0
    if model.config.variant == "sqr":
        low = sqr_forward(graph, x, alpha / 2.0, params, p, seed)
        up = sqr_forward(graph, x, 1.0 - alpha / 2.0, params, p, seed)
        return IntervalSet(low, up)
    h = encode(graph, _features(x), params, p, seed)
    if model.config.variant == "dual":
        # A softplus half-width is never negative.
        yhat, width = _heads(h, params, ("pred", "width"))
        dhat = dk.softplus(width)
        return IntervalSet(dk.sub(yhat, dhat), dk.add(yhat, dhat))
    if model.config.variant == "fixed_margin":
        (yhat,) = _heads(h, params, ("pred",))
        half = dk.softplus(params["margin"])
        return IntervalSet(dk.add_row_bias(yhat, dk.scale(half, -1.0)),
                           dk.add_row_bias(yhat, half))
    # "single"; ModelConfig refuses any other variant.  Raw (low, up)
    # columns: no ordering is imposed here.
    (bounds,) = _heads(h, params, ("bounds",))
    return IntervalSet(dk.slice_cols(bounds, 0, 1), dk.slice_cols(bounds, 1, 2))


def _check_t_mult(t_mult: float) -> None:
    # A negative multiplier crosses every interval; NaN makes NaN bounds.
    if not 0.0 <= t_mult < np.inf:
        raise ParameterError(f"t_mult must be finite and >= 0, got {t_mult!r}")


def interval_from_mc_samples(samples: np.ndarray, t_mult: float) -> IntervalSet:
    """Mean +/- t_mult * sample std (ddof=1) across the first axis."""
    _check_t_mult(t_mult)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ParameterError("need a (passes, nodes) array with passes >= 2")
    mu = samples.mean(axis=0)
    sd = samples.std(axis=0, ddof=1)
    return IntervalSet(constant((mu - t_mult * sd).reshape(-1, 1)),
                       constant((mu + t_mult * sd).reshape(-1, 1)))


def mc_dropout_interval(graph: Graph, x: np.ndarray, model: Model,
                        passes: int = 100, dropout_p: float = 0.2,
                        t_mult: float = 1.6449, seed: int = 0) -> IntervalSet:
    """Stochastic-forward intervals from a point predictor.

    Runs ``passes`` forward evaluations with dropout left on and builds
    mean +/- t_mult * std per node.  Pass seeds are derived from
    (seed, pass index), so the whole procedure is reproducible.  Every
    argument is checked before the first pass runs.
    """
    if not isinstance(passes, numbers.Integral) or passes < 2:
        raise ParameterError(f"passes must be an integer >= 2, got {passes!r}")
    if not 0.0 < dropout_p < 1.0:  # at 0 every pass would be the same point
        raise ParameterError("mc_dropout_interval needs dropout_p > 0 and "
                             f"< 1, got {dropout_p!r}")
    _check_t_mult(t_mult)
    if "pred.weight" not in model.params:
        raise ContractError("model has no point-prediction head")
    params = model.params.constants()
    x = _features(x)
    rows = []
    for t in range(passes):
        h = encode(graph, x, params, dropout_p, derive_seed(seed, "mc", t))
        rows.append(_heads(h, params, ("pred",))[0].value.ravel())
        del h  # this pass's encoder output, before the next pass starts
    return interval_from_mc_samples(np.vstack(rows), t_mult)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = 1


def save_checkpoint(model: Model, path: str | Path,
                    mc_dropout: Mapping[str, int] | None = None) -> None:
    """JSON checkpoint: format version, config, and name -> shape and
    row-major values; for a model scored by MC dropout, also the pass
    count and seed of its scoring, ``mc_dropout``."""
    payload = {
        "format_version": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "params": {
            name: {
                "shape": list(model.params.value(name).shape),
                "values": model.params.value(name).ravel().tolist(),
            }
            for name in model.params.names()
        },
    }
    if mc_dropout is not None:
        payload["mc_dropout"] = dict(mc_dropout)
    Path(path).write_text(json.dumps(payload))


def read_checkpoint(path: str | Path) -> tuple[Model, dict | None]:
    """Rebuild a model, validating every parameter's shape against the
    config and rejecting non-finite values, and return it with its
    ``mc_dropout`` scoring settings (None when it has none).  A
    checkpoint without a ``format_version`` is version 1; any other
    version is rejected.  Every malformed checkpoint raises
    ``ContractError``, an unknown variant included."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ContractError(f"checkpoint is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ContractError("checkpoint is not a JSON object")
    version = payload.get("format_version", CHECKPOINT_FORMAT)
    if type(version) is not int or version != CHECKPOINT_FORMAT:
        raise ContractError(
            f"checkpoint format_version {version!r} is not supported "
            f"(expected {CHECKPOINT_FORMAT})")
    stored = payload.get("params")
    if not isinstance(stored, dict):
        raise ContractError("checkpoint has no 'params' object")
    try:
        config = ModelConfig(**payload.get("config"))
        expected = init_params(config, 0)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"checkpoint config is invalid: {exc}") from exc
    if set(stored) != set(expected.names()):
        raise ContractError("checkpoint parameter names do not match config")
    params = ParamStore()
    for name in expected.names():
        try:
            shape = tuple(stored[name]["shape"])
            arr = np.asarray(stored[name]["values"], dtype=np.float64)
        except (TypeError, KeyError, ValueError) as exc:
            raise ContractError(
                f"checkpoint parameter {name!r} is malformed") from exc
        want = expected.value(name).shape
        if shape != want or arr.size != expected.value(name).size:
            raise ContractError(
                f"checkpoint shape {shape} with {arr.size} values for "
                f"{name!r}, expected {want}")
        if not np.all(np.isfinite(arr)):
            # json reads NaN and Infinity without complaint.
            raise ContractError(f"checkpoint parameter {name!r} is not finite")
        params.add(name, arr.reshape(want))
    mc = payload.get("mc_dropout")
    if "mc_dropout" in payload and not (
            isinstance(mc, dict) and set(mc) == {"passes", "seed"}
            and all(type(v) is int and v >= 0 for v in mc.values())
            and mc["passes"] >= 2 and config.dropout_p > 0.0):
        raise ContractError(f"checkpoint mc_dropout {mc!r} needs integer "
                            "passes >= 2 and seed >= 0, and dropout_p > 0")
    return Model(config, params), mc
