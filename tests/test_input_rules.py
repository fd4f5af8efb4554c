"""Every seed and count of the public API refuses a fraction and a bool.

The cases come from the signatures: each function that ``qpignn``
exports, and each field of the four run configurations, whose parameter
is named in ``INTEGERS`` or ends in ``_seed`` is called with 0.5, with
True, and with its valid value plus 0.5 (a fraction no range check
refuses) in that place, and must raise ``ParameterError`` naming it.
A new public seed or count is therefore covered once its callable has
a valid call in ``VALID``; without one, its cases fail with a KeyError.

Where the rule is "before any work" (``dataset_preset`` and the suites;
the run configurations do no work), the generators and ``harness.train``
are patched to fail, so the check must come first.  Everywhere else the
refusal may come from the keyed stream itself, so ``keyed_rng`` and
``derive_seed`` are left as they are.
"""
import inspect

import pytest

import qpignn as q
from qpignn import ModelConfig, PerturbSpec, SplitSpec, TrainConfig
from qpignn.errors import ParameterError
from qpignn.rng import keyed_rng

INTEGERS = {"seed", "n", "m", "nodes", "num_nodes", "rows", "cols",
            "branching", "depth", "feat_dim", "epochs", "passes",
            "mc_passes", "runs", "budget", "trials", "jobs", "in_dim",
            "hidden"}

CONFIGS = (TrainConfig, ModelConfig, SplitSpec, PerturbSpec)

# Callables that build a graph or train a run, and check every integer
# input before they do.
WORKERS = {"dataset_preset", "lambda_sweep", "lambda_tune", "ablation_suite",
           "robustness_suite", "split_experiment", "shift_matrix"}

WORK = ("gen_er", "gen_ba", "gen_grid", "gen_chain", "gen_tree", "train")


class Work(Exception):
    """Raised by the patched generators and ``train``."""


def _callables() -> dict:
    found = {name: obj for name, obj in vars(q).items()
             if inspect.isfunction(obj) and not name.startswith("_")}
    found.update((c.__name__, c) for c in CONFIGS)
    return found


CALLABLES = _callables()

CASES = sorted((name, param)
               for name, obj in CALLABLES.items()
               for param in inspect.signature(obj).parameters
               if param in INTEGERS or param.endswith("_seed"))


class Env:
    """The arguments the valid calls share, built once per module."""

    def __init__(self, ds):
        self.ds = ds
        self.graph = q.gen_chain(6)
        self.x = keyed_rng(0, "rules-x").standard_normal((6, 3))
        self.config = ModelConfig(in_dim=3, hidden=4, dropout_p=0.3)
        self.model = q.init_model(self.config, 0)
        self.cfg = TrainConfig(epochs=2, hidden=8)


# A valid keyword call of each callable in CASES.
VALID = {
    "derive_seed": lambda e: dict(seed=1, tag="t"),
    "keyed_rng": lambda e: dict(seed=1, tag="t"),
    "from_edges": lambda e: dict(num_nodes=3, edges=[(0, 1)]),
    # p == 0 returns before any draw, and must still check the seed.
    "gen_er": lambda e: dict(n=10, p=0.0, seed=0),
    "gen_ba": lambda e: dict(n=10, m=2, seed=0),
    "gen_grid": lambda e: dict(rows=2, cols=3),
    "gen_chain": lambda e: dict(n=4),
    "gen_tree": lambda e: dict(branching=2, depth=2),
    "synth_dataset": lambda e: dict(graph=e.graph, family="gaussian",
                                    feat_dim=2, noise_sigma=1.0, seed=0),
    "init_model": lambda e: dict(config=e.config, seed=0),
    "init_params": lambda e: dict(config=e.config, seed=0),
    "encode": lambda e: dict(graph=e.graph, x=q.constant(e.x),
                             params=e.model.params.constants(), seed=0),
    "sqr_forward": lambda e: dict(
        graph=e.graph, x=e.x, tau=0.5, seed=0, params=q.init_params(
            ModelConfig(in_dim=3, hidden=4, variant="sqr"), 0).constants()),
    "forward_intervals": lambda e: dict(model=e.model, graph=e.graph, x=e.x,
                                        seed=0),
    "mc_dropout_interval": lambda e: dict(graph=e.graph, x=e.x, model=e.model,
                                          passes=2, seed=0),
    "hoeffding_epsilon": lambda e: dict(n=10, delta=0.1),
    "mcdiarmid_prob": lambda e: dict(n=10, eps=0.1),
    "concentration_check": lambda e: dict(interval_rule=(-1.0, 1.0), n=20,
                                          trials=4, seed=0, sizes=(5, 20)),
    "TrainConfig": lambda e: dict(),
    "ModelConfig": lambda e: dict(in_dim=3),
    "SplitSpec": lambda e: dict(),
    "PerturbSpec": lambda e: dict(kind="feature_noise", level=0.1),
    "dataset_preset": lambda e: dict(name="er", nodes=40, seed=0),
    "lambda_sweep": lambda e: dict(ds=e.ds, cfg=e.cfg, grid=(0.1,)),
    "lambda_tune": lambda e: dict(ds=e.ds, cfg=e.cfg, budget=3),
    "ablation_suite": lambda e: dict(ds=e.ds, cfg=e.cfg, seeds=(0,)),
    "robustness_suite": lambda e: dict(ds=e.ds, cfg=e.cfg,
                                       levels={"feature_noise": (0.1,)}),
    "split_experiment": lambda e: dict(ds=e.ds, cfg=e.cfg,
                                       kinds=("random", "degree")),
    "shift_matrix": lambda e: dict(cfg=e.cfg, nodes=40, runs=1),
}


@pytest.fixture(scope="module")
def env(small_ds):
    return Env(small_ds)


def test_the_signatures_name_every_kind_of_integer_input():
    """The cases reach configs, seeds under another name, generators,
    model calls, theory checks and suites."""
    names = {name for name, _ in CASES}
    assert {"TrainConfig", "ModelConfig", "SplitSpec", "PerturbSpec",
            "gen_tree", "mc_dropout_interval", "concentration_check",
            "shift_matrix"} <= names
    assert ("shift_matrix", "data_seed") in CASES
    assert {param for _, param in CASES} == INTEGERS | {"data_seed"}


@pytest.mark.parametrize("bad", ["0.5", "True", "valid+0.5"])
@pytest.mark.parametrize("name, param", CASES,
                         ids=[f"{n}-{p}" for n, p in CASES])
def test_an_integer_input_refuses_a_fraction_and_a_bool(
        name, param, bad, env, monkeypatch):
    call = CALLABLES[name]
    kwargs = VALID[name](env)
    valid = kwargs.get(param, inspect.signature(call).parameters[param].default)
    bad = {"0.5": 0.5, "True": True}.get(bad, valid + 0.5)
    # The valid call runs, or gets as far as the patched work.
    if name in WORKERS:
        def work(*args, **kw):
            raise Work(f"{name} did work before refusing {param}={bad!r}")
        for attr in WORK:
            monkeypatch.setattr(q.harness, attr, work)
        with pytest.raises(Work):
            call(**kwargs)
    else:
        call(**kwargs)
    word = "seed" if param.endswith("_seed") else param
    with pytest.raises(ParameterError, match=rf"\b{word} must be an integer"):
        call(**{**kwargs, param: bad})
