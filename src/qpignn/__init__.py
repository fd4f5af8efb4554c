"""Quantile-free prediction intervals for node regression on graphs."""

from .errors import (ContractError, IngestionError, ParameterError,
                     QpignnError, ShapeError, TrainingError)
from .rng import derive_seed, keyed_rng
from .graphcore import (Dataset, Graph, PerturbSpec, SplitSpec, from_edges,
                        gen_ba, gen_chain, gen_er, gen_grid, gen_tree,
                        load_csv, perturb, save_csv, split, synth_dataset)
from .diffkit import ParamStore, Tape, Tensor, backward, constant
from .model import (IntervalSet, Model, ModelConfig, encode, forward_intervals,
                    init_model, init_params, load_checkpoint,
                    mc_dropout_interval, save_checkpoint, sqr_forward)
from .losses import (LossBreakdown, mse_loss, pinball_loss, qpi_total_loss,
                     rqr_adj_loss, violation_loss, width_loss)
from .optim import AdamState, adam_step, grad_norm
from .metrics import IntervalStats, MetricsReport, cwc, interval_stats, report
from .harness import (ConcentrationReport, ConvergenceReport, RunRecord,
                      ShiftMatrix, SweepEntry, SweepResult, TrainConfig,
                      ablation_suite, concentration_check, convergence_check,
                      dataset_preset, gaussian_optimal_halfwidth,
                      hoeffding_epsilon, inv_norm_cdf, lambda_sweep,
                      lambda_tune, mcdiarmid_prob, robustness_suite,
                      selection_objective, shift_matrix, split_experiment,
                      train, train_qpignn)

__version__ = "0.1.0"
