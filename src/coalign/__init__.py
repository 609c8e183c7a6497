"""Desk-scale lab for domain adaptation under joint feature and label shift.

Builds long-tailed source/target splits with mirrored class rankings,
trains a prototype-based cosine classifier with adversarial entropy and
class-balanced self-training, and reports per-class mean accuracy against
source-only and marginal-alignment baselines.
"""

from .data import (
    LabeledDataset,
    ShiftSpec,
    balanced_batches,
    build_shift,
    generate_twin_domains,
    load_csv,
    load_idx,
    natural_batches,
    pareto_proportions,
)
from .evaluation import (
    compare_distributions,
    confusion_matrix,
    per_class_mean_accuracy,
    project_features_2d,
    render_table,
)
from .model import ForwardCache, ModelParams, forward_full, init_model
from .objectives import source_classification_loss
from .selftrain import (
    KSchedule,
    PseudoLabelSet,
    advance_k,
    assign_pseudo_labels,
    estimate_target_distribution,
    select_top_k_per_class,
)
from .trainer import RunReport, TrainConfig, pretrain, run_coal_epoch, run_experiment

__version__ = "0.1.0"
