"""Online continual learning with decomposed dot/cosine scoring and replay."""

from .config import ConfigError, DatasetSpec, ExperimentConfig, build_dataset, \
    parse_config, parse_config_text, serialize_config
from .evaluation import StageMetrics, StageScores, accuracy, average_accuracy, \
    average_posterior, bias_diagnostics, posterior_group_means, read_metrics, score_stages, \
    write_metrics
from .logits import CosineScale, LogitMode, PredictorParams, StepPlan, cosine_logits_batch, \
    dot_logits_batch, loss_current, loss_dot, loss_replay, loss_rows, step_plan
from .memory import MemoryBuffer, buffer_retrieve, buffer_update
from .net import FeatureExtractor, GradientTape, LayerParams, backward_batch, forward_batch, \
    init_extractor, sgd_step
from .numeric import NonFiniteError, Rng, ShapeError, make_rng
from .stream import Dataset, LabeledData, StageRows, StreamConfig, SyntheticSpec, build_stages, \
    gen_synthetic, iterate_batches, load_csv_dataset, split_gauss_10
from .trainer import ExperimentResult, FeaturesCollapsed, LogitTriple, MethodConfig, \
    ReplayRule, Run, RunGroup, StreamState, TrainState, catch_up, er_method, finetune_method, \
    init_state, lucir_method, register_classes, run_experiment, run_trajectories, train_step, \
    triple_method, uer_a_method, uer_method

__version__ = "0.1.0"
