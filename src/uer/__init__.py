"""Online continual learning with decomposed dot/cosine scoring and replay."""

from .config import ConfigError, DatasetSpec, ExperimentConfig, build_dataset, \
    parse_config, parse_config_text, serialize_config
from .evaluation import StageMetrics, StageScores, accuracy, average_accuracy, \
    average_posterior, bias_diagnostics, posterior_group_means, read_metrics, score_stages, \
    write_metrics
from .logits import CosineScale, LogitMode, PredictorParams, cosine_logits, cross_entropy, \
    dot_logits, loss_current, loss_dot, loss_replay, loss_rows, predict, predictor_grad_cos, \
    predictor_grad_dot, softmax
from .memory import MemoryBuffer, buffer_retrieve, buffer_update, load_buffer, save_buffer
from .net import FeatureExtractor, GradientTape, LayerParams, backward, forward, \
    init_extractor, load_checkpoint, save_checkpoint, sgd_step
from .numeric import NonFiniteError, Rng, ShapeError, l2_norm, make_rng, matvec, rng_uniform
from .stream import Dataset, LabeledData, Stage, StageRows, StreamConfig, SyntheticSpec, \
    build_stages, gen_synthetic, iterate_batches, load_csv_dataset, split_gauss_10, split_stages
from .trainer import ExperimentResult, FeaturesCollapsed, LogitTriple, MethodConfig, \
    ReplayRule, RunGroup, StreamState, TrainState, er_method, finetune_method, lucir_method, \
    register_classes, run_experiment, run_trajectories, train_step, triple_method, \
    uer_a_method, uer_method

__version__ = "0.1.0"
