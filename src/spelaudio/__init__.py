"""Self-paced ensemble learning for audio classification.

An ensemble of compact gradient-trained classifiers is pre-trained on
labeled source audio, then iteratively fine-tuned on its own most
confident pseudo-labels from an unlabeled target domain. Ships with a
mel-spectrogram frontend, ranking/recall metrics, a paired McNemar
test, and an experiment harness with synthetic and WAV-directory data
sources.
"""

from .config import ConfigError, ExperimentConfig, config_from_text, load_config
from .dsp import (
    MelFilterbank,
    MelImage,
    Signal,
    StftConfig,
    fix_length,
    mel_filterbank,
    normalize_minmax,
    power_to_db,
    preprocess,
    stft,
)
from .engine import (
    ExperimentData,
    PseudoSet,
    RoundReport,
    SpelConfig,
    SpelResult,
    UnlabeledSet,
    pretrain,
    run_spel,
    select_pseudo,
    spel_round,
)
from .ensemble import Ensemble, EnsemblePrediction, avg_predict
from .experiment import (
    ResultsRecord,
    benchmark_config,
    enumerate_grid,
    run_experiment,
    sliding_window_predict,
    sweep,
)
from .learner import (
    DivergenceError,
    LearnerParams,
    LabeledSet,
    LearnerSpec,
    OptimizerState,
    forward,
    init_adam,
    init_params,
    load_params,
    save_params,
    train,
)
from .metrics import TASK_METRICS, McNemarResult, accuracy, lrap, mcnemar, task_metrics, uar, wlrap
from .synthetic import SyntheticSpec, gen_synthetic
from .wavio import UnsupportedWavError, WavFormatError, load_wav, write_wav

__version__ = "0.1.0"
