"""seqtag: neural sequence labeling with character-aware word representations."""

__version__ = "0.1.0"

from .autodiff import (
    Tape,
    Tensor,
    backward,
    lstm_sequence,
    stop_gradient,
)
from .charcomp import (
    char_aux_loss,
    combine_attention,
    combine_concat,
    compose_words,
)
from .corpus import (
    Sentence,
    Vocabulary,
    build_vocab,
    dataset_stats,
    load_conll,
    load_pretrained_embeddings,
    preprocess_token,
)
from .crf import (
    LabelSet,
    TagLattice,
    crf_nll,
    crf_sequence_score,
    emission_scores,
    viterbi_decode,
)
from .layers import bilstm_run, dense_tanh
from .metrics import MetricResult, Span, extract_spans, f_beta_binary, span_f1, token_accuracy
from .model import (
    Model,
    ModelConfig,
    assemble_model,
    count_parameters,
    load_model,
    parameter_table,
    save_model,
)
from .training import AdaDelta, TrainReport, train
