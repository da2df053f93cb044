"""seqtag: neural sequence labeling with character-aware word representations."""

__version__ = "0.1.0"

from .autodiff import (
    Tape,
    Tensor,
    backward,
    crf_nll,
    lstm_sequence,
    stop_gradient,
)
from .charcomp import char_aux_loss, combine_attention, compose_words
from .corpus import (
    LabelSet,
    Sentence,
    Vocabulary,
    build_vocab,
    load_conll,
    load_pretrained_embeddings,
    preprocess_token,
)
from .crf import (
    TagLattice,
    crf_sequence_score,
    emission_scores,
    viterbi_decode,
)
from .metrics import MetricResult, Span, extract_spans, f_beta_binary, span_f1, token_accuracy
from .model import (
    Model,
    ModelConfig,
    assemble_model,
    bilstm_run,
    count_parameters,
    load_model,
    parameter_table,
    save_model,
)
from .training import AdaDelta, TrainReport, train
