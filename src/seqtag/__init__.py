"""seqtag: neural sequence labeling with character-aware word representations."""

__version__ = "0.1.0"

from .corpus import build_vocab, load_conll
from .model import ModelConfig, load_model, save_model
from .training import train
