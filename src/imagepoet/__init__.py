"""Image-to-poem generator: dual-attention decoder with a keyword memory.

Generates classical Chinese quatrains (character ids) from a visual
feature grid and a set of keywords, with rule-based form validation and
a from-scratch autodiff substrate.
"""

from .errors import (CheckpointError, CheckpointShapeError,
                     CheckpointTruncatedError, CheckpointVersionError,
                     ConfigError, ContractError, DataError, DimensionError,
                     DomainError, NumericalError, UsageError, VocabularyError)
from .model import (LINE_START_ID, POEM_START_ID, GenerationContext,
                    ModelConfig, PoemModel, decode_step, encode_context,
                    generate_line, generate_poem, init_params, output_probs,
                    prepare_context)
from .numerics import Tape, Tensor, grad_check
from .rng import SeededRng
from .topic_memory import MemoryBank, address, encode_keywords, fuse, read
from .training import (AdaDeltaState, TrainConfig, TrainResult, TrainSample,
                       adadelta_update, cross_entropy_loss, train)
from .checkpoint import (checkpoint_bytes, load_checkpoint, model_from_bytes,
                         save_checkpoint)
from .poetics import (FormReport, PoeticLexicon, Violation, reverse_line,
                      validate_form, validate_rhyme, validate_structure,
                      validate_tones)
from .datapipe import (ConceptLexicon, ImageRecord, PoemRecord,
                       build_samples, extract_concepts, keyword_recall,
                       load_corpus, load_feature_file, match_pairs,
                       split_pool, write_feature_file)

__version__ = "0.1.0"
