"""topicsteer: steer text generation toward a topic by reweighting logits.

Any ``models.LogitsProvider`` can be decoded with greedy search, seeded
top-k/top-p sampling, or beam search, while a processor chain rewrites the
logits of topic-relevant tokens at every step. Scoring and a sweep harness
measure the resulting topical focus and summary quality.
"""

from .decoding import (
    GenerationConfig,
    GenerationResult,
    generate,
    generate_beam,
    generate_greedy,
    generate_sample,
    truncate_top_k_top_p,
)
from .experiment import (
    Condition,
    CorpusFormatError,
    CorpusSample,
    ExperimentConfig,
    MergeConflictError,
    RowContext,
    derive_seed,
    load_corpus,
    merge_external_scores,
    run_sweep,
)
from .models import (
    LogitsProvider,
    NonFiniteLogitsError,
    ToyMarkovModel,
    ToyModelFormatError,
    Vocabulary,
    load_toy_model,
    log_softmax,
    save_toy_model,
    softmax,
)
from .reweight import (
    ProcessorChain,
    ReweightConfig,
    VocabularyMismatchError,
    apply_reweight,
    build_chain,
    constant_shift,
    factor_scaling,
    threshold_selection,
)
from .scoring import (
    dict_topic_score,
    lemma_topic_score,
    rouge_l_f1,
    score_summary,
    token_topic_score,
)
from .stemmer import stem
from .topics import (
    TopicModel,
    TopicModelFormatError,
    TopicTokenSet,
    expand_word,
    load_topic_model,
    topic_token_set,
)

__version__ = "0.1.0"
