"""Projection-based cross-lingual word embedding alignment and evaluation.

Supervised aligners (proc, proc-b, cca, dlv, rcsls), unsupervised aligners
(vecmap-style self-learning, icp, gwa), bilingual lexicon induction scoring
with significance testing, and unsupervised cross-lingual retrieval.
"""

from .embeddings import (WordVectorSpace, load_text_embeddings, normalize,
                         save_text_embeddings)
from .evaluation import (BliResult, bli_evaluate, bonferroni, paired_ttest,
                         rank_correlation, shuffling_test)
from .lexicon import (AlignedMatrices, TranslationLexicon,
                      build_aligned_matrices, frequency_split, load_lexicon,
                      make_lexicon)
from .linalg import (pca_project, sinkhorn_scale, solve_cca, solve_procrustes,
                     svd)
from .projection import ProjectionPair, load_projection, save_projection
from .supervised import (RcslsConfig, align_cca, align_dlv, align_proc,
                         align_proc_b, align_rcsls)
from .unsupervised import (IcpConfig, SelfLearnConfig, align_gwa, align_icp,
                           self_learn, vecmap_seed)

__version__ = "0.1.0"
