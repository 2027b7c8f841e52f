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


def _vecmap(src, tgt, lexicon, **params):
    cfg = SelfLearnConfig(**params)
    return self_learn(src, tgt, vecmap_seed(src, tgt, cap=cfg.vocab_cap), cfg)


# method -> (call(src, tgt, dictionary, **own params), reads a dictionary,
# {shared name: own parameter}); an `align` flag's dest is a shared name.
ALIGNERS = {
    "proc": (lambda s, t, d: align_proc(build_aligned_matrices(d, s, t)),
             True, {}),
    "proc-b": (align_proc_b, True, dict(iters="iters", search_cap="search_cap",
                                        metric="metric", csls_n="csls_n")),
    "cca": (lambda s, t, d, **kw: align_cca(
        build_aligned_matrices(d, s, t), **kw), True,
        dict(keep_dims="keep_dims")),
    "dlv": (align_dlv, True, dict(iters="em_iters", search_cap="match_cap")),
    "rcsls": (lambda s, t, d, **kw: align_rcsls(
        build_aligned_matrices(d, s, t), s.matrix, t.matrix,
        RcslsConfig(**kw)), True, dict(csls_n="neighborhood",
                                       learning_rate="learning_rate",
                                       epochs="epochs")),
    "vecmap": (_vecmap, False, dict(search_cap="vocab_cap", metric="metric",
                                    csls_n="csls_n", seed="seed",
                                    max_rounds="max_rounds")),
    "icp": (lambda s, t, d, **kw: align_icp(s, t, IcpConfig(**kw)), False,
            dict(pca_dim="pca_dim", search_cap="top_n_words",
                 restarts="restarts", seed="seed", max_iters="max_iters")),
    "gwa": (lambda s, t, d, **kw: align_gwa(s, t, **kw), False, dict(
        search_cap="cap", gw_lambda="lam", iters="outer_iters",
        sinkhorn_max_iter="sinkhorn_max_iter", sinkhorn_tol="sinkhorn_tol")),
}


def align(method: str, src: WordVectorSpace, tgt: WordVectorSpace,
          lexicon: TranslationLexicon | None = None,
          **params) -> ProjectionPair:
    """Align `src` to `tgt` by `method`, from `lexicon` if the method reads a
    dictionary; `params` go by shared name, and unset ones keep defaults."""
    if method not in ALIGNERS:
        raise ValueError(f"unknown method {method!r}")
    call, supervised, names = ALIGNERS[method]
    if unread := sorted(params.keys() - names.keys()):
        raise ValueError(f"method {method} does not read {', '.join(unread)}")
    if supervised != (lexicon is not None):
        need = "needs" if supervised else "does not read"
        raise ValueError(f"method {method} {need} a dictionary")
    return call(src, tgt, lexicon, **{names[k]: v for k, v in params.items()})
