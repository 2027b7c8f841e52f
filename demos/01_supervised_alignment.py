"""Supervised alignment walkthrough on a synthetic rotated pair.

We fabricate a 'source language' as a Gaussian cloud, make the 'target
language' a noisy rotation of it, and then pretend we only know a seed
dictionary. Every aligner should approximately undo the rotation; the
held-out MAP tells us how well each one did. Each aligner runs through
`clembed.align`, which takes its parameters by the `clembed align` flags'
names.

Run:  python3 demos/01_supervised_alignment.py
"""

import numpy as np

from clembed import align
from clembed.embeddings import WordVectorSpace
from clembed.evaluation import bli_evaluate
from clembed.lexicon import make_lexicon

rng = np.random.default_rng(7)
n, d = 500, 20
x = rng.standard_normal((n, d))
rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
y = x @ rotation + 0.05 * rng.standard_normal((n, d))

words = tuple(f"w{i:04d}" for i in range(n))
src = WordVectorSpace(words, x)
tgt = WordVectorSpace(words, y)

# The first 400 words act as the (frequency-ordered) training dictionary,
# the last 100 as the held-out test dictionary.
train = make_lexicon((w, w) for w in words[:400])
test = make_lexicon((w, w) for w in words[400:])


def score(pair):
    return bli_evaluate(pair, src, tgt, test).map_score


print("Procrustes (closed form, orthogonal):")
proc = align("proc", src, tgt, train)
print(f"  held-out MAP = {score(proc):.3f}, "
      f"||W - R||_F = {np.linalg.norm(proc.w_src - rotation):.2e}")

print("Bootstrapped Procrustes from only 10 seed pairs:")
seed = train[:10]
plain_small = align("proc", src, tgt, seed)
boot = align("proc-b", src, tgt, seed, iters=2)
print(f"  plain 10-pair MAP = {score(plain_small):.3f}")
print(f"  bootstrapped MAP  = {score(boot):.3f} "
      f"(dictionary grew to {boot.metadata['dict_sizes'][-1]} pairs)")

print("CCA (projects both spaces into the shared correlated basis):")
print(f"  held-out MAP = {score(align('cca', src, tgt, train)):.3f}")

print("Latent-variable EM refinement from a 50-pair seed:")
dlv = align("dlv", src, tgt, train[:50], iters=2, search_cap=300)
print(f"  held-out MAP = {score(dlv):.3f}")

print("RCSLS (relaxed retrieval criterion, non-orthogonal map):")
rcsls = align("rcsls", src, tgt, train, epochs=3)
print(f"  held-out MAP = {score(rcsls):.3f}")
