"""Dictionary-free alignment: similarity heuristic, self-learning, ICP, GW.

No seed dictionary at all here. The similarity-profile heuristic plus
stochastic self-learning recovers a rotated noisy cloud; point-cloud ICP
with random restarts handles a spiral-shaped cloud (its shape pins down
the rotation); the transport-based aligner works from intra-space cosine
matrices alone. Each aligner runs through `clembed.align`, which takes its
parameters by the `clembed align` flags' names, and by the aligner's own
name where no flag sets one (ICP's `max_iters` below).

Run:  python3 demos/02_unsupervised_alignment.py   (takes ~1 minute)
"""

import numpy as np

from clembed import align
from clembed.embeddings import WordVectorSpace
from clembed.evaluation import bli_evaluate
from clembed.lexicon import make_lexicon

rng = np.random.default_rng(7)


def rotated(x, noise):
    d = x.shape[1]
    rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return x @ rot + noise * rng.standard_normal(x.shape)


def spaces_from(x, y):
    words = tuple(f"w{i:04d}" for i in range(len(x)))
    return (WordVectorSpace(words, x), WordVectorSpace(words, y),
            make_lexicon((w, w) for w in words[-100:]))


print("Self-learning from the similarity-profile seed:")
x = rng.standard_normal((500, 20))
src, tgt, test = spaces_from(x, rotated(x, 0.05))
pair = align("vecmap", src, tgt, search_cap=500, seed=0)
res = bli_evaluate(pair, src, tgt, test)
print(f"  held-out MAP = {res.map_score:.3f} after "
      f"{pair.metadata['rounds']} rounds")

print("ICP with 20 restarts on a spiral-shaped cloud:")
theta = rng.permutation(np.linspace(0.5, 2 * np.pi, 400))
cloud = np.zeros((400, 20))
cloud[:, 0] = 0.3 * theta * np.cos(theta)
cloud[:, 1] = 0.3 * theta * np.sin(theta)
cloud += 0.05 * rng.standard_normal((400, 20))
src, tgt, test = spaces_from(cloud, rotated(cloud, 0.0))
pair = align("icp", src, tgt, pca_dim=3, search_cap=300, restarts=20,
             max_iters=400, seed=0)
res = bli_evaluate(pair, src, tgt, test)
print(f"  held-out MAP = {res.map_score:.3f} "
      f"(best restart loss {pair.metadata['best_loss']:.3g})")

print("Gromov-Wasserstein transport (rotation-invariant by construction):")
x = rng.standard_normal((120, 10))
src, tgt, test = spaces_from(x, rotated(x, 0.0))
pair = align("gwa", src, tgt, search_cap=120)
res = bli_evaluate(pair, src, tgt, test)
print(f"  held-out MAP = {res.map_score:.3f}")
