"""The decoder orderings the paper reports, on a small simulated set.

The reference gate of the benchmark pins decodes to recorded values; these
tests pin what the paper claims instead, so they hold when posteriors move
in their last bits. Set: identity:40 (DNA), the paper's simulation rates
(ins/del/sub 0.017/0.02/0.022), delta=8, the first 30 clusters of
`simulate_clusters(.., 6 traces, seed 7)`, each drawn and decoded as
`scrambled_eval` would with seed 7. Trellis BMA decodes with the tuned
simulated-data Hamming betas.

Each claim compares decoders per cluster, in pairs: one is below another
when the 95% interval of the mean paired difference of Hamming rates lies
below zero. Measured on this set, as mean Hamming rate, and paired
difference +- 95% half-width:
- K=6: Trellis BMA 0.0017, multiply-posteriors 0.0867 (-0.085 +- 0.027),
  BMALA 0.0108 (-0.009 +- 0.011);
- K=2: Trellis BMA 0.1725, joint trellis 0.1675 (-0.005 +- 0.027);
- K=3: Trellis BMA 0.0783, joint trellis 0.0292 (-0.049 +- 0.024);
- Trellis BMA from K=2 to K=6: -0.171 +- 0.039.
Trellis BMA < BMALA is not resolved on this set (nor on all 60 clusters
of seed 7, -0.004 +- 0.006), so it is not asserted; nor is the joint
trellis below Trellis BMA at K=2, only that it is not above. The asserted
orderings also held on seeds 8 and 9, which were run once, after seed 7
was fixed.
"""

import functools
import math

import numpy as np

from idsrecon import DNA, IDSParams, default_betas, identity_encoder, simulate_clusters
from idsrecon.evaluation import _Z, _eval_chunk, chunked
from idsrecon.trellis_bma import MULTIPLY_POSTERIORS

PAPER = IDSParams.from_error_rates(0.017, 0.02, 0.022)
ENC = identity_encoder(40, DNA)
SEED = 7
CLUSTERS = simulate_clusters(30, 6, 40, PAPER, seed=SEED)


@functools.lru_cache(maxsize=None)
def _hamming(algorithm, k, betas=None):
    """Per decode (one per beta point, or one), the Hamming rate of each
    cluster, from the chunk tasks `scrambled_eval` runs."""
    betas = None if betas is None else list(betas)
    scores = {}
    for chunk in chunked(list(enumerate(CLUSTERS)), [k] * len(CLUSTERS), algorithm, ENC, 8,
                         1 if betas is None else len(betas)):
        scores.update(_eval_chunk((chunk, ENC, algorithm, k, PAPER, 8, betas, SEED)))
    return np.array([[s["hamming"] for s in scores[idx]] for idx in range(len(CLUSTERS))]).T


def _tbma(k, *extra):
    return _hamming("trellis-bma", k, (default_betas("sim", "hamming", ENC, k),) + extra)


def _below(a, b):
    d = a - b
    return d.mean() + _Z * d.std(ddof=1) / math.sqrt(len(d)) < 0.0


def test_trellis_bma_below_multiply_posteriors_and_falling_with_k():
    tbma6, mp6 = _tbma(6, MULTIPLY_POSTERIORS)
    [tbma2] = _tbma(2)
    assert _below(tbma6, mp6)
    assert _below(tbma6, tbma2)


def test_joint_trellis_at_or_below_trellis_bma():
    [joint2], [tbma2] = _hamming("bcjr-multitrace", 2), _tbma(2)
    assert not _below(tbma2, joint2)
    [joint3], [tbma3] = _hamming("bcjr-multitrace", 3), _tbma(3)
    assert _below(joint3, tbma3)
