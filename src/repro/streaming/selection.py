"""Peer-selection policy: where network awareness enters the protocol.

A :class:`SelectionPolicy` scores candidate peers from the point of view of
a chooser, combining the network properties the paper studies:

* ``bw``  — candidate behind a high-bandwidth uplink;
* ``as_``— candidate in the chooser's Autonomous System;
* ``cc``  — candidate in the chooser's country;
* ``net`` — candidate on the chooser's subnet;
* ``hop`` — candidate closer than a hop threshold.

Scores feed an exponential-weight (softmax) sampler, so a weight of 0 gives
uniform choice, and increasing weights shift probability mass smoothly —
letting experiments dial awareness up and down per application and letting
ablation benches isolate each term.

The weights are *ground truth*: the analysis framework never sees them; it
must recover their presence from traffic alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class SelectionWeights:
    """Log-preference weights for the five network properties.

    A weight ``w`` multiplies the candidate's (0/1 or [0,1]) feature; the
    sampling probability is proportional to ``exp(Σ w·feature / T)``.
    ``w = ln(k)`` with temperature 1 makes a feature-holding candidate
    ``k×`` more likely than an otherwise-equal candidate.
    """

    bw: float = 0.0
    as_: float = 0.0
    cc: float = 0.0
    net: float = 0.0
    hop: float = 0.0

    def any_awareness(self) -> bool:
        """True when any property influences selection."""
        return any((self.bw, self.as_, self.cc, self.net, self.hop))


@dataclass(frozen=True, slots=True)
class CandidateFeatures:
    """Feature columns for a batch of candidates (aligned arrays)."""

    highbw: np.ndarray    # bool — candidate uplink > 10 Mb/s
    same_as: np.ndarray   # bool
    same_cc: np.ndarray   # bool
    same_net: np.ndarray  # bool
    near: np.ndarray      # bool — hop distance below threshold

    def __len__(self) -> int:
        return len(self.highbw)


#: Bits of an awareness code: the five binary properties of one
#: (chooser, candidate) pair packed into one byte.  Every score a policy
#: gives is a function of the code, so a policy has :data:`N_CODES` scores.
CODE_BW = 1
CODE_AS = 2
CODE_CC = 4
CODE_NET = 8
CODE_NEAR = 16
N_CODES = 32


def code_features(codes: np.ndarray) -> CandidateFeatures:
    """The feature columns an array of awareness codes packs."""
    return CandidateFeatures(
        highbw=(codes & CODE_BW) > 0,
        same_as=(codes & CODE_AS) > 0,
        same_cc=(codes & CODE_CC) > 0,
        same_net=(codes & CODE_NET) > 0,
        near=(codes & CODE_NEAR) > 0,
    )


class SelectionPolicy:
    """Softmax sampler over awareness-scored candidates."""

    def __init__(
        self,
        weights: SelectionWeights,
        rng: np.random.Generator,
        temperature: float = 1.0,
    ) -> None:
        if temperature <= 0:
            raise ConfigurationError("selection temperature must be positive")
        self.weights = weights
        self.temperature = temperature
        self._rng = rng

    def scores(self, feats: CandidateFeatures) -> np.ndarray:
        """Raw awareness scores for a candidate batch."""
        w = self.weights
        score = np.zeros(len(feats), dtype=np.float64)
        if w.bw:
            score += w.bw * feats.highbw
        if w.as_:
            score += w.as_ * feats.same_as
        if w.cc:
            score += w.cc * feats.same_cc
        if w.net:
            score += w.net * feats.same_net
        if w.hop:
            score += w.hop * feats.near
        return score

    def score_table(self) -> np.ndarray:
        """The score of every awareness code, indexed by code.

        :meth:`scores` is elementwise with a fixed add order, so
        ``score_table()[codes]`` is bit for bit
        ``scores(code_features(codes))``.
        """
        return self.scores(code_features(np.arange(N_CODES)))

    def probabilities_from_scores(self, scores: np.ndarray) -> np.ndarray:
        """Softmax selection probabilities for precomputed raw scores.

        This is the cache-friendly entry point: the engine precomputes the
        (static) awareness score of every (chooser, candidate) pair once
        and feeds score *rows* here, skipping feature construction and
        rescoring entirely.  The arithmetic is identical to
        :meth:`probabilities`, so cached and uncached paths produce
        bit-equal probabilities — and therefore identical RNG draws.
        """
        if len(scores) == 0:
            return np.zeros(0)
        logits = scores / self.temperature
        logits -= logits.max()  # numerical stability (logits is a fresh array)
        p = np.exp(logits)
        return p / p.sum()

    def probabilities(self, feats: CandidateFeatures) -> np.ndarray:
        """Softmax selection probabilities for a candidate batch."""
        if len(feats) == 0:
            return np.zeros(0)
        return self.probabilities_from_scores(self.scores(feats))

    def cdf_from_scores(self, scores: np.ndarray) -> np.ndarray:
        """Normalised selection CDF for a score row (memoisation target).

        The CDF is a pure function of the scores, so the engine caches it
        per recurring candidate set; :meth:`sample_index` then consumes one
        uniform against it.  Computed through the exact probability
        pipeline the uncached path uses, hence bit-identical.
        """
        cdf = self.probabilities_from_scores(scores).cumsum()
        cdf /= cdf[-1]
        return cdf

    def sample_index(self, cdf: np.ndarray) -> int:
        """Draw one candidate index by inverting a precomputed CDF.

        Consumes exactly one uniform from the policy RNG — the same draw,
        against the same CDF values, as :meth:`choose_one_scored` — so
        cached-CDF sampling reproduces the uncached draw sequence exactly
        (``Generator.random()`` and ``Generator.random(1)[0]`` yield the
        same double and the same post-call state).
        """
        return int(cdf.searchsorted(self._rng.random(), side="right"))

    def _sample(self, n: int, k: int, p: np.ndarray) -> np.ndarray:
        """``rng.choice(n, size=k, replace=False, p=p)``, minus the overhead.

        For ``k == 1`` numpy's ``Generator.choice`` consumes exactly one
        uniform and inverts the CDF of ``p`` — but spends ~35 µs/call on
        argument validation.  This replays the same computation directly
        (one ``rng.random(1)`` draw, cumsum, renormalise, right-bisect),
        which is bit-identical in both the returned index and the
        post-call generator state; ``tests/streaming/test_selection.py``
        asserts that equivalence against ``Generator.choice`` itself.
        """
        if k == 1:
            cdf = p.cumsum()
            cdf /= cdf[-1]
            x = self._rng.random()
            return np.array([cdf.searchsorted(x, side="right")], dtype=np.int64)
        return self._rng.choice(n, size=k, replace=False, p=p)

    def choose(self, feats: CandidateFeatures, k: int = 1) -> np.ndarray:
        """Sample ``k`` distinct candidate indices (≤ batch size)."""
        n = len(feats)
        if n == 0 or k <= 0:
            return np.zeros(0, dtype=np.int64)
        k = min(k, n)
        return self._sample(n, k, self.probabilities(feats))

    def choose_scored(self, scores: np.ndarray, k: int = 1) -> np.ndarray:
        """:meth:`choose` over a precomputed score row (cache hot path)."""
        n = len(scores)
        if n == 0 or k <= 0:
            return np.zeros(0, dtype=np.int64)
        k = min(k, n)
        return self._sample(n, k, self.probabilities_from_scores(scores))

    def choose_one(self, feats: CandidateFeatures) -> int:
        """Sample a single candidate index; -1 when the batch is empty."""
        picked = self.choose(feats, 1)
        return int(picked[0]) if len(picked) else -1

    def choose_one_scored(self, scores: np.ndarray) -> int:
        """:meth:`choose_one` over a precomputed score row (cache hot path)."""
        picked = self.choose_scored(scores, 1)
        return int(picked[0]) if len(picked) else -1
