"""The host's speed, sampled between ops by a frozen reference computation.

The host this benchmark runs on drifts: a shared 2-vCPU machine ran the
same code up to 1.5x slower for stretches of seconds to minutes.  CPU
time drifts with wall time, so the process is not descheduled; it just
runs slower.  A wall-clock time therefore measures the host as much as
the program: over runs of one workload a minute or so apart, the spread
of a raw op time reached a quarter of its median.

:class:`HostRef` times a fixed piece of work between the program's ops,
throughout the timed window and the set-ups, so it sees the same drift
they do.  The work is this module's own frozen NumPy implementation of
the pruning algorithm in the array layout and with the NumPy calls of
the library's cpu kernels (transition matrices from an
eigen-decomposition; per-node partials in the three operation forms:
gathered tip columns, batched GEMMs, products; rescaling; the root
reduction), so it slows with the host much as they do.  It does not
import the library, so a change to the program cannot change it.

A normalised time is the measured time scaled to the reference's nominal
speed, ``REF_NOMINAL_MS``: ``t * REF_NOMINAL_MS / ref_ms`` with
``ref_ms`` the median time of the reference samples taken within
``LOCAL_S`` of the op's end.  Scaling each op by the host's speed at its
own moment also keeps a slow stretch of the host out of an op kind's
tail.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, List

from common import clock, trimmed_mean

#: About the reference's time on a calm 2-vCPU x86-64 host (Xeon at
#: 2.1 GHz, Python 3.11, NumPy 2.4).  Only a scale: normalised times read
#: as milliseconds on that host when it is calm.
REF_NOMINAL_MS = 18.0

#: Reference samples within this many seconds of an op scale it ...
LOCAL_S = 1.0
#: ... or the ``LOCAL_MIN`` nearest ones, where fewer fall within.
LOCAL_MIN = 5

#: Size of the reference computation.
REF_TIPS, REF_PATTERNS, REF_STATES, REF_CATS = 24, 3000, 4, 4


class HostRef:
    """Times the frozen reference between ops; see the module docstring.

    Samples fall in two buckets: ``"setup"`` (taken next to each set-up
    repetition) and ``"window"`` (taken between the timed ops).
    ``pace(busy_s)`` samples whenever the reference has taken less than
    ``share`` of the op time passed in so far, so it costs about that
    share of the timed work and its samples spread evenly over the
    window.
    """

    def __init__(self, share: float = 0.15) -> None:
        import numpy as np

        self.share = share
        self.samples: Dict[str, List[float]] = {"setup": [], "window": []}
        #: ``clock()`` at the end of each sample, parallel to ``samples``.
        self.stamps: Dict[str, List[float]] = {"setup": [], "window": []}
        self._owed = 0.0
        rng = np.random.default_rng(20240101)
        s, c = REF_STATES, REF_CATS
        # A reversible rate matrix, its eigen-decomposition, rates, freqs.
        freqs = rng.dirichlet(np.ones(s) * 5)
        sym = rng.uniform(0.5, 2.0, (s, s))
        sym = (sym + sym.T) / 2
        q = sym * freqs[None, :]
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        root = np.sqrt(freqs)
        evals, evecs = np.linalg.eigh(root[:, None] * q / root[None, :])
        self.evals = evals
        self.left = evecs / root[:, None]
        self.right = (evecs * root[:, None]).T
        self.rates = rng.gamma(0.5, 2.0, c)
        self.weights = np.full(c, 1.0 / c)
        self.freqs = freqs
        # Post-order (parent, child, child): cherries of two tips, then a
        # tip joined to each cherry, then balanced merges, so the library's
        # three operation forms (tip x tip, tip x partials, partials x
        # partials) all occur.
        quarter = REF_TIPS // 3
        self.ops = []
        nxt = REF_TIPS
        level = []
        for i in range(quarter):
            self.ops.append((nxt, 2 * i, 2 * i + 1))
            self.ops.append((nxt + 1, 2 * quarter + i, nxt))
            level.append(nxt + 1)
            nxt += 2
        while len(level) > 1:
            merged = []
            for i in range(0, len(level) - 1, 2):
                self.ops.append((nxt, level[i], level[i + 1]))
                merged.append(nxt)
                nxt += 1
            if len(level) % 2:
                merged.append(level[-1])
            level = merged
        self.n_nodes = nxt
        self.lengths = rng.uniform(0.01, 0.2, self.n_nodes)
        # Tips as compact state codes; code ``s`` is a gap.
        self.tips = [rng.integers(0, s + 1, REF_PATTERNS)
                     for _ in range(REF_TIPS)]
        self.pattern_weights = rng.integers(1, 4, REF_PATTERNS).astype(float)
        self.value = self._compute()

    def _matrices(self, node: int):
        """(c, s, s) transition matrices of the branch above ``node``."""
        import numpy as np

        t = self.lengths[node] * self.rates
        expd = np.exp(self.evals[None, :] * t[:, None])
        return np.einsum("ij,cj,jk->cik", self.left, expd, self.right)

    def _child(self, node: int, partials):
        """One child's (c, p, s) contribution, in the library's forms:
        a gather of the gap-extended matrix columns for a tip, a batched
        GEMM for partials."""
        import numpy as np

        m = self._matrices(node)
        if node < REF_TIPS:
            pad = np.ones(m.shape[:-1] + (1,))
            return np.concatenate([m, pad], axis=-1)[
                ..., self.tips[node]].swapaxes(-1, -2)
        return np.matmul(partials[node], m.swapaxes(-1, -2))

    def _compute(self) -> float:
        import numpy as np

        partials = [None] * self.n_nodes
        log_scale = np.zeros(REF_PATTERNS)
        for step, (parent, a, b) in enumerate(self.ops):
            out = self._child(a, partials) * self._child(b, partials)
            if step % 2:
                # The library rescales every node with scaling on and none
                # with it off; the workloads run both ways, so the
                # reference rescales alternate nodes.  In a probe under
                # host drift this tracked every op kind better than one
                # rescale at the root (op/reference ratio 0.05 IQR/median
                # instead of 0.05-0.08).
                maxima = out.max(axis=(0, 2))
                out = out / maxima[np.newaxis, :, np.newaxis]
                log_scale += np.log(maxima)
            partials[parent] = out
        site = np.einsum("c,cpi,i->p", self.weights,
                         partials[self.ops[-1][0]], self.freqs,
                         optimize=True)
        return float(np.dot(self.pattern_weights, np.log(site) + log_scale))

    def check(self) -> None:
        """Run the reference once (untimed) and check its value."""
        if self._compute() != self.value:
            raise RuntimeError("host reference changed its value")

    def sample(self, bucket: str = "window") -> float:
        """Run the reference once; returns and records its time."""
        t0 = clock()
        self.check()
        end = clock()
        self.record(end - t0, end, bucket)
        return end - t0

    def record(self, elapsed: float, end: float,
               bucket: str = "window") -> None:
        """Record a sample timed by the caller (``check`` run elsewhere)."""
        self.samples[bucket].append(elapsed)
        self.stamps[bucket].append(end)

    def pace(self, busy_s: float) -> None:
        """Account ``busy_s`` of op time; sample when enough is owed."""
        self._owed += busy_s * self.share
        while self._owed > 0.0:
            self._owed -= self.sample()

    def ms(self, bucket: str = "window") -> float:
        """The reference's time over one bucket (trimmed mean), in ms."""
        if not self.samples[bucket]:
            self.sample(bucket)
        return trimmed_mean(self.samples[bucket]) * 1e3

    def scale(self, at: float, bucket: str = "window") -> float:
        """Scale from measured to nominal-host time at ``clock()`` time
        ``at``, from the bucket's samples near it."""
        stamps, times = self.stamps[bucket], self.samples[bucket]
        if not times:
            self.sample(bucket)
        lo = bisect.bisect_left(stamps, at - LOCAL_S)
        hi = bisect.bisect_right(stamps, at + LOCAL_S)
        near = times[lo:hi]
        if len(near) < LOCAL_MIN:
            nearest = sorted(range(len(stamps)),
                             key=lambda i: abs(stamps[i] - at))
            near = [times[i] for i in nearest[:LOCAL_MIN]]
        return REF_NOMINAL_MS / (statistics.median(near) * 1e3)
