"""Seeded inputs for ``serve``: attachment corpus, metadata, prompts, mix.

The same functions build the served session (in the host process) and the
oracle session (in the benchmark process), so both hold identical tables,
model weights and UDF.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.session import Session
from repro.ml.models.clip import TinyCLIP
from repro.tcr.autograd import no_grad
from repro.tcr.random import manual_seed
from repro.tcr.tensor import Tensor

IMAGES = 200
HEIGHT, WIDTH = 100, 150
KINDS = np.array(["photo", "receipt", "logo"], dtype=object)
SUBJECTS = ["dog", "cat", "mountain", "beach", "kfc", "starbucks", "walmart",
            "target", "diner", "acme", "globex", "initech"]
ADJECTIVES = ["red", "blue", "green", "old", "new", "small", "large", "dark"]
SENDERS = np.array([f"sender{i:02d}" for i in range(16)], dtype=object)
ZIPF_S = 1.1
# The model's weights are the deployed program, not a workload input: the
# same for every workload seed.
MODEL_SEED = 0
SCORE_QUANTILE = 0.5
# Prompts whose filter and top-k plans set-up compiles.
WARM_PLANS = 40
# One cycle of the request mix: mostly similarity requests, a minority of
# relational requests on the metadata table.
MIX = ("count", "filter", "topk", "count", "filter", "topk", "count",
       "filter", "rel_group", "rel_top")
# One request per cycle has a new prompt (text encode, compile and a UDF
# pass over the corpus): 10% of all requests, so a p95 falls inside the
# novel requests rather than on the edge between them and warm ones. It
# takes the cycle's similarity slots in turn, and a fixed count keeps the
# cost of a stretch of requests from moving with the seed. The rest draw
# from the vocabulary, which set-up warms, so the mix is the same from the
# first request to the last.
SIMILARITY_SLOTS = [i for i, kind in enumerate(MIX) if not kind.startswith("rel")]


class Corpus:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed + 30)
        kinds = rng.integers(0, len(KINDS), IMAGES)
        subjects = rng.integers(0, len(SUBJECTS), IMAGES)
        images = rng.uniform(0.0, 0.2, (IMAGES, 3, HEIGHT, WIDTH))
        palette = rng.uniform(0.2, 1.0, (len(SUBJECTS), 3))
        for i in range(IMAGES):
            # A subject-coloured block whose placement depends on the kind.
            top = 10 + 25 * kinds[i]
            images[i, :, top:top + 40, 30:120] += palette[subjects[i], :, None, None]
        self.images = np.clip(images, 0.0, 1.0).astype(np.float32)
        self.captions = [f"a {KINDS[k]} of {SUBJECTS[s]}"
                         for k, s in zip(kinds, subjects)]
        self.meta = {
            "attachment_id": np.arange(IMAGES, dtype=np.int64),
            "kind": KINDS[kinds],
            "sender": SENDERS[rng.integers(0, len(SENDERS), IMAGES)],
            "size_kb": rng.integers(20, 4000, IMAGES).astype(np.int64),
            "received": rng.integers(0, 365, IMAGES).astype(np.int64),
        }


class UdfProbe:
    """Counts calls of the benchmark's UDF body and times it when traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calls = 0
        self._lock = threading.Lock()

    def call(self, model, query, images):
        with self._lock:
            self.calls += 1
        if self.tracer is None:
            return model.similarity(query, images)
        with self.tracer.span("udf"):
            with self.tracer.span("model"):
                return model.similarity(query, images)


def make_model(corpus: Corpus) -> TinyCLIP:
    manual_seed(MODEL_SEED)
    model = TinyCLIP()
    model.eval()
    model.calibrate(Tensor(corpus.images), corpus.captions)
    return model


def setup_session(corpus: Corpus, probe: UdfProbe, statements: "Statements",
                  register_seconds: Optional[List[float]] = None
                  ) -> Tuple[Session, TinyCLIP]:
    """Model, tables and UDF; then warm the corpus embeddings and plans."""
    model = make_model(corpus)
    session = Session()
    for name, columns in (("Attachments", {"attachment_id": corpus.meta["attachment_id"],
                                           "images": corpus.images}),
                          ("AttachmentMeta", corpus.meta)):
        start = time.perf_counter()
        session.sql.register_dict(columns, name)
        if register_seconds is not None:
            register_seconds.append(time.perf_counter() - start)

    @session.udf("float", name="image_text_similarity", modules=[model],
                 ann="inner_product")
    def image_text_similarity(query: str, images: Tensor) -> Tensor:
        return probe.call(model, query, images)

    for statement in statements.warm():
        session.compile_query(statement).run()
    return session, model


class Statements:
    """The seeded request stream and the statements set-up warms.

    A COUNT or filter threshold is the prompt's own ``SCORE_QUANTILE`` score
    over the corpus, so every similarity request selects the same share of
    rows whichever prompts are popular.
    Scores come from a copy of the served model, built here untimed.
    """

    def __init__(self, seed: int, corpus: Corpus):
        self.seed = seed
        model = make_model(corpus)
        with no_grad():
            self._images = model.encode_image(Tensor(corpus.images)).data
        self._model = model
        self._thresholds = {}
        self.vocab = prompts(seed)

    def _threshold(self, prompt: str) -> float:
        if prompt not in self._thresholds:
            with no_grad():
                text = self._model.encode_text([prompt]).data
            scores = ((self._images @ text.T).reshape(-1)
                      * self._model.calib_scale.data[0]
                      + self._model.calib_offset.data[0])
            self._thresholds[prompt] = float(np.quantile(scores, SCORE_QUANTILE))
        return self._thresholds[prompt]

    def statement(self, kind: str, prompt: str, variant: int) -> str:
        if kind == "count":
            return ("SELECT COUNT(*) AS n FROM Attachments WHERE "
                    f'image_text_similarity("{prompt}", images) > '
                    f"{self._threshold(prompt):.4f}")
        if kind == "filter":
            return ("SELECT attachment_id FROM Attachments WHERE "
                    f'image_text_similarity("{prompt}", images) > '
                    f"{self._threshold(prompt):.4f}")
        if kind == "topk":
            return (f'SELECT attachment_id, image_text_similarity("{prompt}", images) '
                    "AS score FROM Attachments ORDER BY score DESC LIMIT 5")
        if kind == "rel_group":
            return ("SELECT kind, COUNT(*) AS n, SUM(size_kb) AS total_kb "
                    f"FROM AttachmentMeta WHERE received >= {variant * 40} "
                    "GROUP BY kind ORDER BY kind")
        return ("SELECT attachment_id, size_kb FROM AttachmentMeta "
                f"WHERE sender = '{SENDERS[variant]}' ORDER BY size_kb DESC LIMIT 5")

    def warm(self) -> List[str]:
        """A COUNT per vocabulary prompt fills the UDF cache; filter and
        top-k plans of the most popular prompts and the relational
        statements fill the plan cache, whose LRU keeps the latest."""
        out = [self.statement("count", prompt, 0) for prompt in self.vocab]
        out += [self.statement(kind, prompt, 0)
                for prompt in reversed(self.vocab[:WARM_PLANS])
                for kind in ("filter", "topk")]
        return out + [self.statement(kind, "", v) for kind in ("rel_group", "rel_top")
                      for v in range(8)]

    def requests(self) -> Iterator[Tuple[str, str]]:
        """Endless seeded (kind, statement) stream following ``MIX``."""
        rng = np.random.default_rng(self.seed + 50)
        weights = 1.0 / np.arange(1, len(self.vocab) + 1) ** ZIPF_S
        weights /= weights.sum()
        i = 0
        while True:
            cycle, slot = divmod(i, len(MIX))
            kind = MIX[slot]
            prompt = self.vocab[int(rng.choice(len(self.vocab), p=weights))]
            if slot == SIMILARITY_SLOTS[cycle % len(SIMILARITY_SLOTS)]:
                prompt = f"{prompt} n{i}"
            yield kind, self.statement(kind, prompt, int(rng.integers(0, 8)))
            i += 1


def prompts(seed: int) -> List[str]:
    """The prompt vocabulary in Zipf rank order (rank 1 most frequent)."""
    vocab = [f"{adj} {subject}" for adj in ADJECTIVES for subject in SUBJECTS]
    vocab += SUBJECTS + list(KINDS)
    order = np.random.default_rng(seed + 40).permutation(len(vocab))
    return [vocab[i] for i in order]


def arrivals(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival offsets (seconds) at ``rate`` per second."""
    gaps = rng.exponential(1.0 / rate, int(rate * seconds * 2) + 16)
    times = np.cumsum(gaps)
    return times[times < seconds]
