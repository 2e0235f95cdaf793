"""Open-domain question answering over a paragraph corpus: BM25 retrieval,
relevance ranking, ranker-gated query expansion, and span reading, fused
into a single sorted answer list.

Import names from their submodules (``mindstone.pipeline``,
``mindstone.index``, ...): the package itself loads none of them."""

__version__ = "0.1.0"
