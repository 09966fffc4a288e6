"""Triple extraction from trade agreement texts, with an evaluation harness.

The pipeline: load an XML corpus, preprocess and chunk it, prompt a model
with one of four escalating prompt variants, parse the output into
normalized triples, and score the result against a gold benchmark with
exact, partial, and embedding-based semantic matching.

Every name a module lists in its ``__all__`` is importable from here.
"""

from . import corpus, errors, evaluation, extraction, gold, llmclient, prompting, report
from .corpus import *  # noqa: F403
from .errors import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .extraction import *  # noqa: F403
from .gold import *  # noqa: F403
from .llmclient import *  # noqa: F403
from .prompting import *  # noqa: F403
from .report import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(
        name
        for module in (corpus, errors, evaluation, extraction, gold, llmclient, prompting, report)
        for name in module.__all__
    ),
]
