"""Bivariate-means algebra: complementary pairs solving M(K, L) = M.

The package constructs explicit pairs of means (K, L) that leave a target
mean M invariant, on the positive half-line and, through the translative
conjugate, on the whole real line.  It verifies mean-ness and invariance
by deterministic numeric scans, iterates mean-type mappings to their
invariant limit, and exposes everything through a textual expression
grammar and a CLI.  Each module lists its public names in ``__all__``.
"""
from . import complement, errors, iterate, means, multivar, projective, specs, verify
from .complement import *  # noqa: F403
from .errors import *  # noqa: F403
from .iterate import *  # noqa: F403
from .means import *  # noqa: F403
from .multivar import *  # noqa: F403
from .projective import *  # noqa: F403
from .specs import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (complement, errors, iterate, means, multivar, projective,
                               specs, verify) for name in module.__all__] + ["__version__"]
