"""Square roots modulo primes p = 2^k * n + 1 (n odd).

One evaluator of the class formula for every k (tagged f1..f4 or synth), a
general-k synthesizer with sign normalization, rendering, and sparse
expansion, classical oracles (iterative refinement, class-index direct
method, brute force), exact order-class statistics, and a CLI for sweeps and
benchmarks.

The package exports the union of its library modules' __all__ lists, each
name as the module's own object; a public name is added in its module alone.
The command line, sqrtmodp.cli, is imported on its own.
"""

from . import analysis, formulas, modarith, oracles, synthesis
from .analysis import *
from .formulas import *
from .modarith import *
from .oracles import *
from .synthesis import *

__version__ = "0.1.0"

__all__ = sorted(
    analysis.__all__ + formulas.__all__ + modarith.__all__ + oracles.__all__ + synthesis.__all__
)
