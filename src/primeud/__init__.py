"""primeud: a numerical laboratory for equidistribution mod 1 along primes.

Exposes the symbolic term-class engine, prime sieves and arithmetic tables,
exponential-sum and discrepancy machinery, and the finite recurrence models.

``import primeud`` imports no submodule; import names from the module that
defines them (``from primeud.primes import sieve``), so a process loads
only the modules it uses.
"""

__version__ = "0.2.0"
