"""dyadlab: a desk-scale laboratory for dyadic multi-parameter analysis.

The package implements, on finite dyadic lattices with exact rational
geometry, the discrete machinery of matrix-weighted multi-parameter
Besov/Triebel-Lizorkin-type analysis:

* ``geometry``        -- dyadic rectangles, windows, open sets, fields
* ``mixed_norms``     -- permuted iterated L^p/l^q quasi-norms
* ``weights``         -- matrix weights, reducing operators, A_p constants,
                         doubling checks
* ``maximal``         -- strong / weighted / operator-valued maximal functions
* ``carleson``        -- Carleson embedding functionals
* ``almost_diagonal`` -- decay-kernel operators and their calculus
* ``quilts``          -- the quilt counterexample engine
* ``counterexamples`` -- parametric divergence experiments
* ``cli``             -- batch experiment runner

Every public name has a caller in the package, the demos or the
benchmark, apart from three references kept for the tests
(``tests/test_hygiene.py`` checks this); the slow loops that fast paths
replaced live in the tests as oracles.
"""

__version__ = "0.1.0"
