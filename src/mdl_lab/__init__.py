"""Two-part MDL and Bayes-mixture prediction over countable model classes.

The library provides:

* ``measures``      -- semimeasures on finite strings and all built-in model
                       families (i.i.d., deterministic, factorizable, the
                       oscillating-martingale measure, leaky wrappers).
* ``model_class``   -- weighted countable hypothesis classes and the MAP
                       (two-part code-length) estimator with tie-breaking.
* ``predictors``    -- Bayes mixture, dynamic / static / hybrid MDL
                       predictors read from one cursor-built prediction
                       node, and normalization.
* ``metrics``       -- instantaneous and cumulative square / Hellinger /
                       KL / absolute distances, the exact tree walk, the
                       Monte-Carlo path drivers (node-stepped, or read off
                       MAP traces) and the bound-verification reports.
* ``decisions``     -- Bayes-optimal actions under arbitrary bounded loss
                       functions and the regret-bound machinery.
* ``stabilization`` -- MAP-choice traces, stabilization verdicts and class
                       profiles (factorizable / uniformly stochastic).
* ``conditional``   -- input-conditioned classification models and bounded
                       density regression with continuous Hellinger distance
                       (closed form for Gaussians, finite sums over the
                       pieces of piecewise-constant densities).
* ``coding``        -- the constructive two-part code (prefix header plus
                       exact arithmetic coding payload).
* ``experiments``   -- the registry of reproduction experiments driven by
                       the ``mdl-lab`` command line tool.

Every prediction and bound is computed in exact rationals and certified
enclosures; floats appear only in Monte-Carlo estimates, the unit-square
inequality scan and Gaussian regression (its likelihoods and closed-form
Hellinger distances).
"""

__version__ = "0.1.0"
