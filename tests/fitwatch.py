"""Watch the first-stage fits of ``crossfit_nuisances`` from outside.

Like ``perfbench/tracer.py``, this swaps module references rather than
asking ``src/`` for a hook: inside the ``with`` block the
``crossfit`` module's own ``fit_then_predict`` and ``fit_nuisance`` are
wrappers that record each fit and then call the originals.
"""

from contextlib import contextmanager
from unittest import mock

from pseudolearn import crossfit


@contextmanager
def watched_fits():
    """Yield a list that fills with one ``(name, fold, train_rows, predict_rows)``
    tuple per model that ``crossfit_nuisances`` fits, in fit order.

    ``fold`` counts the ``fit_then_predict`` calls made inside the block,
    so it is the fold index for a single ``crossfit_nuisances`` call;
    ``predict_rows`` are that call's test rows.
    """
    fits, tests = [], []
    fit_then_predict, fit_nuisance = crossfit.fit_then_predict, crossfit.fit_nuisance

    def watched_fit_then_predict(data, train, test, *args, **kwargs):
        tests.append(test)
        return fit_then_predict(data, train, test, *args, **kwargs)

    def watched_fit_nuisance(name, data, rows, *args, **kwargs):
        model = fit_nuisance(name, data, rows, *args, **kwargs)
        fits.append((name, len(tests) - 1, rows, tests[-1]))
        return model

    with mock.patch.object(crossfit, "fit_then_predict", watched_fit_then_predict), \
            mock.patch.object(crossfit, "fit_nuisance", watched_fit_nuisance):
        yield fits
