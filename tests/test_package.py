"""The package surface: ``gwentropy`` exports what each module's ``__all__`` lists."""

import gwentropy
from gwentropy import _random, checks, distributions, empirical, entropy, errors, gof, verification

MODULES = (checks, distributions, empirical, entropy, errors, gof, verification)


def test_all_is_the_version_and_each_modules_all():
    names = gwentropy.__all__
    assert names[0] == "__version__"
    assert len(names) == len(set(names))
    assert set(names[1:]) == set().union(*(m.__all__ for m in MODULES))
    for m in MODULES:
        for name in m.__all__:
            assert getattr(gwentropy, name) is getattr(m, name)


def test_star_import_gives_every_public_name():
    ns = {}
    exec("from gwentropy import *", ns)
    assert set(gwentropy.__all__) <= ns.keys()
    assert ns["GwentropyError"] is errors.GwentropyError and ns["QuadratureError"] is errors.QuadratureError
    assert ns["DEFAULT_ORDER"] == entropy.EntropyOrder(0.26, 1.25)


def test_seeded_sampler_is_the_random_modules():
    # the sampler lives in the private _random module; distributions and the
    # package re-export it for existing scripts
    ns = {}
    exec("from gwentropy import *", ns)
    assert distributions.SeededSampler is _random.SeededSampler
    assert ns["SeededSampler"] is gwentropy.SeededSampler is _random.SeededSampler
