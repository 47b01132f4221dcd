import catsigma


def test_star_import_binds_every_export():
    # a name left in __all__ after its definition is deleted breaks
    # "from catsigma import *" without failing any other test
    assert len(catsigma.__all__) == len(set(catsigma.__all__))
    namespace = {}
    exec("from catsigma import *", namespace)
    assert set(catsigma.__all__) <= set(namespace)
