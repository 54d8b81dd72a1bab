import soapbubble


def test_all_names_resolve():
    # a name dropped from the imports but left in __all__ breaks only
    # star-imports, so check both the attributes and the star-import
    missing = [name for name in soapbubble.__all__ if not hasattr(soapbubble, name)]
    assert missing == []
    namespace = {}
    exec("from soapbubble import *", namespace)
    for name in soapbubble.__all__:
        assert namespace[name] is getattr(soapbubble, name)
