from types import FunctionType

import vidtext


def test_every_public_name_resolves_once():
    assert len(vidtext.__all__) == len(set(vidtext.__all__))
    assert [name for name in vidtext.__all__ if not hasattr(vidtext, name)] == []


def test_importing_a_submodule_keeps_the_function_of_its_name():
    import vidtext.selfcheck  # the import system binds a submodule on its package

    assert type(vidtext.selfcheck) is FunctionType
    assert vidtext.selfcheck is vidtext.selfcheck.__globals__["selfcheck"]
    assert set(vidtext.__all__) <= set(dir(vidtext))
