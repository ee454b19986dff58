import types


def test_submodule_imports_bind_modules():
    import spanscope.align as align_mod
    import spanscope.partition as partition_mod
    import spanscope.reconstruct as reconstruct_mod

    for mod in (align_mod, partition_mod, reconstruct_mod):
        assert isinstance(mod, types.ModuleType), mod
