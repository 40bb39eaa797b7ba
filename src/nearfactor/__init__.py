"""Modular (near-)one-factorizations of complete graphs and perfect pairs.

The library modules load on first use: `import nearfactor` imports none of
them, and the first name the package lacks imports all six and re-exports
each one's `__all__`.  A CLI process imports only the modules its subcommand
runs.
"""

__version__ = "0.1.0"


def _load() -> None:
    """Import the six modules and bind their public names here, then drop the hooks.

    A module that keeps a `__getattr__` makes CPython skip its specialised
    read of every other attribute, so the hook must not outlive its one use.
    The hooks go last, so that a thread arriving meanwhile still finds them.
    """
    import sys

    namespace = globals()
    names = []
    for name in ("numtheory", "factors", "pairing", "product", "equivalence", "oracle"):
        qualified = f"{__name__}.{name}"
        __import__(qualified)
        module = sys.modules[qualified]
        namespace.update({public: getattr(module, public) for public in module.__all__})
        names += module.__all__
    namespace["__all__"] = [*names, "__version__"]
    namespace.pop("__getattr__", None)
    namespace.pop("__dir__", None)


def __getattr__(name: str):
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return list(globals())
