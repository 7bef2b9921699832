"""Lazy instances: an object that fills its state on first use.

:func:`lazy` builds an instance of a :class:`Lazy` class whose
``__dict__`` holds only a *source*, a zero-argument callable returning
an equal, fully built object of the same class.  The first read of a
missing attribute, a ``__getstate__`` (so pickling and copying) or an
attribute assignment copies that object's state in, with keys interned
as the unpickler's ``BUILD`` interns them, so a filled instance pickles
to the bytes its source does.  Until then an instance costs one small
dict.  Class-level attributes (methods, ``ClassVar`` constants) answer
without a fill, so a class that uses the mixin must not give an
instance field a class-level default (use ``default_factory``).

The plan cache (:mod:`repro.service.cache`) makes its deferred parts
this way: DGL's ``CtxCachedObject`` idiom, heavy members built on first
access rather than on fetch.
"""

from __future__ import annotations

import sys
import threading

_SOURCE = "_lazy_source"
#: Held only while a decoded state is copied in; the decode itself runs
#: under the source's own lock.
_FILL = threading.Lock()


def _fill(obj) -> None:
    state = obj.__dict__
    source = state.get(_SOURCE)
    if source is not None:
        filled = source().__dict__
        with _FILL:
            if _SOURCE in state:
                state.update({sys.intern(key): value for key, value in filled.items()})
                del state[_SOURCE]


class Lazy:
    """Mixin for classes whose instances :func:`lazy` may build."""

    __slots__ = ()

    def __getattr__(self, name):
        # Reached only when normal lookup fails: any field of an
        # unfilled instance, or a name the class does not have.
        _fill(self)
        try:
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None

    def __getstate__(self):
        # What the default reduce pickles for a slot-less class (spelt
        # out: ``object.__getstate__`` is new in Python 3.11).
        _fill(self)
        return self.__dict__

    def __setattr__(self, name, value):
        _fill(self)
        object.__setattr__(self, name, value)


def lazy(cls: type, source) -> object:
    """An unfilled *cls* instance that fills itself from ``source()``.

    *cls* must use the :class:`Lazy` mixin: any other class would give
    an empty instance that never fills.
    """
    if not issubclass(cls, Lazy):
        raise TypeError(f"{cls.__name__} does not use the Lazy mixin")
    obj = object.__new__(cls)
    obj.__dict__[_SOURCE] = source
    return obj


def pending(obj) -> object | None:
    """The source of an unfilled lazy instance; ``None`` for anything else."""
    return getattr(obj, "__dict__", {}).get(_SOURCE)
