"""Lazy instances: an object that fills its state on first use.

:func:`lazy` builds an instance of a :class:`Lazy` class whose
``__dict__`` holds a *source*, a zero-argument callable returning an
equal, fully built object of the same class, and — for a *partly eager*
instance — the fields given to :func:`lazy` as keywords, readable at
once.  The first read of a missing attribute, a ``__getstate__`` (so
pickling and copying) or an attribute assignment copies the source's
state in, with keys interned as the unpickler's ``BUILD`` interns them,
so a filled instance pickles to the bytes its source does.  Until then
an instance costs one small dict.  Class-level attributes (methods,
``ClassVar`` constants) answer without a fill, so a class that uses the
mixin must not give an instance field a class-level default (use
``default_factory``).

Pickle writes the state dict in iteration order, so the fill has to
leave the fields in the source's order:

* a *fully lazy* instance's dict holds the source alone and is filled
  in place.  It must stay the same dict object: a ``cached_property``
  reads ``instance.__dict__`` before computing its value (which may
  fill the instance) and stores the value into the dict it read;
* a *partly eager* instance's dict already holds fields, not
  necessarily in the source's order, so the fill swaps in one new dict
  built in that order (the eager values kept).  A concurrent reader
  sees either the old dict or the new one, each complete for the eager
  fields.  A swapped dict would drop what a ``cached_property`` stores,
  so a class with one must not be made partly eager.

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
    source = obj.__dict__.get(_SOURCE)
    if source is None:
        return
    filled = {sys.intern(key): value for key, value in source().__dict__.items()}
    with _FILL:
        # Re-read: another thread may have swapped a partly eager dict.
        state = obj.__dict__
        if _SOURCE not in state:
            return
        if len(state) == 1:
            state.update(filled)
            del state[_SOURCE]
        else:
            # Existing keys keep the source's order and take the
            # instance's values; the source key lands last and goes.
            filled.update(state)
            del filled[_SOURCE]
            object.__setattr__(obj, "__dict__", filled)


class Lazy:
    """Mixin for classes whose instances :func:`lazy` may build."""

    __slots__ = ()

    def __getattr__(self, name):
        # Reached only when normal lookup fails: a field an unfilled
        # instance does not hold yet, or a name the class does not have.
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


def lazy(cls: type, source, **eager) -> object:
    """An unfilled *cls* instance that fills itself from ``source()``;
    the *eager* fields are readable before the fill.

    *cls* must use the :class:`Lazy` mixin: any other class would give
    an instance that never fills.  Give *eager* fields only for a class
    without a ``cached_property`` (see the module docstring).
    """
    if not issubclass(cls, Lazy):
        raise TypeError(f"{cls.__name__} does not use the Lazy mixin")
    obj = object.__new__(cls)
    state = obj.__dict__
    state.update(eager)
    state[_SOURCE] = source
    return obj


def pending(obj) -> object | None:
    """The source of an unfilled lazy instance; ``None`` for anything else."""
    return getattr(obj, "__dict__", {}).get(_SOURCE)
