"""Immutable record classes, with methods built from closures.

``record`` turns a class whose annotations name its fields into an
immutable value type: positional or keyword construction with the class
attribute defaults, an optional ``__post_init__`` check, field-wise
``==``, ``hash`` and ``repr``, and ``AttributeError`` on any assignment or
deletion.  Instances keep a ``__dict__``, so ``functools.cached_property``
works on them.  The standard library's record generator would cost a
command-line call more than the work it does: its import pulls in
``inspect`` and ``ast``, and it compiles generated source for each class.
"""

from operator import attrgetter


def record(cls):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    key = attrgetter(*fields)
    post_init = getattr(cls, "__post_init__", None)
    n = len(fields)

    def bind(args, kwargs):
        rest = fields[len(args):]
        if len(args) > n or not set(kwargs) <= set(rest):
            raise TypeError(
                f"{cls.__name__}() takes the fields {fields}, got {len(args)}"
                f" positional arguments and the keywords {sorted(kwargs)}"
            )
        values = {**defaults, **kwargs}
        try:
            return [*args, *(values[name] for name in rest)]
        except KeyError as exc:
            raise TypeError(f"{cls.__name__}() is missing the field {exc.args[0]!r}") from None

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {cls.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {cls.__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{cls.__qualname__}({body})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._fields = fields
    return cls
