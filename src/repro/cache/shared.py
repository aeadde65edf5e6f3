"""Payloads that reference a shared object graph instead of copying it.

A built image holds its program: the compiled classes, methods and
instructions, which are most of an image's pickle.  Every image of one
workload shares that program — a regular or instrumented build uses the
compiled program as is, and an optimized build's per-build copy shares
every instruction and field with it.  Pickling each image by value
stores the program again in every entry, and a warm load unpickles it
again for every image.

A :class:`ProgramRefs` names every object of one compiled program by its
position in a fixed walk of the program.  :func:`dumps` pickles a value
with those objects written as references, and an optimized build's method
copies written as "copy of method *i*, with these instructions replaced"
(constant folding rewrites instructions one for one).  :func:`loads`
resolves the references against the ``ProgramRefs`` of the loading
pipeline, so a warm load rebuilds the object graph a fresh build has:
the same shared objects, and fresh copies where the build made copies.

A payload records the shape of the program it references; a load against
a program of another shape, or a reference that does not resolve, raises,
and the artifact store treats that like any undecodable payload (detect,
evict, recompute).  A payload written with references and read without
them raises the same way.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
from typing import Any, Dict, List, Optional, Tuple

from ..minijava.bytecode import CompiledMethod, Program

#: every field a method copy shares with its source, compared on dump
_COPIED_FIELDS = tuple(f.name for f in dataclasses.fields(CompiledMethod)
                       if f.name != "code")


def _shared_ref(*args: Any) -> Any:
    """Stand-in callable of every reference in a pickled payload.

    :class:`_Unpickler` swaps it for the resolver of the loading graph; a
    plain :func:`pickle.loads` reaches this function and fails.
    """
    raise pickle.UnpicklingError(
        "payload references a shared program; load it with its ProgramRefs")


class ProgramRefs:
    """The objects of one compiled program, addressable by position.

    The walk visits the program, then per class (in declaration order)
    the class, its instance and static fields, and each method (and the
    class initializer) followed by its instructions.  Unpickling a program
    preserves that order, so a compiled program and its cached copy number
    their objects identically.
    """

    def __init__(self, program: Program) -> None:
        #: the program references resolve to (the memo's identity check)
        self.root = program
        objects: List[Any] = [program]
        #: (owner, name) -> position of that method
        self._methods: Dict[Tuple[str, str], int] = {}
        for cls in program.classes.values():
            objects.append(cls)
            objects.extend(cls.instance_fields)
            objects.extend(cls.static_fields)
            methods = list(cls.methods.values())
            if cls.clinit is not None:
                methods.append(cls.clinit)
            for method in methods:
                self._methods[(method.owner, method.name)] = len(objects)
                objects.append(method)
                objects.extend(method.code)
        self._objects = objects
        self._index = {id(obj): index for index, obj in enumerate(objects)}
        #: shape of the walk; a payload resolves only against its own
        self.signature = (len(objects), tuple(program.classes))

    def reduce(self, obj: Any) -> Any:
        """Reduce tuple writing ``obj`` as a reference, or NotImplemented."""
        index = self._index.get(id(obj))
        if index is not None:
            return _shared_ref, (index,)
        if type(obj) is CompiledMethod:
            index = self._methods.get((obj.owner, obj.name))
            if index is not None:
                source = self._objects[index]
                if (len(obj.code) == len(source.code)
                        and all(getattr(obj, name) == getattr(source, name)
                                for name in _COPIED_FIELDS)):
                    patches = tuple(
                        (pos, instr) for pos, (instr, original)
                        in enumerate(zip(obj.code, source.code))
                        if instr is not original)
                    return _shared_ref, (index, patches)
        return NotImplemented

    def resolve(self, index: int, patches: Optional[tuple] = None) -> Any:
        """The object a reference names (a fresh copy when patched)."""
        obj = self._objects[index]
        if patches is None:
            return obj
        if type(obj) is not CompiledMethod:
            raise pickle.UnpicklingError(f"object {index} is not a method")
        copy = obj.copy()
        for pos, instr in patches:
            copy.code[pos] = instr
        return copy


class _Pickler(pickle.Pickler):
    def __init__(self, file: io.BytesIO, refs: ProgramRefs) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._reduce = refs.reduce

    def reducer_override(self, obj: Any) -> Any:
        return self._reduce(obj)


class _Unpickler(pickle.Unpickler):
    def __init__(self, file: io.BytesIO, refs: ProgramRefs) -> None:
        super().__init__(file)
        self._resolve = refs.resolve

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == _shared_ref.__name__:
            return self._resolve
        return super().find_class(module, name)


def dumps(value: Any, refs: ProgramRefs) -> bytes:
    """Pickle ``value``, writing ``refs``' objects as references."""
    buffer = io.BytesIO()
    _Pickler(buffer, refs).dump((refs.signature, value))
    return buffer.getvalue()


def loads(payload: bytes, refs: ProgramRefs) -> Any:
    """Unpickle a :func:`dumps` payload against ``refs``.

    Raises :class:`pickle.UnpicklingError` when the payload was written
    against a program of a different shape.
    """
    signature, value = _Unpickler(io.BytesIO(payload), refs).load()
    if signature != refs.signature:
        raise pickle.UnpicklingError("payload references another program")
    return value
