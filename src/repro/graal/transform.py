"""Per-build program transformations: cloning and PGO constant folding.

Each optimizing build owns its own copy of the program (builds must not
see each other's code rewrites; regular and instrumented builds rewrite
nothing and read the compiled program as is), and it folds accesses to
``static final`` fields whose build-time value is a primitive or a String —
the mechanism by which "accesses to their fields could be constant-folded,
eliminating the need to store the respective objects in the heap snapshot"
(paper Sec. 2).  Folded String constants become code-embedded constants
whose heap-inclusion reason is the embedding method's signature
(Sec. 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..minijava.bytecode import ClassInfo, CompiledMethod, Instr, Program
from ..vm.values import StaticsHolder


def clone_program(program: Program) -> Program:
    """Structural clone: fresh ClassInfo/CompiledMethod shells, shared Instrs.

    Instructions are treated as immutable (rewrites replace list entries),
    so sharing them between builds is safe.
    """
    clone = Program()
    clone.main_class = program.main_class
    clone.string_literals = list(program.string_literals)
    clone._string_ids = dict(program._string_ids)  # noqa: SLF001 - same package family

    for name, cls in program.classes.items():
        new_cls = ClassInfo(cls.name, cls.superclass_name)
        new_cls.line = cls.line
        new_cls.instance_fields = list(cls.instance_fields)
        new_cls.static_fields = list(cls.static_fields)
        for method_name, method in cls.methods.items():
            new_cls.methods[method_name] = method.copy()
        if cls.clinit is not None:
            new_cls.clinit = cls.clinit.copy()
        clone.add_class(new_cls)
    clone.link()
    return clone


@dataclass(frozen=True)
class FoldedConstant:
    """A String constant embedded into code by PGO folding."""

    token: str  # unique per fold site
    value: str
    origin_signature: str  # the embedding method — its heap-inclusion reason


def fold_final_statics(
    program: Program,
    statics: Dict[str, StaticsHolder],
    reachable_signatures: frozenset,
) -> List[FoldedConstant]:
    """Fold ``GETSTATIC`` of final fields with build-time constant values.

    Primitives and booleans become immediate constants; Strings become
    ``CONST_OBJ`` instructions and are returned so the image builder can
    root them with the embedding method's signature as inclusion reason.
    Rewrites are 1-to-1 so jump targets stay valid.
    """
    folded: List[FoldedConstant] = []
    for cls in program.classes.values():
        for method in list(cls.methods.values()):
            if method.signature not in reachable_signatures:
                continue
            _fold_method(program, statics, method, folded)
    return folded


def _fold_method(
    program: Program,
    statics: Dict[str, StaticsHolder],
    method: CompiledMethod,
    folded: List[FoldedConstant],
) -> None:
    for index, instr in enumerate(method.code):
        if instr.op != "GETSTATIC":
            continue
        cls_name, field_name = instr.args
        cls = program.classes.get(cls_name)
        if cls is None:
            continue
        field = cls.find_field(field_name, static=True)
        if field is None or not field.is_final:
            continue
        holder = statics.get(field.declared_in)
        if holder is None:
            continue
        value = holder.get(field_name)
        if isinstance(value, bool):
            method.code[index] = Instr("CONST_BOOL", (value,), instr.line)
        elif isinstance(value, int):
            method.code[index] = Instr("CONST_INT", (value,), instr.line)
        elif isinstance(value, float):
            method.code[index] = Instr("CONST_DOUBLE", (value,), instr.line)
        elif isinstance(value, str):
            token = f"{method.signature}#fold{len(folded)}"
            method.code[index] = Instr("CONST_OBJ", (value, token), instr.line)
            folded.append(
                FoldedConstant(token=token, value=value, origin_signature=method.signature)
            )
        # Reference-typed finals stay as GETSTATIC: folding an object
        # reference would pin a mutable object into code.
