"""The string-dispatch reference interpreter and executor hooks.

This is the step loop the interpreter had before it dispatched on
pre-decoded int opcodes, kept verbatim as the oracle of the differential
tests: it reads every instruction's string opcode, re-checks the budget,
the op limit and block leaders per instruction, and keeps all state on
the frame.  :class:`ReferenceExecHooks` is the executor's method-entry
hook before it was memoized (one ``code_location`` lookup and one page
touch per frame push).  Neither is reachable from ``src/``.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

from repro.image.sections import TEXT_SECTION
from repro.runtime.executor import ExecHooks
from repro.vm.interpreter import (
    Frame,
    Interpreter,
    ThreadState,
    _int_div,
    _int_mod,
    _pop_n,
)
from repro.vm.values import (
    ArrayInstance,
    ObjectInstance,
    OpsBudgetError,
    VMError,
    to_display,
    type_name_of,
)
from repro.minijava.bytecode import CompiledMethod


class ReferenceInterpreter(Interpreter):
    """:class:`Interpreter` with the string-dispatch step loop."""

    def _make_frame(self, method: CompiledMethod, args: List[Any]) -> Frame:
        frame = Frame(method, args)
        frame.leaders = self.hooks.leaders_for(method)
        return frame

    def step(self, thread: ThreadState, budget: int) -> None:
        """The string-dispatch loop, one instruction per iteration."""
        hooks = self.hooks
        self._yield_requested = False
        while budget > 0 and not thread.done and not self._yield_requested:
            if self.ops_executed >= self.max_ops:
                raise OpsBudgetError(self.max_ops)
            frame = thread.frames[-1]
            code = frame.code
            pc = frame.pc
            instr = code[pc]
            if frame.leaders is not None and pc in frame.leaders:
                hooks.on_block(frame, pc, thread)
            self.ops_executed += 1
            budget -= 1
            op = instr.op
            stack = frame.stack
            args = instr.args

            if op == "LOAD":
                stack.append(frame.locals[args[0]])
            elif op == "STORE":
                frame.locals[args[0]] = stack.pop()
            elif op == "CONST_INT" or op == "CONST_DOUBLE" or op == "CONST_BOOL":
                stack.append(args[0])
            elif op == "CONST_NULL":
                stack.append(None)
            elif op == "CONST_STR":
                hooks.on_const_str(args[0])
                stack.append(self.program.string_literals[args[0]])
            elif op == "CONST_OBJ":
                hooks.on_const_obj(args[1])
                stack.append(args[0])
            elif op == "GETFIELD":
                obj = stack.pop()
                if obj is None:
                    raise VMError(self._err(frame, "null dereference (GETFIELD)"))
                hooks.on_object_access(obj, op, thread)
                if isinstance(obj, ObjectInstance):
                    stack.append(obj.get_field(args[0]))
                else:
                    raise VMError(self._err(frame, f"GETFIELD on {type_name_of(obj)}"))
            elif op == "PUTFIELD":
                value = stack.pop()
                obj = stack.pop()
                if obj is None:
                    raise VMError(self._err(frame, "null dereference (PUTFIELD)"))
                hooks.on_object_access(obj, op, thread)
                if isinstance(obj, ObjectInstance):
                    obj.set_field(args[0], value)
                else:
                    raise VMError(self._err(frame, f"PUTFIELD on {type_name_of(obj)}"))
            elif op == "GETSTATIC":
                holder = self.statics[args[0]]
                hooks.on_object_access(holder, op, thread)
                stack.append(holder.get(args[1]))
            elif op == "PUTSTATIC":
                holder = self.statics[args[0]]
                hooks.on_object_access(holder, op, thread)
                holder.set(args[1], stack.pop())
            elif op == "ALOAD":
                index = stack.pop()
                arr = stack.pop()
                if arr is None:
                    raise VMError(self._err(frame, "null dereference (ALOAD)"))
                hooks.on_object_access(arr, op, thread)
                if isinstance(arr, ArrayInstance):
                    stack.append(arr.load(index))
                elif isinstance(arr, str):
                    stack.append(ord(arr[index]))
                else:
                    raise VMError(self._err(frame, f"ALOAD on {type_name_of(arr)}"))
            elif op == "ASTORE":
                value = stack.pop()
                index = stack.pop()
                arr = stack.pop()
                if arr is None:
                    raise VMError(self._err(frame, "null dereference (ASTORE)"))
                hooks.on_object_access(arr, op, thread)
                if not isinstance(arr, ArrayInstance):
                    raise VMError(self._err(frame, f"ASTORE on {type_name_of(arr)}"))
                arr.store(index, value)
            elif op == "ARRAYLEN":
                arr = stack.pop()
                if arr is None:
                    raise VMError(self._err(frame, "null dereference (.length)"))
                if isinstance(arr, ArrayInstance):
                    hooks.on_object_access(arr, op, thread)
                    stack.append(arr.length)
                elif isinstance(arr, str):
                    stack.append(len(arr))
                else:
                    raise VMError(self._err(frame, f".length on {type_name_of(arr)}"))
            elif op == "NEWARRAY":
                length = stack.pop()
                arr = ArrayInstance(args[0], length)
                hooks.on_allocate(arr)
                stack.append(arr)
            elif op == "NEW":
                obj = ObjectInstance(self.program.get_class(args[0]))
                hooks.on_allocate(obj)
                stack.append(obj)
            elif op in ("ADD", "SUB", "MUL", "DIV", "MOD", "BAND", "BOR", "BXOR",
                        "SHL", "SHR", "EQ", "NE", "LT", "LE", "GT", "GE"):
                right = stack.pop()
                left = stack.pop()
                stack.append(self._binary(frame, op, left, right))
            elif op == "NEG":
                stack.append(-stack.pop())
            elif op == "NOT":
                stack.append(not stack.pop())
            elif op == "BNOT":
                stack.append(~stack.pop())
            elif op == "I2D":
                stack.append(float(stack.pop()))
            elif op == "D2I":
                stack.append(int(stack.pop()))
            elif op == "JUMP":
                frame.pc = args[0]
                continue
            elif op == "JMP_FALSE":
                if not stack.pop():
                    frame.pc = args[0]
                    continue
            elif op == "JMP_TRUE":
                if stack.pop():
                    frame.pc = args[0]
                    continue
            elif op == "DUP":
                stack.append(stack[-1])
            elif op == "DUP2":
                stack.extend(stack[-2:])
            elif op == "DUP_X1":
                stack.insert(-2, stack[-1])
            elif op == "DUP_X2":
                stack.insert(-3, stack[-1])
            elif op == "POP":
                stack.pop()
            elif op in ("CALL_STATIC", "CALL_VIRTUAL", "CALL_SUPER", "CALL_CTOR"):
                frame.pc = pc + 1
                handled = self._dispatch_call(thread, frame, op, args)
                if handled:
                    continue  # a new frame was pushed (or intrinsic handled)
                continue
            elif op == "BUILTIN":
                frame.pc = pc + 1
                self._builtin(thread, frame, args[0], args[1])
                continue
            elif op == "RET_VAL" or op == "RET_VOID":
                value = stack.pop() if op == "RET_VAL" else None
                hooks.on_method_exit(frame, thread)
                thread.frames.pop()
                if thread.frames:
                    if not frame.discard_result:
                        thread.frames[-1].stack.append(value)
                else:
                    thread.done = True
                    thread.result = value
                continue
            elif op == "INSTANCEOF":
                value = stack.pop()
                stack.append(self._instanceof(value, args[0]))
            elif op == "CHECKCAST":
                value = stack[-1]
                if value is not None and not self._castable(value, args[0]):
                    raise VMError(
                        self._err(frame, f"cannot cast {type_name_of(value)} to {args[0]}")
                    )
            elif op == "STR_CONCAT":
                right = stack.pop()
                left = stack.pop()
                stack.append(to_display(left) + to_display(right))
            else:  # pragma: no cover - exhaustive opcode set
                raise VMError(self._err(frame, f"unknown opcode {op}"))
            frame.pc = pc + 1

    def _binary(self, frame: Frame, op: str, left: Any, right: Any) -> Any:
        if op == "ADD":
            if isinstance(left, str) or isinstance(right, str):
                return to_display(left) + to_display(right)
            return left + right
        if op == "SUB":
            return left - right
        if op == "MUL":
            return left * right
        if op == "DIV":
            if isinstance(left, float) or isinstance(right, float):
                if right == 0:
                    raise VMError(self._err(frame, "division by zero"))
                return left / right
            return _int_div(left, right)
        if op == "MOD":
            if isinstance(left, float) or isinstance(right, float):
                return math.fmod(left, right)
            return _int_mod(left, right)
        if op == "BAND":
            return left & right
        if op == "BOR":
            return left | right
        if op == "BXOR":
            return left ^ right
        if op == "SHL":
            return left << right
        if op == "SHR":
            return left >> right
        if op == "EQ":
            return self._equals(left, right)
        if op == "NE":
            return not self._equals(left, right)
        if op == "LT":
            return left < right
        if op == "LE":
            return left <= right
        if op == "GT":
            return left > right
        if op == "GE":
            return left >= right
        raise VMError(self._err(frame, f"unknown binary op {op}"))

    @staticmethod
    def _equals(left: Any, right: Any) -> bool:
        if left is None or right is None:
            return left is right
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            return left == right
        if isinstance(left, str) and isinstance(right, str):
            return left == right
        return left is right

    def _dispatch_call(self, thread: ThreadState, frame: Frame, op: str, args) -> bool:
        stack = frame.stack
        if op == "CALL_STATIC":
            cls_name, name, argc = args
            method = self._find_static(cls_name, name)
            call_args = _pop_n(stack, argc)
            self._push_frame(thread, frame, method, call_args)
            return True
        if op == "CALL_VIRTUAL":
            name, argc = args
            call_args = _pop_n(stack, argc)
            receiver = stack.pop()
            if receiver is None:
                raise VMError(self._err_at(frame, f"null dereference calling {name}"))
            if isinstance(receiver, str):
                stack.append(self._string_method(frame, receiver, name, call_args))
                return True
            if not isinstance(receiver, ObjectInstance):
                raise VMError(
                    self._err_at(frame, f"cannot call {name} on {type_name_of(receiver)}")
                )
            method = receiver.klass.lookup_method(name)
            if method is None or method.is_static:
                raise VMError(
                    self._err_at(frame, f"no method {name} on {receiver.klass.name}")
                )
            self._push_frame(thread, frame, method, [receiver] + call_args)
            return True
        if op == "CALL_SUPER":
            super_name, name, argc = args
            call_args = _pop_n(stack, argc)
            receiver = stack.pop()
            super_cls = self.program.get_class(super_name)
            method = super_cls.lookup_method(name)
            if method is None:
                raise VMError(self._err_at(frame, f"no super method {super_name}.{name}"))
            self._push_frame(thread, frame, method, [receiver] + call_args)
            return True
        if op == "CALL_CTOR":
            cls_name, argc = args
            call_args = _pop_n(stack, argc)
            receiver = stack.pop()
            ctor = self.program.get_class(cls_name).methods["<init>"]
            # Constructors are void: the DUP before the args keeps the new
            # object on the caller stack, so drop the pushed null on return.
            self._push_frame(thread, frame, ctor, [receiver] + call_args,
                             discard_result=True)
            return True
        raise VMError(self._err_at(frame, f"unknown call op {op}"))

    def _push_frame(
        self,
        thread: ThreadState,
        caller: Frame,
        method: CompiledMethod,
        call_args: List[Any],
        discard_result: bool = False,
    ) -> None:
        if len(call_args) != method.num_params:
            raise VMError(
                f"{method.signature} expects {method.num_params} args, "
                f"got {len(call_args)}"
            )
        if len(thread.frames) > 4000:
            raise VMError(f"stack overflow calling {method.signature}")
        new_frame = self._make_frame(method, call_args)
        new_frame.discard_result = discard_result
        thread.frames.append(new_frame)
        self.hooks.on_method_enter(new_frame, caller, thread)


class ReferenceExecHooks(ExecHooks):
    """:class:`ExecHooks` resolving every method entry from scratch."""

    def on_method_enter(self, frame: Frame, caller: Optional[Frame],
                        thread: ThreadState) -> None:
        caller_cu = caller.context if caller is not None else None
        placed, member = self._binary.code_location(frame.method, caller_cu)
        if placed is None:
            frame.context = caller_cu
        else:
            frame.context = placed
            offset, size = placed.member_range(member)
            non_inlined_entry = placed is not caller_cu
            if non_inlined_entry:
                # CU prologue executes too.
                self._cache.touch(TEXT_SECTION, placed.offset,
                                  offset - placed.offset + size)
            else:
                self._cache.touch(TEXT_SECTION, offset, size)
            if self._tracer is not None and non_inlined_entry:
                self._tracer.on_cu_entry(placed.cu.name, thread)
        if self._tracer is not None:
            self._tracer.on_method_enter(frame, thread)
