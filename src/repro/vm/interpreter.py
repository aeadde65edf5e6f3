"""Explicit-frame step interpreter for MiniJava bytecode.

The interpreter is the "CPU" of the simulated Native-Image runtime.  Design
points that matter for the reproduction:

* **Explicit frames, no host recursion** — deep benchmark recursion (Towers,
  Havlak) cannot hit Python's recursion limit, and threads can be stepped
  cooperatively for the multi-threaded microservice workloads.
* **Pluggable hooks** — the executor (:mod:`repro.runtime.executor`) charges
  page touches for code and image-heap accesses through
  :class:`RuntimeHooks`; the tracing profiler additionally observes basic
  block transitions for Ball–Larus path tracing.
* **Build-time reuse** — the image builder runs class initializers with the
  same interpreter (hooks disabled), exactly like Native Image executes
  ``<clinit>`` methods during heap snapshotting.
* **Pre-decoded dispatch** — each interpreter decodes a method's ``code``
  list once into ``(opcode, first immediate, args)`` triples with small-int
  opcodes, and the step loop keeps the running frame's state in locals
  (DESIGN.md, "The interpreter loop").  Op counts, hook order and every
  observable result match a string-dispatch loop exactly.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..minijava.bytecode import ClassInfo, CompiledMethod, Instr, Program
from .values import (
    ArrayInstance,
    ObjectInstance,
    OpsBudgetError,
    ResourceBlob,
    StaticsHolder,
    VMError,
    default_for_type,
    to_display,
    type_name_of,
)


class RuntimeHooks:
    """Observation points used by executors and profilers.

    The base class is all no-ops; subclasses override what they need.
    """

    def on_method_enter(self, frame: "Frame", caller: Optional["Frame"],
                        thread: "ThreadState") -> None:
        """A new frame was pushed (after locals were bound)."""

    def on_method_exit(self, frame: "Frame", thread: "ThreadState") -> None:
        """A frame is about to be popped (return executed)."""

    def on_object_access(self, obj: Any, op: str, thread: "ThreadState") -> None:
        """A field/array/static access executed on ``obj``."""

    def on_const_str(self, sid: int) -> None:
        """A string-literal constant was materialized (code-section constant)."""

    def on_const_obj(self, token: str) -> None:
        """A PGO-folded code constant was materialized (heap-rooted object)."""

    def on_allocate(self, obj: Any) -> None:
        """A new object or array was allocated at runtime."""

    def on_print(self, text: str) -> None:
        """``print``/``println`` output."""

    def on_respond(self, value: Any) -> None:
        """The workload produced its first response (microservices)."""

    def on_resource(self, blob: ResourceBlob) -> None:
        """A resource blob was registered (build-time only in practice)."""

    def leaders_for(self, method: CompiledMethod) -> Optional[frozenset]:
        """Basic-block leader pcs for ``method`` or None when not tracing.

        Asked once per method and interpreter; the answer must not change.
        """
        return None

    def on_block(self, frame: "Frame", leader_pc: int, thread: "ThreadState") -> None:
        """Control entered the basic block starting at ``leader_pc``."""


class Frame:
    """One activation record.

    ``code`` is the method's bytecode (error messages read line numbers from
    it); ``decoded`` is the same body in the step loop's pre-decoded form.
    """

    __slots__ = ("method", "code", "decoded", "pc", "stack", "locals", "context",
                 "leaders", "trace_state", "discard_result")

    def __init__(self, method: CompiledMethod, args: List[Any],
                 decoded: tuple = (),
                 leaders: Optional[frozenset] = None,
                 discard_result: bool = False) -> None:
        self.method = method
        self.code = method.code
        self.decoded = decoded
        self.pc = 0
        self.stack: List[Any] = []
        self.locals: List[Any] = args + [None] * (method.num_slots - len(args))
        self.context: Any = None  # compilation-unit context, set by executors
        self.leaders = leaders
        self.trace_state: Any = None
        self.discard_result = discard_result


class ThreadState:
    """A VM thread: a stack of frames plus status."""

    _next_id = 0

    def __init__(self, entry_frame: Frame, name: str = "") -> None:
        self.thread_id = ThreadState._next_id
        ThreadState._next_id += 1
        self.name = name or f"thread-{self.thread_id}"
        self.frames: List[Frame] = [entry_frame]
        self.done = False
        self.result: Any = None

    @property
    def current(self) -> Frame:
        return self.frames[-1]


_STRING_METHODS: Dict[str, Callable[..., Any]] = {
    "length": lambda s: len(s),
    "charAt": lambda s, i: ord(s[i]),
    "substring": lambda s, a, b: s[a:b],
    "equals": lambda s, o: isinstance(o, str) and s == o,
    "startsWith": lambda s, p: s.startswith(p),
    "endsWith": lambda s, p: s.endswith(p),
    "indexOf": lambda s, o: s.find(o if isinstance(o, str) else chr(o)),
    "contains": lambda s, o: o in s,
    "isEmpty": lambda s: len(s) == 0,
    "concat": lambda s, o: s + to_display(o),
    "toString": lambda s: s,
    "hashCode": lambda s: _java_string_hash(s),
}


def _java_string_hash(s: str) -> int:
    h = 0
    for ch in s:
        h = (31 * h + ord(ch)) & 0xFFFFFFFF
    return h - (1 << 32) if h >= (1 << 31) else h


def _int_div(a: int, b: int) -> int:
    """Java integer division (truncates toward zero)."""
    if b == 0:
        raise VMError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    """Java remainder (sign follows the dividend)."""
    if b == 0:
        raise VMError("division by zero")
    return a - _int_div(a, b) * b


def _equals(left: Any, right: Any) -> bool:
    if left is None or right is None:
        return left is right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    return left is right


# -- decoded form ---------------------------------------------------------------
#
# A method body decodes to one ``(opcode, first immediate, args)`` triple per
# instruction.  Opcodes are small ints numbered in the order the step loop
# tests them: the most frequent first (LOAD, GETFIELD, JMP_FALSE and the
# constants lead on every workload), then the rest of the loop's ops, then
# the rare straight-line ops :meth:`Interpreter._slow_op` executes.  The
# four CONST_INT/DOUBLE/BOOL/NULL ops share ``OP_CONST`` (the immediate is
# the value, ``None`` for null) and RET_VAL/RET_VOID share ``OP_RET`` (the
# immediate says whether a value is returned).
(
    OP_LOAD, OP_GETFIELD, OP_JMP_FALSE, OP_CONST, OP_STORE, OP_JUMP, OP_ADD,
    OP_CALL_VIRTUAL, OP_RET, OP_PUTFIELD, OP_ALOAD, OP_LT, OP_EQ, OP_NE,
    OP_MUL, OP_SUB, OP_GT, OP_GE, OP_LE, OP_ASTORE, OP_POP, OP_DUP,
    OP_GETSTATIC, OP_PUTSTATIC, OP_CALL_STATIC, OP_CALL_CTOR, OP_CALL_SUPER,
    OP_BUILTIN, OP_JMP_TRUE,
    # slow path (Interpreter._slow_op)
    OP_ARRAYLEN, OP_DIV, OP_MOD, OP_BAND, OP_BOR, OP_BXOR, OP_SHL, OP_SHR,
    OP_NEG, OP_NOT, OP_BNOT, OP_I2D, OP_D2I, OP_DUP2, OP_DUP_X1, OP_DUP_X2,
    OP_CONST_STR, OP_CONST_OBJ, OP_NEW, OP_NEWARRAY, OP_INSTANCEOF,
    OP_CHECKCAST, OP_STR_CONCAT, OP_UNKNOWN,
) = range(53)

_OPCODES: Dict[str, int] = {
    "LOAD": OP_LOAD, "GETFIELD": OP_GETFIELD, "JMP_FALSE": OP_JMP_FALSE,
    "CONST_INT": OP_CONST, "CONST_DOUBLE": OP_CONST, "CONST_BOOL": OP_CONST,
    "CONST_NULL": OP_CONST, "STORE": OP_STORE, "JUMP": OP_JUMP, "ADD": OP_ADD,
    "CALL_VIRTUAL": OP_CALL_VIRTUAL, "RET_VAL": OP_RET, "RET_VOID": OP_RET,
    "PUTFIELD": OP_PUTFIELD, "ALOAD": OP_ALOAD, "LT": OP_LT, "EQ": OP_EQ,
    "NE": OP_NE, "MUL": OP_MUL, "SUB": OP_SUB, "GT": OP_GT, "GE": OP_GE,
    "LE": OP_LE, "ASTORE": OP_ASTORE, "POP": OP_POP, "DUP": OP_DUP,
    "GETSTATIC": OP_GETSTATIC, "PUTSTATIC": OP_PUTSTATIC,
    "CALL_STATIC": OP_CALL_STATIC, "CALL_CTOR": OP_CALL_CTOR,
    "CALL_SUPER": OP_CALL_SUPER, "BUILTIN": OP_BUILTIN,
    "JMP_TRUE": OP_JMP_TRUE, "ARRAYLEN": OP_ARRAYLEN, "DIV": OP_DIV,
    "MOD": OP_MOD, "BAND": OP_BAND, "BOR": OP_BOR, "BXOR": OP_BXOR,
    "SHL": OP_SHL, "SHR": OP_SHR, "NEG": OP_NEG, "NOT": OP_NOT,
    "BNOT": OP_BNOT, "I2D": OP_I2D, "D2I": OP_D2I, "DUP2": OP_DUP2,
    "DUP_X1": OP_DUP_X1, "DUP_X2": OP_DUP_X2, "CONST_STR": OP_CONST_STR,
    "CONST_OBJ": OP_CONST_OBJ, "NEW": OP_NEW, "NEWARRAY": OP_NEWARRAY,
    "INSTANCEOF": OP_INSTANCEOF, "CHECKCAST": OP_CHECKCAST,
    "STR_CONCAT": OP_STR_CONCAT,
}

DecodedCode = Tuple[Tuple[int, Any, tuple], ...]


def decode(code: List[Instr], shared: Dict[tuple, tuple]) -> DecodedCode:
    """The step loop's form of a method body, one triple per instruction.

    An opcode the loop does not know decodes to ``OP_UNKNOWN`` and raises
    only when executed, as an unknown string opcode did.  ``shared`` maps
    ``(op, args)`` to a triple already decoded, so equal instructions
    (``LOAD 0``, ``ADD``, ...) share one; CONST_DOUBLE is never shared,
    because ``0.0 == -0.0``.
    """
    decoded = []
    for instr in code:
        op = instr.op
        args = instr.args
        triple = shared.get((op, args))
        if triple is None:
            if op == "RET_VAL" or op == "RET_VOID":
                first: Any = op == "RET_VAL"
            else:
                first = args[0] if args else None
            triple = (_OPCODES.get(op, OP_UNKNOWN), first, args)
            if op != "CONST_DOUBLE":
                shared[(op, args)] = triple
        decoded.append(triple)
    return tuple(decoded)


class Interpreter:
    """Executes a compiled program, cooperatively scheduling its threads."""

    def __init__(
        self,
        program: Program,
        statics: Optional[Dict[str, StaticsHolder]] = None,
        hooks: Optional[RuntimeHooks] = None,
        max_ops: int = 50_000_000,
        quantum: int = 500,
    ) -> None:
        self.program = program
        self.hooks = hooks or RuntimeHooks()
        self.statics = statics if statics is not None else make_statics(program)
        self.threads: List[ThreadState] = []
        self.ops_executed = 0
        self.max_ops = max_ops
        self.quantum = quantum
        self.stop_requested = False
        self.output: List[str] = []
        self._yield_requested = False
        #: id(method) -> (method, code list, decoded code, leaders, params);
        #: holding the method keeps its id unique for this interpreter
        self._methods: Dict[int, tuple] = {}
        #: (op, args) -> decoded triple, shared by equal instructions
        self._shared: Dict[tuple, tuple] = {}
        #: resolved call targets: (opcode, class name, method name) -> method
        self._targets: Dict[tuple, CompiledMethod] = {}
        #: virtual call targets: (receiver class, method name) -> method
        self._virtuals: Dict[tuple, CompiledMethod] = {}

    # -- thread management ---------------------------------------------------

    def spawn(self, method: CompiledMethod, args: Optional[List[Any]] = None,
              name: str = "") -> ThreadState:
        """Create a new runnable thread entering ``method``."""
        frame = self._make_frame(method, list(args or []))
        thread = ThreadState(frame, name=name)
        self.threads.append(thread)
        self.hooks.on_method_enter(frame, None, thread)
        return thread

    def spawn_main(self) -> ThreadState:
        return self.spawn(self.program.entry_method(), [], name="main")

    def _method_entry(self, method: CompiledMethod) -> tuple:
        """(method, code, decoded code, leaders, param count) of ``method``.

        Decoded once per interpreter and code list: a method whose ``code``
        list was replaced decodes again.  Each interpreter serves one run or
        one build's static initialization, and constant folding rewrites
        code only after static initialization, so a list never changes
        under an interpreter that decoded it.
        """
        entry = self._methods.get(id(method))
        if entry is None or entry[1] is not method.code:
            entry = (method, method.code, decode(method.code, self._shared),
                     self.hooks.leaders_for(method), method.num_params)
            self._methods[id(method)] = entry
        return entry

    def _make_frame(self, method: CompiledMethod, args: List[Any]) -> Frame:
        _, _, decoded, leaders, _ = self._method_entry(method)
        return Frame(method, args, decoded, leaders)

    # -- scheduling ------------------------------------------------------------

    def run(self) -> None:
        """Round-robin all threads to completion (or stop/ops-budget)."""
        while not self.stop_requested:
            runnable = [t for t in self.threads if not t.done]
            if not runnable:
                return
            for thread in runnable:
                if self.stop_requested:
                    return
                self.step(thread, self.quantum)

    def run_single(self, method: CompiledMethod, args: Optional[List[Any]] = None) -> Any:
        """Run one method on a dedicated thread to completion; return result."""
        thread = self.spawn(method, args, name=f"call:{method.name}")
        while not thread.done and not self.stop_requested:
            self.step(thread, self.quantum)
        return thread.result

    # -- core step loop ----------------------------------------------------------

    def step(self, thread: ThreadState, budget: int) -> None:
        """Execute up to ``budget`` instructions on ``thread``.

        While control stays in one frame, its pc, stack, locals, decoded
        code and leaders and the op counter live in locals.  ``frame.pc``
        and ``ops_executed`` are written back before anything that can
        observe them or re-enter the interpreter: calls, returns, builtins,
        heap-access hooks, ``on_block``, raising, and static accesses (a
        build's first access to a class runs its ``<clinit>`` on this
        interpreter, which advances ``ops_executed``).
        """
        self._yield_requested = False
        if thread.done:
            return
        hooks = self.hooks
        statics = self.statics
        virtuals = self._virtuals
        max_ops = self.max_ops
        frames = thread.frames
        frame = frames[-1]
        code = frame.decoded
        pc = frame.pc
        stack = frame.stack
        slots = frame.locals
        leaders = frame.leaders
        ops = self.ops_executed
        # the budget ends at op count ``budget_end``; ``limit`` is the
        # first op count at which the loop must stop or raise
        budget_end = ops + budget
        limit = budget_end if budget_end < max_ops else max_ops
        try:
            while True:
                if ops >= limit:
                    if ops >= budget_end:
                        break
                    raise OpsBudgetError(max_ops)
                if leaders is not None and pc in leaders:
                    frame.pc = pc
                    self.ops_executed = ops
                    hooks.on_block(frame, pc, thread)
                ops += 1
                op, first, args = code[pc]

                if op == OP_LOAD:
                    stack.append(slots[first])
                elif op == OP_GETFIELD:
                    obj = stack.pop()
                    frame.pc = pc
                    if obj is None:
                        raise VMError(self._err(frame, "null dereference (GETFIELD)"))
                    self.ops_executed = ops
                    hooks.on_object_access(obj, "GETFIELD", thread)
                    if not isinstance(obj, ObjectInstance):
                        raise VMError(self._err(frame, f"GETFIELD on {type_name_of(obj)}"))
                    try:
                        stack.append(obj.fields[first])
                    except KeyError:
                        obj.get_field(first)  # raises the missing-field error
                elif op == OP_JMP_FALSE:
                    if not stack.pop():
                        pc = first
                        continue
                elif op == OP_CONST:
                    stack.append(first)
                elif op == OP_STORE:
                    slots[first] = stack.pop()
                elif op == OP_JUMP:
                    pc = first
                    continue
                elif op == OP_ADD:
                    right = stack.pop()
                    left = stack[-1]
                    if isinstance(left, str) or isinstance(right, str):
                        stack[-1] = to_display(left) + to_display(right)
                    else:
                        stack[-1] = left + right
                elif op == OP_CALL_VIRTUAL:
                    pc += 1
                    frame.pc = pc
                    self.ops_executed = ops
                    count = args[1] + 1
                    call_args = stack[-count:]  # receiver, then arguments
                    del stack[-count:]
                    receiver = call_args[0]
                    if isinstance(receiver, ObjectInstance):
                        method = virtuals.get((receiver.klass, first))
                        if method is None:
                            method = self._virtual_target(frame, receiver, first)
                        frame = self._push_frame(thread, frame, method, call_args)
                        code = frame.decoded
                        pc = 0
                        stack = frame.stack
                        slots = frame.locals
                        leaders = frame.leaders
                    elif isinstance(receiver, str):
                        stack.append(self._string_method(frame, receiver, first,
                                                         call_args[1:]))
                    elif receiver is None:
                        raise VMError(self._err_at(frame, f"null dereference calling {first}"))
                    else:
                        raise VMError(self._err_at(
                            frame, f"cannot call {first} on {type_name_of(receiver)}"))
                    continue
                elif op == OP_RET:
                    value = stack.pop() if first else None
                    frame.pc = pc
                    self.ops_executed = ops
                    hooks.on_method_exit(frame, thread)
                    frames.pop()
                    if not frames:
                        thread.done = True
                        thread.result = value
                        break
                    if not frame.discard_result:
                        frames[-1].stack.append(value)
                    frame = frames[-1]
                    code = frame.decoded
                    pc = frame.pc
                    stack = frame.stack
                    slots = frame.locals
                    leaders = frame.leaders
                    continue
                elif op == OP_PUTFIELD:
                    value = stack.pop()
                    obj = stack.pop()
                    frame.pc = pc
                    if obj is None:
                        raise VMError(self._err(frame, "null dereference (PUTFIELD)"))
                    self.ops_executed = ops
                    hooks.on_object_access(obj, "PUTFIELD", thread)
                    if not isinstance(obj, ObjectInstance):
                        raise VMError(self._err(frame, f"PUTFIELD on {type_name_of(obj)}"))
                    fields = obj.fields
                    if first in fields:
                        fields[first] = value
                    else:
                        obj.set_field(first, value)  # raises the missing-field error
                elif op == OP_ALOAD:
                    index = stack.pop()
                    arr = stack.pop()
                    frame.pc = pc
                    if arr is None:
                        raise VMError(self._err(frame, "null dereference (ALOAD)"))
                    self.ops_executed = ops
                    hooks.on_object_access(arr, "ALOAD", thread)
                    if isinstance(arr, ArrayInstance):
                        values = arr.values
                        if type(index) is int and 0 <= index < len(values):
                            stack.append(values[index])
                        else:
                            stack.append(arr.load(index))  # raises the index error
                    elif isinstance(arr, str):
                        stack.append(ord(arr[index]))
                    else:
                        raise VMError(self._err(frame, f"ALOAD on {type_name_of(arr)}"))
                elif op == OP_LT:
                    right = stack.pop()
                    stack[-1] = stack[-1] < right
                elif op == OP_EQ:
                    right = stack.pop()
                    stack[-1] = _equals(stack[-1], right)
                elif op == OP_NE:
                    right = stack.pop()
                    stack[-1] = not _equals(stack[-1], right)
                elif op == OP_MUL:
                    right = stack.pop()
                    stack[-1] = stack[-1] * right
                elif op == OP_SUB:
                    right = stack.pop()
                    stack[-1] = stack[-1] - right
                elif op == OP_GT:
                    right = stack.pop()
                    stack[-1] = stack[-1] > right
                elif op == OP_GE:
                    right = stack.pop()
                    stack[-1] = stack[-1] >= right
                elif op == OP_LE:
                    right = stack.pop()
                    stack[-1] = stack[-1] <= right
                elif op == OP_ASTORE:
                    value = stack.pop()
                    index = stack.pop()
                    arr = stack.pop()
                    frame.pc = pc
                    if arr is None:
                        raise VMError(self._err(frame, "null dereference (ASTORE)"))
                    self.ops_executed = ops
                    hooks.on_object_access(arr, "ASTORE", thread)
                    if not isinstance(arr, ArrayInstance):
                        raise VMError(self._err(frame, f"ASTORE on {type_name_of(arr)}"))
                    values = arr.values
                    if type(index) is int and 0 <= index < len(values):
                        values[index] = value
                    else:
                        arr.store(index, value)  # raises the index error
                elif op == OP_POP:
                    stack.pop()
                elif op == OP_DUP:
                    stack.append(stack[-1])
                elif op == OP_GETSTATIC or op == OP_PUTSTATIC:
                    frame.pc = pc
                    self.ops_executed = ops
                    try:
                        holder = statics[first]  # may run a nested <clinit>
                    except BaseException:
                        ops = self.ops_executed
                        raise
                    if self.ops_executed != ops:
                        # The nested run's ops count against max_ops but not
                        # against this step's budget.
                        budget_end += self.ops_executed - ops
                        ops = self.ops_executed
                        limit = budget_end if budget_end < max_ops else max_ops
                    if op == OP_GETSTATIC:
                        hooks.on_object_access(holder, "GETSTATIC", thread)
                        stack.append(holder.get(args[1]))
                    else:
                        hooks.on_object_access(holder, "PUTSTATIC", thread)
                        holder.set(args[1], stack.pop())
                    if self._yield_requested:
                        pc += 1
                        break
                elif op == OP_CALL_STATIC or op == OP_CALL_CTOR or op == OP_CALL_SUPER:
                    pc += 1
                    frame.pc = pc
                    self.ops_executed = ops
                    method, call_args, discard = self._call_target(frame, op, args)
                    frame = self._push_frame(thread, frame, method, call_args, discard)
                    code = frame.decoded
                    pc = 0
                    stack = frame.stack
                    slots = frame.locals
                    leaders = frame.leaders
                    continue
                elif op == OP_BUILTIN:
                    pc += 1
                    frame.pc = pc
                    self.ops_executed = ops
                    self._builtin(thread, frame, first, args[1])
                    if self._yield_requested:
                        break
                    continue
                elif op == OP_JMP_TRUE:
                    if stack.pop():
                        pc = first
                        continue
                else:
                    frame.pc = pc
                    self.ops_executed = ops
                    self._slow_op(thread, frame, op, first, args)
                pc += 1
        except BaseException:
            frame.pc = pc
            self.ops_executed = ops
            raise
        frame.pc = pc
        self.ops_executed = ops

    def _slow_op(self, thread: ThreadState, frame: Frame, op: int, first: Any,
                 args: tuple) -> None:
        """Execute one rare straight-line instruction (pc and ops written back)."""
        stack = frame.stack
        if op == OP_ARRAYLEN:
            arr = stack.pop()
            if arr is None:
                raise VMError(self._err(frame, "null dereference (.length)"))
            if isinstance(arr, ArrayInstance):
                self.hooks.on_object_access(arr, "ARRAYLEN", thread)
                stack.append(arr.length)
            elif isinstance(arr, str):
                stack.append(len(arr))
            else:
                raise VMError(self._err(frame, f".length on {type_name_of(arr)}"))
        elif op == OP_DIV:
            right = stack.pop()
            left = stack.pop()
            if isinstance(left, float) or isinstance(right, float):
                if right == 0:
                    raise VMError(self._err(frame, "division by zero"))
                stack.append(left / right)
            else:
                stack.append(_int_div(left, right))
        elif op == OP_MOD:
            right = stack.pop()
            left = stack.pop()
            if isinstance(left, float) or isinstance(right, float):
                stack.append(math.fmod(left, right))
            else:
                stack.append(_int_mod(left, right))
        elif op == OP_BAND:
            right = stack.pop()
            stack.append(stack.pop() & right)
        elif op == OP_BOR:
            right = stack.pop()
            stack.append(stack.pop() | right)
        elif op == OP_BXOR:
            right = stack.pop()
            stack.append(stack.pop() ^ right)
        elif op == OP_SHL:
            right = stack.pop()
            stack.append(stack.pop() << right)
        elif op == OP_SHR:
            right = stack.pop()
            stack.append(stack.pop() >> right)
        elif op == OP_NEG:
            stack.append(-stack.pop())
        elif op == OP_NOT:
            stack.append(not stack.pop())
        elif op == OP_BNOT:
            stack.append(~stack.pop())
        elif op == OP_I2D:
            stack.append(float(stack.pop()))
        elif op == OP_D2I:
            stack.append(int(stack.pop()))
        elif op == OP_DUP2:
            stack.extend(stack[-2:])
        elif op == OP_DUP_X1:
            stack.insert(-2, stack[-1])
        elif op == OP_DUP_X2:
            stack.insert(-3, stack[-1])
        elif op == OP_CONST_STR:
            self.hooks.on_const_str(first)
            stack.append(self.program.string_literals[first])
        elif op == OP_CONST_OBJ:
            self.hooks.on_const_obj(args[1])
            stack.append(first)
        elif op == OP_NEW:
            obj = ObjectInstance(self.program.get_class(first))
            self.hooks.on_allocate(obj)
            stack.append(obj)
        elif op == OP_NEWARRAY:
            arr = ArrayInstance(first, stack.pop())
            self.hooks.on_allocate(arr)
            stack.append(arr)
        elif op == OP_INSTANCEOF:
            stack.append(self._instanceof(stack.pop(), first))
        elif op == OP_CHECKCAST:
            value = stack[-1]
            if value is not None and not self._castable(value, first):
                raise VMError(
                    self._err(frame, f"cannot cast {type_name_of(value)} to {first}")
                )
        elif op == OP_STR_CONCAT:
            right = stack.pop()
            left = stack.pop()
            stack.append(to_display(left) + to_display(right))
        else:  # OP_UNKNOWN
            raise VMError(self._err(frame, f"unknown opcode {frame.code[frame.pc].op}"))

    # -- helpers ------------------------------------------------------------------

    def _err(self, frame: Frame, message: str) -> str:
        instr = frame.code[frame.pc]
        return f"{message} in {frame.method.signature} (line {instr.line})"

    def _instanceof(self, value: Any, type_name: str) -> bool:
        if value is None:
            return False
        if isinstance(value, ObjectInstance):
            return value.klass.is_subclass_of(type_name)
        return type_name_of(value) == type_name

    def _castable(self, value: Any, type_name: str) -> bool:
        if isinstance(value, ObjectInstance):
            if value.klass.is_subclass_of(type_name):
                return True
            # Downcasts are checked dynamically; an upcast target that is a
            # superclass is also fine (handled above). Also allow casting to
            # any class the object could be viewed as via hierarchy.
            return False
        if isinstance(value, str):
            return type_name == "String"
        if isinstance(value, ArrayInstance):
            return type_name == value.type_name or type_name.endswith("[]")
        return type_name_of(value) == type_name

    # -- calls ----------------------------------------------------------------------

    def _virtual_target(self, frame: Frame, receiver: ObjectInstance,
                        name: str) -> CompiledMethod:
        """Resolve (and cache) a virtual call on ``receiver``'s class."""
        method = receiver.klass.lookup_method(name)
        if method is None or method.is_static:
            raise VMError(
                self._err_at(frame, f"no method {name} on {receiver.klass.name}")
            )
        self._virtuals[(receiver.klass, name)] = method
        return method

    def _call_target(self, frame: Frame, op: int, args: tuple) -> tuple:
        """(method, call args, discard result) of a static, ctor or super call.

        Pops the call's operands; targets resolve once per interpreter.
        """
        stack = frame.stack
        key = (op, args[0], args[1])
        method = self._targets.get(key)
        if op == OP_CALL_STATIC:
            cls_name, name, argc = args
            if method is None:
                method = self._find_static(cls_name, name)
            call_args = _pop_n(stack, argc)
            discard = False
        elif op == OP_CALL_CTOR:
            cls_name, argc = args
            call_args = _pop_n(stack, argc + 1)  # receiver, then arguments
            if method is None:
                method = self.program.get_class(cls_name).methods["<init>"]
            # Constructors are void: the DUP before the args keeps the new
            # object on the caller stack, so drop the pushed null on return.
            discard = True
        else:
            super_name, name, argc = args
            call_args = _pop_n(stack, argc + 1)
            if method is None:
                method = self.program.get_class(super_name).lookup_method(name)
                if method is None:
                    raise VMError(
                        self._err_at(frame, f"no super method {super_name}.{name}")
                    )
            discard = False
        self._targets[key] = method
        return method, call_args, discard

    def _err_at(self, frame: Frame, message: str) -> str:
        pc = max(frame.pc - 1, 0)
        return f"{message} in {frame.method.signature} (line {frame.code[pc].line})"

    def _find_static(self, cls_name: str, name: str) -> CompiledMethod:
        cls: Optional[ClassInfo] = self.program.get_class(cls_name)
        while cls is not None:
            method = cls.methods.get(name)
            if method is not None and method.is_static:
                return method
            cls = cls.superclass
        raise VMError(f"no static method {cls_name}.{name}")

    def _push_frame(
        self,
        thread: ThreadState,
        caller: Frame,
        method: CompiledMethod,
        call_args: List[Any],
        discard_result: bool = False,
    ) -> Frame:
        """Push and announce a frame entering ``method``; returns it."""
        _, _, decoded, leaders, num_params = self._method_entry(method)
        if len(call_args) != num_params:
            raise VMError(
                f"{method.signature} expects {num_params} args, "
                f"got {len(call_args)}"
            )
        frames = thread.frames
        if len(frames) > 4000:
            raise VMError(f"stack overflow calling {method.signature}")
        new_frame = Frame(method, call_args, decoded, leaders, discard_result)
        frames.append(new_frame)
        self.hooks.on_method_enter(new_frame, caller, thread)
        return new_frame

    def _string_method(self, frame: Frame, receiver: str, name: str, call_args) -> Any:
        handler = _STRING_METHODS.get(name)
        if handler is None:
            raise VMError(self._err_at(frame, f"no String method {name}"))
        try:
            return handler(receiver, *call_args)
        except IndexError:
            raise VMError(self._err_at(frame, f"String.{name} index out of bounds"))

    # -- builtins -----------------------------------------------------------------

    def _builtin(self, thread: ThreadState, frame: Frame, name: str, argc: int) -> None:
        stack = frame.stack
        call_args = _pop_n(stack, argc)
        if name == "println":
            text = to_display(call_args[0])
            self.output.append(text)
            self.hooks.on_print(text + "\n")
            stack.append(None)
        elif name == "print":
            text = to_display(call_args[0])
            self.output.append(text)
            self.hooks.on_print(text)
            stack.append(None)
        elif name == "sqrt":
            stack.append(math.sqrt(call_args[0]))
        elif name == "pow":
            stack.append(math.pow(call_args[0], call_args[1]))
        elif name == "abs":
            stack.append(abs(call_args[0]))
        elif name == "floor":
            stack.append(float(math.floor(call_args[0])))
        elif name == "ceil":
            stack.append(float(math.ceil(call_args[0])))
        elif name == "min":
            stack.append(min(call_args))
        elif name == "max":
            stack.append(max(call_args))
        elif name == "intOf":
            value = call_args[0]
            stack.append(int(value) if not isinstance(value, str) else int(value.strip()))
        elif name == "doubleOf":
            value = call_args[0]
            stack.append(float(value) if not isinstance(value, str) else float(value.strip()))
        elif name == "spawn":
            cls_name, method_name = call_args
            method = self._find_static(cls_name, method_name)
            self.spawn(method, [], name=f"{cls_name}.{method_name}")
            stack.append(None)
        elif name == "respond":
            self.hooks.on_respond(call_args[0])
            stack.append(None)
        elif name == "resource":
            blob = ResourceBlob(call_args[0], call_args[1])
            self.hooks.on_resource(blob)
            stack.append(blob)
        elif name == "yieldThread":
            self._yield_requested = True
            stack.append(None)
        else:
            raise VMError(self._err_at(frame, f"unknown builtin {name}"))


def _pop_n(stack: List[Any], n: int) -> List[Any]:
    if n == 0:
        return []
    args = stack[-n:]
    del stack[-n:]
    return args


def make_statics(program: Program) -> Dict[str, StaticsHolder]:
    """Fresh static areas with default values for every class."""
    statics: Dict[str, StaticsHolder] = {}
    for name, cls in program.classes.items():
        fields = cls.static_fields
        statics[name] = StaticsHolder(
            name, [f.name for f in fields], [f.default_value() for f in fields]
        )
    return statics
