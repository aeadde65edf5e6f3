"""Differential property test: MiniJava arithmetic vs a Python reference.

Random integer expression trees are rendered to MiniJava, compiled, and
executed; a recursive Python evaluator with Java semantics (truncating
division, dividend-signed remainder) computes the expected value.  Any
divergence points at the lexer, parser, precedence table, codegen, or the
interpreter's operator semantics.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minijava import compile_source
from repro.vm import Interpreter

# -- expression model --------------------------------------------------------

_BIN_OPS = ["+", "-", "*", "/", "%", "&", "|", "^"]
_CMP_OPS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def expressions(draw, depth: int = 0):
    """Return (minijava_text, python_value)."""
    if depth >= 4 or draw(st.booleans()):
        value = draw(st.integers(min_value=-50, max_value=50))
        if value < 0:
            return f"(0 - {-value})", value
        return str(value), value

    kind = draw(st.sampled_from(["bin", "cmp", "shift", "neg", "paren"]))
    if kind == "neg":
        text, value = draw(expressions(depth=depth + 1))
        return f"(-{text})", -value
    if kind == "paren":
        text, value = draw(expressions(depth=depth + 1))
        return f"({text})", value
    if kind == "shift":
        text, value = draw(expressions(depth=depth + 1))
        amount = draw(st.integers(min_value=0, max_value=6))
        op = draw(st.sampled_from(["<<", ">>"]))
        result = value << amount if op == "<<" else value >> amount
        return f"({text} {op} {amount})", result
    if kind == "cmp":
        left_text, left = draw(expressions(depth=depth + 1))
        right_text, right = draw(expressions(depth=depth + 1))
        op = draw(st.sampled_from(_CMP_OPS))
        table = {
            "<": left < right, "<=": left <= right, ">": left > right,
            ">=": left >= right, "==": left == right, "!=": left != right,
        }
        outcome = table[op]
        then_text, then_value = draw(expressions(depth=depth + 1))
        else_text, else_value = draw(expressions(depth=depth + 1))
        value = then_value if outcome else else_value
        return (
            f"(({left_text} {op} {right_text}) ? {then_text} : {else_text})",
            value,
        )

    left_text, left = draw(expressions(depth=depth + 1))
    right_text, right = draw(expressions(depth=depth + 1))
    op = draw(st.sampled_from(_BIN_OPS))
    if op in ("/", "%") and right == 0:
        right_text, right = "7", 7
    value = _java_binop(op, left, right)
    return f"({left_text} {op} {right_text})", value


def _java_binop(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if op == "%":
        q = abs(a) // abs(b)
        q = q if (a >= 0) == (b >= 0) else -q
        return a - q * b
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    raise AssertionError(op)


def run_expression(text: str):
    source = f"class Main {{ static int main() {{ return {text}; }} }}"
    program = compile_source(source)
    return Interpreter(program).run_single(program.entry_method())


@settings(max_examples=120, deadline=None)
@given(expressions())
def test_expression_matches_reference(case) -> None:
    text, expected = case
    assert run_expression(text) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(expressions(), min_size=1, max_size=5))
def test_expressions_accumulated_through_locals(cases) -> None:
    """The same expressions routed through locals and compound assignment."""
    statements = []
    expected = 0
    for index, (text, value) in enumerate(cases):
        statements.append(f"int v{index} = {text};")
        statements.append(f"acc += v{index};")
        expected += value
    body = "int acc = 0; " + " ".join(statements) + " return acc;"
    source = f"class Main {{ static int main() {{ {body} }} }}"
    program = compile_source(source)
    assert Interpreter(program).run_single(program.entry_method()) == expected


@settings(max_examples=80, deadline=None)
@given(st.lists(expressions(), min_size=1, max_size=4))
def test_decoded_loop_matches_reference_loop(cases) -> None:
    """The pre-decoded step loop and the string-dispatch reference agree
    on every value and op count (small quanta interleave the budgets)."""
    from reference_interpreter import ReferenceInterpreter

    body = " ".join(f"int v{index} = {text}; println(v{index});"
                    for index, (text, _) in enumerate(cases))
    source = f"class Main {{ static int main() {{ {body} return 0; }} }}"
    program = compile_source(source)
    outcomes = []
    for cls in (Interpreter, ReferenceInterpreter):
        interp = cls(program, quantum=3)
        thread = interp.spawn_main()
        interp.run()
        outcomes.append((thread.result, interp.output, interp.ops_executed))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == [str(value) for _, value in cases]
