"""EVM-lite: a miniature 256-bit stack virtual machine.

This is the substrate standing in for the Ethereum Virtual Machine.  It
keeps the properties the paper's graph construction depends on:

* contracts are bytecode executed on a word stack with key→value storage;
* a transaction activates one account/contract and may fan out into
  *nested message calls* to other accounts and contracts — each such
  call is recorded in the transaction trace and becomes a graph edge;
* execution is metered with gas; running out of gas aborts the current
  frame and reverts its state changes (journaled in the world state).

Instruction encoding
--------------------

Code is a tuple of ints.  Most opcodes are a single word; ``PUSH``,
``DUP``, ``SWAP``, ``JUMP`` and ``JUMPI`` carry one immediate operand in
the following word.  The :func:`assemble` helper turns a symbolic program
(with string labels) into code, and :func:`disassemble` reverses it.

One deliberate simplification: ``CREATE`` takes a *code template id*
(registered on the VM) from the stack instead of reading init code from
memory — EVM-lite has no byte-addressable memory because nothing in the
paper's analysis needs it.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    CallDepthExceededError,
    EVMError,
    InsufficientBalanceError,
    InvalidOpcodeError,
    InvalidTransactionError,
    OutOfGasError,
    StackOverflowError_,
    StackUnderflowError,
)
from repro.ethereum import gas as G
from repro.ethereum.account import AccountKind
from repro.ethereum.state import WorldState
from repro.ethereum.trace import CallKind, MessageCall, TransactionTrace
from repro.ethereum.transaction import Receipt, Transaction
from repro.ethereum.types import MAX_CALL_DEPTH, MAX_STACK, Address, to_word


class Op(enum.IntEnum):
    """EVM-lite opcodes."""

    STOP = 0
    PUSH = 1        # imm: value
    POP = 2
    ADD = 3
    SUB = 4
    MUL = 5
    DIV = 6
    MOD = 7
    LT = 8
    GT = 9
    EQ = 10
    ISZERO = 11
    AND = 12
    OR = 13
    XOR = 14
    NOT = 15
    DUP = 16        # imm: depth (1 = top)
    SWAP = 17       # imm: depth (1 = swap top with next)
    JUMP = 18       # imm: absolute code offset
    JUMPI = 19      # imm: absolute code offset; pops condition
    SLOAD = 20      # pops key; pushes value
    SSTORE = 21     # pops key, value
    CALLER = 22
    ADDRESS = 23
    CALLVALUE = 24
    BALANCE = 25    # pops address
    CALLDATALOAD = 26  # pops index
    CALLDATASIZE = 27
    CALL = 28       # pops gas, address, value; pushes success flag
    CREATE = 29     # pops template_id, value; pushes new address
    RETURN = 30     # pops return value
    REVERT = 31
    TIMESTAMP = 32
    GASLEFT = 33
    SELFBALANCE = 34


#: Opcodes that carry an immediate operand in the following code word.
_HAS_IMMEDIATE = {Op.PUSH, Op.DUP, Op.SWAP, Op.JUMP, Op.JUMPI}

#: Static gas cost per opcode (dynamic parts handled inline).
_STATIC_GAS: Dict[Op, int] = {
    Op.STOP: 0,
    Op.PUSH: G.G_VERYLOW,
    Op.POP: G.G_BASE,
    Op.ADD: G.G_VERYLOW,
    Op.SUB: G.G_VERYLOW,
    Op.MUL: G.G_LOW,
    Op.DIV: G.G_LOW,
    Op.MOD: G.G_LOW,
    Op.LT: G.G_VERYLOW,
    Op.GT: G.G_VERYLOW,
    Op.EQ: G.G_VERYLOW,
    Op.ISZERO: G.G_VERYLOW,
    Op.AND: G.G_VERYLOW,
    Op.OR: G.G_VERYLOW,
    Op.XOR: G.G_VERYLOW,
    Op.NOT: G.G_VERYLOW,
    Op.DUP: G.G_VERYLOW,
    Op.SWAP: G.G_VERYLOW,
    Op.JUMP: G.G_MID,
    Op.JUMPI: G.G_HIGH,
    Op.SLOAD: G.G_SLOAD,
    # SSTORE cost is dynamic
    Op.CALLER: G.G_ENV,
    Op.ADDRESS: G.G_ENV,
    Op.CALLVALUE: G.G_ENV,
    Op.BALANCE: G.G_BALANCE,
    Op.CALLDATALOAD: G.G_ENV,
    Op.CALLDATASIZE: G.G_ENV,
    # CALL / CREATE cost is dynamic
    Op.RETURN: 0,
    Op.REVERT: 0,
    Op.TIMESTAMP: G.G_ENV,
    Op.GASLEFT: G.G_ENV,
    Op.SELFBALANCE: G.G_LOW,
}

Instruction = Union[str, Tuple[str, Union[int, str]], Tuple[str]]


def assemble(program: Sequence[Instruction]) -> Tuple[int, ...]:
    """Assemble a symbolic program into EVM-lite code.

    A program is a sequence of:

    * ``"OPNAME"`` — an opcode with no immediate;
    * ``("OPNAME", operand)`` — an opcode with an immediate operand;
    * ``("label", "name")`` — a label definition (emits nothing).

    Jump targets may be label names; they are resolved to absolute code
    offsets in a second pass.

    >>> assemble([("PUSH", 7), ("PUSH", 35), "ADD", "STOP"])
    (1, 7, 1, 35, 3, 0)
    """
    labels: Dict[str, int] = {}
    offset = 0
    for instr in program:
        if isinstance(instr, tuple) and instr[0] == "label":
            labels[str(instr[1])] = offset
            continue
        name = instr[0] if isinstance(instr, tuple) else instr
        op = Op[name]
        offset += 2 if op in _HAS_IMMEDIATE else 1

    code: List[int] = []
    for instr in program:
        if isinstance(instr, tuple) and instr[0] == "label":
            continue
        if isinstance(instr, tuple):
            name = instr[0]
            operand = instr[1] if len(instr) > 1 else None
        else:
            name, operand = instr, None
        op = Op[name]
        code.append(int(op))
        if op in _HAS_IMMEDIATE:
            if operand is None:
                raise ValueError(f"{name} requires an immediate operand")
            if isinstance(operand, str):
                if operand not in labels:
                    raise ValueError(f"undefined label: {operand!r}")
                operand = labels[operand]
            code.append(to_word(int(operand)))
        elif operand is not None:
            raise ValueError(f"{name} takes no operand")
    return tuple(code)


def disassemble(code: Sequence[int]) -> List[Tuple[int, str, Optional[int]]]:
    """Decode code into (offset, opname, immediate-or-None) triples."""
    out: List[Tuple[int, str, Optional[int]]] = []
    pc = 0
    while pc < len(code):
        try:
            op = Op(code[pc])
        except ValueError:
            out.append((pc, f"INVALID({code[pc]})", None))
            pc += 1
            continue
        if op in _HAS_IMMEDIATE:
            imm = code[pc + 1] if pc + 1 < len(code) else None
            out.append((pc, op.name, imm))
            pc += 2
        else:
            out.append((pc, op.name, None))
            pc += 1
    return out


@dataclasses.dataclass
class _Frame:
    """One message-call execution frame."""

    caller: Address
    callee: Address
    value: int
    gas: int
    calldata: Tuple[int, ...]
    depth: int
    refund: int = 0

    def charge(self, amount: int) -> None:
        if self.gas < amount:
            self.gas = 0
            raise OutOfGasError(f"frame at depth {self.depth} out of gas")
        self.gas -= amount


class EVM:
    """The EVM-lite interpreter bound to a world state.

    The VM owns a *code template registry* used by CREATE: workload code
    registers contract programs once, and contracts instantiate them by
    template id.
    """

    def __init__(self, state: WorldState, use_eras: bool = False):
        """``use_eras`` makes state-access gas costs fork-dependent
        (:mod:`repro.ethereum.forks`): cheap pre-EIP-150 IO, repriced
        afterwards — historically faithful, off by default so cost
        assertions stay era-independent."""
        self.state = state
        self.use_eras = use_eras
        self._templates: Dict[int, Tuple[int, ...]] = {}
        self._next_template: int = 0
        self._era = None

    # ------------------------------------------------------------------
    # template registry

    def register_template(self, code: Sequence[int]) -> int:
        """Register contract code; returns its template id."""
        tid = self._next_template
        self._next_template += 1
        self._templates[tid] = tuple(code)
        return tid

    def template_code(self, template_id: int) -> Tuple[int, ...]:
        try:
            return self._templates[template_id]
        except KeyError:
            raise EVMError(f"unknown code template: {template_id}") from None

    # ------------------------------------------------------------------
    # transaction entry point

    def execute_transaction(
        self, tx: Transaction, timestamp: float, miner: Optional[Address] = None
    ) -> Tuple[Receipt, TransactionTrace]:
        """Validate and execute one transaction against the state.

        Returns the receipt and the message-call trace.  Chain-level
        validation failures (bad nonce, unaffordable gas) raise
        :class:`InvalidTransactionError`; execution failures inside the
        EVM are *captured* into a failed receipt, as on the real chain.
        """
        sender = self.state.get_optional(tx.sender)
        if sender is None:
            raise InvalidTransactionError(f"unknown sender: {tx.sender}")
        if sender.nonce != tx.nonce:
            raise InvalidTransactionError(
                f"bad nonce for {tx.sender}: expected {sender.nonce}, got {tx.nonce}"
            )
        upfront = tx.gas_limit * tx.gas_price + tx.value
        if sender.balance < upfront:
            raise InvalidTransactionError(
                f"sender {tx.sender} cannot afford tx: balance {sender.balance} < {upfront}"
            )
        intrinsic = G.intrinsic_gas(len(tx.data))
        if tx.gas_limit < intrinsic:
            raise InvalidTransactionError(
                f"gas limit {tx.gas_limit} below intrinsic cost {intrinsic}"
            )

        # buy gas, bump nonce — these survive even if execution fails
        self.state.sub_balance(tx.sender, tx.gas_limit * tx.gas_price)
        self.state.increment_nonce(tx.sender)
        self.state.discard_journal()

        trace = TransactionTrace(tx_id=tx.tx_id, timestamp=timestamp)
        self._timestamp = timestamp
        if self.use_eras:
            from repro.ethereum.forks import era_at

            self._era = era_at(timestamp)
        else:
            self._era = None
        frame = _Frame(
            caller=tx.sender,
            callee=tx.to,
            value=tx.value,
            gas=tx.gas_limit - intrinsic,
            calldata=tx.data,
            depth=0,
        )
        snapshot = self.state.snapshot()
        callee_acct = self.state.get_optional(tx.to)
        callee_is_contract = callee_acct is not None and callee_acct.is_contract
        kind = CallKind.CALL if callee_is_contract else CallKind.TRANSFER
        success = True
        error: Optional[str] = None
        try:
            if callee_acct is None:
                raise InvalidTransactionError(f"unknown recipient: {tx.to}")
            self.state.transfer(tx.sender, tx.to, tx.value)
            if callee_is_contract:
                self._run(frame, callee_acct.code, trace)
        except InvalidTransactionError:
            self.state.revert_to(snapshot)
            raise
        except EVMError as exc:
            self.state.revert_to(snapshot)
            success = False
            error = f"{type(exc).__name__}: {exc}"
            frame.gas = 0  # failed top-level frame consumes all gas

        trace.record(
            MessageCall(
                kind=kind,
                caller=tx.sender,
                callee=tx.to,
                value=tx.value,
                depth=0,
                caller_is_contract=False,
                callee_is_contract=callee_is_contract,
                success=success,
            )
        )
        # order trace as caller-first: the top-level activation edge comes
        # before internal edges (we appended it last, so rotate).
        trace.calls.insert(0, trace.calls.pop())

        gas_used = tx.gas_limit - frame.gas
        if success and frame.refund:
            refund = min(frame.refund, gas_used // 2)
            gas_used -= refund
        # refund unused gas to sender; pay the miner for gas used
        self.state.add_balance(tx.sender, (tx.gas_limit - gas_used) * tx.gas_price)
        if miner is not None:
            self.state.add_balance(miner, gas_used * tx.gas_price)
        self.state.discard_journal()

        trace.succeeded = success
        trace.gas_used = gas_used
        receipt = Receipt(
            tx_id=tx.tx_id, success=success, gas_used=gas_used, error=error,
            num_calls=trace.num_calls,
        )
        return receipt, trace

    # ------------------------------------------------------------------
    # interpreter core

    def _run(self, frame: _Frame, code: Tuple[int, ...], trace: TransactionTrace) -> int:
        """Execute ``code`` in ``frame``; returns the RETURN value (or 0).

        Raises EVMError subclasses on failure; the *caller* is
        responsible for reverting state to its pre-frame snapshot.
        """
        stack: List[int] = []
        pc = 0

        def pop() -> int:
            if not stack:
                raise StackUnderflowError(f"pc={pc}")
            return stack.pop()

        def push(v: int) -> None:
            if len(stack) >= MAX_STACK:
                raise StackOverflowError_(f"pc={pc}")
            stack.append(to_word(v))

        while pc < len(code):
            raw = code[pc]
            try:
                op = Op(raw)
            except ValueError:
                raise InvalidOpcodeError(f"opcode {raw} at pc={pc}") from None

            if self._era is not None and op is Op.SLOAD:
                frame.charge(self._era.sload_cost)
            elif self._era is not None and op is Op.BALANCE:
                frame.charge(self._era.balance_cost)
            else:
                static = _STATIC_GAS.get(op)
                if static is not None:
                    frame.charge(static)

            if op is Op.STOP:
                return 0
            elif op is Op.PUSH:
                push(code[pc + 1])
                pc += 2
                continue
            elif op is Op.POP:
                pop()
            elif op is Op.ADD:
                push(pop() + pop())
            elif op is Op.SUB:
                a, b = pop(), pop()
                push(a - b)
            elif op is Op.MUL:
                push(pop() * pop())
            elif op is Op.DIV:
                a, b = pop(), pop()
                push(0 if b == 0 else a // b)
            elif op is Op.MOD:
                a, b = pop(), pop()
                push(0 if b == 0 else a % b)
            elif op is Op.LT:
                a, b = pop(), pop()
                push(1 if a < b else 0)
            elif op is Op.GT:
                a, b = pop(), pop()
                push(1 if a > b else 0)
            elif op is Op.EQ:
                push(1 if pop() == pop() else 0)
            elif op is Op.ISZERO:
                push(1 if pop() == 0 else 0)
            elif op is Op.AND:
                push(pop() & pop())
            elif op is Op.OR:
                push(pop() | pop())
            elif op is Op.XOR:
                push(pop() ^ pop())
            elif op is Op.NOT:
                push(~pop())
            elif op is Op.DUP:
                depth = code[pc + 1]
                if depth < 1 or depth > len(stack):
                    raise StackUnderflowError(f"DUP {depth} with stack {len(stack)}")
                push(stack[-depth])
                pc += 2
                continue
            elif op is Op.SWAP:
                depth = code[pc + 1]
                if depth < 1 or depth >= len(stack):
                    raise StackUnderflowError(f"SWAP {depth} with stack {len(stack)}")
                stack[-1], stack[-1 - depth] = stack[-1 - depth], stack[-1]
                pc += 2
                continue
            elif op is Op.JUMP:
                pc = code[pc + 1]
                continue
            elif op is Op.JUMPI:
                dest = code[pc + 1]
                cond = pop()
                if cond:
                    pc = dest
                    continue
                pc += 2
                continue
            elif op is Op.SLOAD:
                key = pop()
                push(self.state.storage_read(frame.callee, key))
            elif op is Op.SSTORE:
                key, value = pop(), pop()
                old = self.state.storage_read(frame.callee, key)
                frame.charge(G.sstore_cost(old, value))
                frame.refund += G.sstore_refund(old, value)
                self.state.storage_write(frame.callee, key, value)
            elif op is Op.CALLER:
                push(frame.caller)
            elif op is Op.ADDRESS:
                push(frame.callee)
            elif op is Op.CALLVALUE:
                push(frame.value)
            elif op is Op.BALANCE:
                addr = pop()
                acct = self.state.get_optional(addr)
                push(acct.balance if acct is not None else 0)
            elif op is Op.CALLDATALOAD:
                idx = pop()
                push(frame.calldata[idx] if idx < len(frame.calldata) else 0)
            elif op is Op.CALLDATASIZE:
                push(len(frame.calldata))
            elif op is Op.CALL:
                gas_req, addr, value = pop(), pop(), pop()
                push(self._do_call(frame, gas_req, addr, value, trace))
            elif op is Op.CREATE:
                template_id, value = pop(), pop()
                push(self._do_create(frame, template_id, value, trace))
            elif op is Op.RETURN:
                return pop()
            elif op is Op.REVERT:
                raise EVMError(f"REVERT at pc={pc}")
            elif op is Op.TIMESTAMP:
                push(int(self._timestamp))
            elif op is Op.GASLEFT:
                push(frame.gas)
            elif op is Op.SELFBALANCE:
                push(self.state.get(frame.callee).balance)
            else:  # pragma: no cover - enum is exhaustive
                raise InvalidOpcodeError(f"unhandled opcode {op.name}")
            pc += 1
        return 0

    # ------------------------------------------------------------------
    # nested calls

    def _do_call(
        self, parent: _Frame, gas_req: int, addr: Address, value: int, trace: TransactionTrace
    ) -> int:
        """CALL: run the callee in a child frame; returns 1/0 success."""
        if parent.depth + 1 >= MAX_CALL_DEPTH:
            raise CallDepthExceededError(f"depth {parent.depth + 1}")
        callee = self.state.get_optional(addr)
        callee_exists = callee is not None
        base_call = G.call_cost(value > 0, callee_exists)
        if self._era is not None:
            base_call += self._era.call_cost - G.G_CALL
        parent.charge(base_call)
        # forward the requested gas, capped at what the parent has left
        forwarded = min(gas_req, parent.gas)
        parent.gas -= forwarded
        if value > 0:
            forwarded += G.G_CALLSTIPEND

        child = _Frame(
            caller=parent.callee,
            callee=addr,
            value=value,
            gas=forwarded,
            calldata=(),
            depth=parent.depth + 1,
        )
        snapshot = self.state.snapshot()
        success = True
        callee_is_contract = callee_exists and callee.is_contract
        # reserve the trace slot *before* the child runs so calls appear
        # in invocation order (parent before its children)
        trace_idx = len(trace.calls)
        try:
            if not callee_exists:
                raise EVMError(f"CALL to unknown account {addr}")
            if value > 0:
                self.state.transfer(parent.callee, addr, value)
            if callee_is_contract:
                self._run(child, callee.code, trace)
        except EVMError:
            self.state.revert_to(snapshot)
            success = False
            child.gas = 0  # failed frame consumes its gas

        trace.calls.insert(
            trace_idx,
            MessageCall(
                kind=CallKind.CALL if callee_is_contract else CallKind.TRANSFER,
                caller=parent.callee,
                callee=addr,
                value=value,
                depth=child.depth,
                caller_is_contract=True,
                callee_is_contract=callee_is_contract,
                success=success,
            ),
        )
        # return unused child gas (stipend surplus included) to the parent
        parent.gas += child.gas
        parent.refund += child.refund if success else 0
        return 1 if success else 0

    def _do_create(
        self, parent: _Frame, template_id: int, value: int, trace: TransactionTrace
    ) -> int:
        """CREATE: instantiate a registered template; returns new address."""
        if parent.depth + 1 >= MAX_CALL_DEPTH:
            raise CallDepthExceededError(f"depth {parent.depth + 1}")
        parent.charge(G.G_CREATE)
        code = self.template_code(template_id)
        creator = self.state.get(parent.callee)
        if creator.balance < value:
            raise InsufficientBalanceError(
                f"CREATE value {value} exceeds balance {creator.balance}"
            )
        acct = self.state.create_contract(code, balance=0, timestamp=self._timestamp)
        if value > 0:
            self.state.transfer(parent.callee, acct.address, value)
        trace.record(
            MessageCall(
                kind=CallKind.CREATE,
                caller=parent.callee,
                callee=acct.address,
                value=value,
                depth=parent.depth + 1,
                caller_is_contract=True,
                callee_is_contract=True,
                success=True,
            )
        )
        return acct.address
