"""Datapath generation: bind the scheduled CFG onto operator instances.

Binding is fully spatial, as the paper's large operator counts suggest
(169 functional units for FDCT1): every TAC operation gets its own
operator instance, every variable and cross-step temp its own register,
and multiplexers are inserted wherever a register input, SRAM address or
SRAM data input has more than one producer.  Mux selects, register
enables and SRAM write enables form the control interface the FSM
drives; branch-condition wires form the status interface it samples.

Conventions (also visible in the XML and the dot rendering):

=============================  =======================================
``r_<var>`` / ``rt<n>``        variable / cross-step temp registers
``u<k>_<type>``                operator instance for TAC op #k
``k<i>``                       constant generators (deduplicated)
``ram_<array>``                the SRAM port component of an array
``mux_<var>``                  register-input mux
``amux_…`` / ``dmux_…``        SRAM address / data muxes
``en_<var>``, ``ent_<n>``      register enables (control)
``we_<array>``                 SRAM write enables (control)
``sel_<var>``, ``sela_…``,
``seld_…``                     mux selects (control)
``st_<block>``                 branch status lines
=============================  =======================================

The SRAM address mux always has the constant 0 as input 0 (its idle
selection), so no state presents a stale computed address to the
combinational read port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..hdl.model.datapath import Datapath, PortRef
from ..operators.mux import select_width
from .cfg import (Cfg, TBranch, TCopy, TLoad, TOp, TStore, Value, VConst,
                  VTemp, VVar)
from .errors import CompileError
from .scheduling import BlockSchedule, Schedule

__all__ = ["BindingResult", "generate_datapath"]

#: operator types whose operands are word-wide but whose result is 1 bit
_CMP_TYPES = {"lt", "le", "gt", "ge", "eq", "ne"}


@dataclass
class BindingResult:
    """Everything FSM generation needs beyond the datapath itself."""

    datapath: Datapath
    #: (block, step) -> [(control name, value), ...]
    step_plans: Dict[Tuple[str, int], List[Tuple[str, int]]]
    #: block name -> status line name (for blocks ending in a branch)
    branch_status: Dict[str, str]
    #: temps that received holding registers
    registered_temps: Set[VTemp] = field(default_factory=set)


#: operator types shared under ``sharing="expensive"`` (costly FUs where
#: multiplexing inputs is clearly cheaper than duplication)
EXPENSIVE_TYPES = frozenset({"mul", "mulfull", "div", "rem", "fdiv",
                             "fmod", "divu", "remu"})


def _resolve_share_types(sharing: str, cfg: Cfg) -> frozenset:
    if sharing == "none":
        return frozenset()
    if sharing == "expensive":
        return EXPENSIVE_TYPES
    if sharing == "all":
        types = set()
        for block in cfg:
            for op in block.ops:
                if isinstance(op, TOp):
                    types.add(op.op)
        return frozenset(types)
    raise CompileError(
        f"sharing must be 'none', 'expensive' or 'all', got {sharing!r}"
    )


class _Binder:
    def __init__(self, cfg: Cfg, schedule: Schedule, name: str,
                 sharing: str = "none") -> None:
        self.cfg = cfg
        self.schedule = schedule
        self.share_types = _resolve_share_types(sharing, cfg)
        self.dp = Datapath(name, cfg.word_width)
        # producer key -> source port; sinks accumulate until build_nets
        self._producers: Dict[Tuple, PortRef] = {}
        self._sinks: Dict[Tuple, List[PortRef]] = {}
        self._net_widths: Dict[Tuple, int] = {}
        self.step_plans: Dict[Tuple[str, int], List[Tuple[str, int]]] = {}
        self.branch_status: Dict[str, str] = {}
        self.registered_temps: Set[VTemp] = set()
        #: load-result temp id -> array whose value wire carries it
        self._load_alias: Dict[int, str] = {}
        #: op-result temp id -> the functional unit computing it
        self._op_unit: Dict[int, str] = {}
        self._op_counter = 0
        self._const_counter = 0

    # ------------------------------------------------------------------
    # Producer/sink bookkeeping (nets created at the end)
    # ------------------------------------------------------------------
    def _declare_producer(self, key: Tuple, source: PortRef,
                          width: int) -> None:
        if key in self._producers:
            raise CompileError(f"internal: producer {key!r} declared twice")
        self._producers[key] = source
        self._sinks[key] = []
        self._net_widths[key] = width

    def connect(self, key: Tuple, sink: PortRef) -> None:
        if key not in self._producers:
            raise CompileError(f"internal: no producer for {key!r}")
        self._sinks[key].append(sink)

    def build_nets(self) -> None:
        for key, source in self._producers.items():
            sinks = self._sinks[key]
            if not sinks:
                continue  # unused outputs carry no net
            name = f"n_{source.component}_{source.port}"
            self.dp.add_net(name, str(source), [str(s) for s in sinks],
                            width=self._net_widths[key])

    # ------------------------------------------------------------------
    # Producers
    # ------------------------------------------------------------------
    def const_key(self, value: int, width: int) -> Tuple:
        value &= (1 << width) - 1
        key = ("const", value, width)
        if key not in self._producers:
            ident = f"k{self._const_counter}"
            self._const_counter += 1
            self.dp.add_component(ident, "const", width=width, value=value)
            self._declare_producer(key, PortRef(ident, "y"), width)
        return key

    def var_key(self, name: str) -> Tuple:
        return ("var", name)

    def wire_key(self, temp: VTemp) -> Tuple:
        if temp.id in self._load_alias:
            return ("arrayval", self._load_alias[temp.id])
        if temp.id in self._op_unit:
            return ("op_out", self._op_unit[temp.id])
        return ("wire", temp.id)

    def treg_key(self, temp: VTemp) -> Tuple:
        return ("treg", temp.id)

    def value_key(self, value: Value, *, width: int, at_step: int,
                  block_schedule: BlockSchedule) -> Tuple:
        """The producer feeding *value* at *at_step* of the block."""
        if isinstance(value, VConst):
            return self.const_key(value.value, width)
        if isinstance(value, VVar):
            return self.var_key(value.name)
        assert isinstance(value, VTemp)
        if block_schedule.def_step[value] < at_step:
            return self.treg_key(value)
        return self.wire_key(value)

    # ------------------------------------------------------------------
    # Step plan recording
    # ------------------------------------------------------------------
    def plan(self, block: str, step: int, control: str, value: int) -> None:
        assigns = self.step_plans.setdefault((block, step), [])
        for existing, existing_value in assigns:
            if existing == control and existing_value != value:
                raise CompileError(
                    f"state ({block}, step {step}): control {control!r} "
                    f"assigned both {existing_value} and {value}"
                )
        if (control, value) not in assigns:
            assigns.append((control, value))

    # ------------------------------------------------------------------
    # Main passes (order matters: producers before consumers)
    # ------------------------------------------------------------------
    def run(self) -> BindingResult:
        self._scan_load_aliases()
        self._declare_memories_and_rams()
        self._declare_var_registers()
        self._declare_temp_registers()
        self._bind_operations()
        self._bind_copies()
        self._bind_memory_ports()
        self._bind_statuses()
        self.build_nets()
        self.dp.validate()
        return BindingResult(self.dp, self.step_plans, self.branch_status,
                             self.registered_temps)

    # -- arrays and rams ------------------------------------------------
    def _used_arrays(self) -> List[str]:
        arrays: List[str] = []
        for block in self.cfg:
            for op in block.ops:
                if isinstance(op, (TLoad, TStore)) and \
                        op.array not in arrays:
                    arrays.append(op.array)
        return arrays

    def _scan_load_aliases(self) -> None:
        for block in self.cfg:
            for op in block.ops:
                if isinstance(op, TLoad):
                    self._load_alias[op.dest.id] = op.array

    def _declare_memories_and_rams(self) -> None:
        word = self.cfg.word_width
        loaded = {array for array in self._load_alias.values()}
        for array in self._used_arrays():
            spec = self.cfg.arrays[array]
            self.dp.add_memory(array, spec.width, spec.depth,
                               role=spec.role)
            ram = f"ram_{array}"
            self.dp.add_component(ram, "sram", width=spec.width,
                                  memory=array)
            if array not in loaded:
                continue  # write-only: no value wire needed
            if spec.width == word:
                self._declare_producer(("arrayval", array),
                                       PortRef(ram, "dout"), spec.width)
            else:
                ext = f"x_{array}"
                ext_type = "sext" if spec.signed else "zext"
                self.dp.add_component(ext, ext_type, width=word)
                self._declare_producer(("ramdout", array),
                                       PortRef(ram, "dout"), spec.width)
                self.connect(("ramdout", array), PortRef(ext, "a"))
                self._declare_producer(("arrayval", array),
                                       PortRef(ext, "y"), word)

    # -- registers --------------------------------------------------------
    def _used_vars(self) -> List[str]:
        used: List[str] = []

        def note(name: str) -> None:
            if name not in used:
                used.append(name)

        for block in self.cfg:
            for op in block.ops:
                for operand in op.operands():
                    if isinstance(operand, VVar):
                        note(operand.name)
                if isinstance(op, TCopy):
                    note(op.var)
        return used

    def _declare_var_registers(self) -> None:
        for var in self._used_vars():
            ident = f"r_{var}"
            self.dp.add_component(ident, "reg", init=0)
            self._declare_producer(self.var_key(var), PortRef(ident, "q"),
                                   self.cfg.word_width)

    def _declare_temp_registers(self) -> None:
        for temp in sorted(self.schedule.cross_step_temps(),
                           key=lambda t: t.id):
            ident = f"rt{temp.id}"
            self.dp.add_component(ident, "reg", width=temp.width, init=0)
            self._declare_producer(self.treg_key(temp),
                                   PortRef(ident, "q"), temp.width)
            self.registered_temps.add(temp)

    # -- operators --------------------------------------------------------
    def _operand_width(self, op: TOp) -> int:
        if op.op in _CMP_TYPES:
            return self.cfg.word_width
        return op.dest.width

    def _bind_operations(self) -> None:
        """Bind every TAC operation to a functional *unit*.

        Under spatial binding (the default) each operation is its own
        unit.  With resource sharing enabled, operations of a shareable
        type may share one unit as long as they execute in different
        control steps; the unit's operand inputs then go through muxes
        whose select (``fsel_*``) the FSM drives per state.
        """
        # gather all operations with their state coordinates
        entries: List[Tuple[str, BlockSchedule, TOp, int]] = []
        for block in self.cfg:
            bs = self.schedule.blocks[block.name]
            for index, op in enumerate(block.ops):
                step = bs.step_of[index]
                if isinstance(op, TOp):
                    entries.append((block.name, bs, op, step))
                elif isinstance(op, TLoad) and \
                        op.dest in self.registered_temps:
                    # the holding register latches the array value wire
                    self.connect(("arrayval", op.array),
                                 PortRef(f"rt{op.dest.id}", "d"))
                    self.plan(block.name, step, f"ent_{op.dest.id}", 1)

        # --- unit allocation ------------------------------------------
        # unit: {"ident", "type", "width", "ops": [entry...],
        #        "states": set of (block, step)}
        units: List[Dict] = []
        shared_pools: Dict[Tuple[str, int], List[Dict]] = {}
        for entry in entries:
            block_name, bs, op, step = entry
            width = self._operand_width(op)
            state = (block_name, step)
            unit = None
            if op.op in self.share_types:
                pool = shared_pools.setdefault((op.op, width), [])
                for candidate in pool:
                    if state not in candidate["states"]:
                        unit = candidate
                        break
                if unit is None:
                    # pools are per (op, width): one operator at two
                    # widths (a 1-bit ``not`` and a word-wide ``~``)
                    # fills two pools, so the width is in the name
                    unit = {"ident": f"su{len(pool)}_{op.op}_w{width}",
                            "type": op.op, "width": width,
                            "ops": [], "states": set()}
                    pool.append(unit)
                    units.append(unit)
            else:
                unit = {"ident": f"u{self._op_counter}_{op.op}",
                        "type": op.op, "width": width,
                        "ops": [], "states": set()}
                self._op_counter += 1
                units.append(unit)
            unit["ops"].append(entry)
            unit["states"].add(state)
            self._op_unit[op.dest.id] = unit["ident"]

        # --- declare units (producers must exist before any operand of
        # another unit references them) -------------------------------
        for unit in units:
            self.dp.add_component(unit["ident"], unit["type"],
                                  width=unit["width"])
            out_width = unit["ops"][0][2].dest.width
            self._declare_producer(("op_out", unit["ident"]),
                                   PortRef(unit["ident"], "y"), out_width)

        # --- wire operands (direct or through sharing muxes) -----------
        for unit in units:
            self._wire_unit(unit)

        # --- cross-step destinations latch the unit output -------------
        for unit in units:
            for block_name, bs, op, step in unit["ops"]:
                if op.dest in self.registered_temps:
                    self.connect(("op_out", unit["ident"]),
                                 PortRef(f"rt{op.dest.id}", "d"))
                    self.plan(block_name, step, f"ent_{op.dest.id}", 1)

    def _wire_unit(self, unit: Dict) -> None:
        ident = unit["ident"]
        width = unit["width"]
        is_binary = unit["ops"][0][2].b is not None
        ports = ("a", "b") if is_binary else ("a",)

        # operand combination per op, in op order
        combos: List[Tuple] = []
        op_combo: List[Tuple[str, int, int]] = []  # (block, step, combo idx)
        for block_name, bs, op, step in unit["ops"]:
            combo = tuple(
                self.value_key(operand, width=width, at_step=step,
                               block_schedule=bs)
                for operand in op.operands()
            )
            if combo not in combos:
                combos.append(combo)
            op_combo.append((block_name, step, combos.index(combo)))

        if len(combos) == 1:
            for port, key in zip(ports, combos[0]):
                self.connect(key, PortRef(ident, port))
            return

        # sharing muxes, one per operand port, with a common select line
        targets = []
        for position, port in enumerate(ports):
            mux = f"fmux{port}_{ident}"
            self.dp.add_component(mux, "mux", inputs=len(combos))
            for combo_index, combo in enumerate(combos):
                self.connect(combo[position],
                             PortRef(mux, f"in{combo_index}"))
            self._declare_producer(("sharemux", ident, port),
                                   PortRef(mux, "y"), width)
            self.connect(("sharemux", ident, port), PortRef(ident, port))
            targets.append(f"{mux}.sel")
        control = f"fsel_{ident}"
        self.dp.add_control(control, targets,
                            width=select_width(len(combos)))
        for block_name, step, combo_index in op_combo:
            self.plan(block_name, step, control, combo_index)

    # -- copies -----------------------------------------------------------
    def _bind_copies(self) -> None:
        var_sources: Dict[str, List[Tuple]] = {}
        var_assigns: List[Tuple[str, int, str, Tuple]] = []
        for block in self.cfg:
            bs = self.schedule.blocks[block.name]
            for index, op in enumerate(block.ops):
                if not isinstance(op, TCopy):
                    continue
                step = bs.step_of[index]
                key = self.value_key(op.src, width=self.cfg.word_width,
                                     at_step=step, block_schedule=bs)
                sources = var_sources.setdefault(op.var, [])
                if key not in sources:
                    sources.append(key)
                var_assigns.append((block.name, step, op.var, key))

        mux_index: Dict[Tuple[str, Tuple], int] = {}
        for var, sources in var_sources.items():
            reg = f"r_{var}"
            if len(sources) == 1:
                self.connect(sources[0], PortRef(reg, "d"))
            else:
                mux = f"mux_{var}"
                self.dp.add_component(mux, "mux", inputs=len(sources))
                for position, key in enumerate(sources):
                    self.connect(key, PortRef(mux, f"in{position}"))
                    mux_index[(var, key)] = position
                self._declare_producer(("varmux", var), PortRef(mux, "y"),
                                       self.cfg.word_width)
                self.connect(("varmux", var), PortRef(reg, "d"))
                self.dp.add_control(f"sel_{var}", [f"{mux}.sel"],
                                    width=select_width(len(sources)))
            self.dp.add_control(f"en_{var}", [f"{reg}.en"])

        for block_name, step, var, key in var_assigns:
            self.plan(block_name, step, f"en_{var}", 1)
            position = mux_index.get((var, key))
            if position is not None:
                self.plan(block_name, step, f"sel_{var}", position)

        # temp holding registers get their enables here (declared earlier,
        # planned during _bind_operations)
        for temp in sorted(self.registered_temps, key=lambda t: t.id):
            self.dp.add_control(f"ent_{temp.id}", [f"rt{temp.id}.en"])

    # -- memory ports -------------------------------------------------------
    def _bind_memory_ports(self) -> None:
        word = self.cfg.word_width
        addr_sources: Dict[str, List[Tuple]] = {}
        din_sources: Dict[str, List[Tuple]] = {}
        access_plans: List[Tuple] = []
        for block in self.cfg:
            bs = self.schedule.blocks[block.name]
            for index, op in enumerate(block.ops):
                if not isinstance(op, (TLoad, TStore)):
                    continue
                step = bs.step_of[index]
                addr_key = self.value_key(op.addr, width=word, at_step=step,
                                          block_schedule=bs)
                slots = addr_sources.setdefault(
                    op.array, [self.const_key(0, word)])
                if addr_key not in slots:
                    slots.append(addr_key)
                if isinstance(op, TStore):
                    value_key = self.value_key(op.value, width=word,
                                               at_step=step,
                                               block_schedule=bs)
                    din = din_sources.setdefault(op.array, [])
                    if value_key not in din:
                        din.append(value_key)
                    access_plans.append((block.name, step, op.array,
                                         addr_key, value_key))
                else:
                    access_plans.append((block.name, step, op.array,
                                         addr_key, None))

        addr_index: Dict[Tuple[str, Tuple], int] = {}
        din_index: Dict[Tuple[str, Tuple], int] = {}
        for array, sources in addr_sources.items():
            spec = self.cfg.arrays[array]
            ram = f"ram_{array}"
            mux = f"amux_{array}"
            self.dp.add_component(mux, "mux", inputs=len(sources))
            for position, key in enumerate(sources):
                self.connect(key, PortRef(mux, f"in{position}"))
                addr_index[(array, key)] = position
            self._declare_producer(("addr", array), PortRef(mux, "y"), word)
            self.connect(("addr", array), PortRef(ram, "addr"))
            self.dp.add_control(f"sela_{array}", [f"{mux}.sel"],
                                width=select_width(len(sources)))

            din = din_sources.get(array, [])
            if din:
                self.dp.add_control(f"we_{array}", [f"{ram}.we"])
                if len(din) == 1:
                    self._connect_din(array, din[0], spec)
                else:
                    dmux = f"dmux_{array}"
                    self.dp.add_component(dmux, "mux", inputs=len(din))
                    for position, key in enumerate(din):
                        self.connect(key, PortRef(dmux, f"in{position}"))
                        din_index[(array, key)] = position
                    self._declare_producer(("dinmux", array),
                                           PortRef(dmux, "y"), word)
                    self._connect_din(array, ("dinmux", array), spec)
                    self.dp.add_control(f"seld_{array}", [f"{dmux}.sel"],
                                        width=select_width(len(din)))

        for block_name, step, array, addr_key, value_key in access_plans:
            self.plan(block_name, step, f"sela_{array}",
                      addr_index[(array, addr_key)])
            if value_key is not None:
                self.plan(block_name, step, f"we_{array}", 1)
                position = din_index.get((array, value_key))
                if position is not None:
                    self.plan(block_name, step, f"seld_{array}", position)

    def _connect_din(self, array: str, key: Tuple, spec) -> None:
        ram = f"ram_{array}"
        if spec.width == self.cfg.word_width:
            self.connect(key, PortRef(ram, "din"))
        else:
            trunc = f"tr_{array}"
            self.dp.add_component(trunc, "trunc", width=spec.width)
            self.connect(key, PortRef(trunc, "a"))
            self._declare_producer(("dintrunc", array),
                                   PortRef(trunc, "y"), spec.width)
            self.connect(("dintrunc", array), PortRef(ram, "din"))

    # -- statuses -----------------------------------------------------------
    def _bind_statuses(self) -> None:
        for block in self.cfg:
            terminator = block.terminator
            if not isinstance(terminator, TBranch):
                continue
            if isinstance(terminator.cond, VConst):
                continue  # fsm_gen turns this into an unconditional edge
            temp = terminator.cond
            bs = self.schedule.blocks[block.name]
            if bs.def_step[temp] < bs.last_step:
                source = self._producers[self.treg_key(temp)]
            else:
                source = self._producers[self.wire_key(temp)]
            self.dp.add_status(f"st_{block.name}", str(source))
            self.branch_status[block.name] = f"st_{block.name}"


def generate_datapath(cfg: Cfg, schedule: Schedule,
                      name: Optional[str] = None,
                      sharing: str = "none") -> BindingResult:
    """Bind *cfg* (already scheduled) to a validated datapath.

    ``sharing`` selects the binding style: ``"none"`` (fully spatial, the
    default and the paper's apparent choice), ``"expensive"`` (share
    multipliers/dividers across control steps) or ``"all"`` (share every
    operator type).  Shared units receive input muxes driven by
    ``fsel_*`` control lines.
    """
    binder = _Binder(cfg, schedule, name or cfg.name, sharing=sharing)
    return binder.run()
