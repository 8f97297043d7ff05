"""Synthetic workload substrate (programs, traces, SPECint2000 profiles)."""

from .bbdict import BasicBlockDictionary, StaticBlockView
from .cfg import BasicBlock, ControlFlowGraph, Function
from .generator import ProgramGenerator, WorkloadProfile, generate_program
from .isa import INSTRUCTION_BYTES, BranchKind, InstrClass
from .spec2000 import (
    DEFAULT_MIX,
    SPECINT2000_NAMES,
    SPECINT2000_PROFILES,
    profile_for,
    profiles_for,
)
from .trace import (
    ActualStream,
    CompiledPathOracle,
    DynamicBlock,
    ProgramWalker,
    Workload,
    build_workload,
)

__all__ = [
    "BasicBlock",
    "BasicBlockDictionary",
    "BranchKind",
    "CompiledPathOracle",
    "ControlFlowGraph",
    "DEFAULT_MIX",
    "DynamicBlock",
    "Function",
    "INSTRUCTION_BYTES",
    "InstrClass",
    "ActualStream",
    "ProgramGenerator",
    "ProgramWalker",
    "SPECINT2000_NAMES",
    "SPECINT2000_PROFILES",
    "StaticBlockView",
    "Workload",
    "WorkloadProfile",
    "build_workload",
    "generate_program",
    "profile_for",
    "profiles_for",
]
