"""Tagged letters and synchronization words.

A synchronization word interleaves two tapes; each letter carries the tape
it came from plus a symbol. Decoding a word recovers the (input, output)
pair it synchronizes.
"""
from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple, Sequence


class Tape(IntEnum):
    INPUT = 1
    OUTPUT = 2


PARTNER = {Tape.INPUT: Tape.OUTPUT, Tape.OUTPUT: Tape.INPUT}


class Letter(NamedTuple):
    tape: Tape
    symbol: str

    def __repr__(self) -> str:
        return f"({int(self.tape)},{self.symbol})"


SyncWord = tuple  # tuple[Letter, ...]


def inp(symbol: str) -> Letter:
    return Letter(Tape.INPUT, symbol)


def out(symbol: str) -> Letter:
    return Letter(Tape.OUTPUT, symbol)


def decode(w: Sequence[Letter]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The pair of words a synchronization encodes: input, then output."""
    return (
        tuple(l.symbol for l in w if l.tape is Tape.INPUT),
        tuple(l.symbol for l in w if l.tape is Tape.OUTPUT),
    )
