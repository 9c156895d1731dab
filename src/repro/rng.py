"""Seeded random-number plumbing shared by every stochastic subsystem.

The paper's security argument rests on an information asymmetry: the
*system* draws the key -> replica-group mapping from randomness the
*adversary* cannot observe.  To keep experiments reproducible while
preserving that asymmetry in code, each subsystem derives its own
independent :class:`numpy.random.Generator` stream from a single root
seed via ``numpy``'s :class:`~numpy.random.SeedSequence` spawning
mechanism.  Two streams derived with different ``child`` labels are
statistically independent, and re-running with the same root seed
reproduces every trial bit-for-bit.

Hot paths that need many sibling streams at once — the event kernel's
per-node service streams, ``(seed, label, trial * n + node)`` — use
:meth:`RngFactory.pcg64_states` instead of one :meth:`~RngFactory.generator`
per stream.  It returns the same PCG64 states, but derives them in bulk:
the seed material shared by every counter is hash-mixed once in plain
Python, following NumPy's documented ``SeedSequence`` algorithm, and only
the last spawn-key word (the counter) is mixed in vectorized ``uint32``
arithmetic.  A caller then assigns each state to one reused generator's
``bit_generator.state`` and draws exactly the stream ``generator`` would
have produced.  Every call also seeds one counter's stream the way
``generator`` does and raises if the two states disagree, so a NumPy
whose seeding changed fails loudly instead of silently changing streams.

Example
-------
>>> root = RngFactory(seed=7)
>>> partition_rng = root.generator("partition", trial=0)
>>> arrival_rng = root.generator("arrivals", trial=0)
>>> int(partition_rng.integers(1000)) != int(arrival_rng.integers(1000))
True
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, List, Optional, Union

import numpy as np

__all__ = ["RngFactory", "as_generator", "DEFAULT_SEED"]

#: Seed used when the caller does not supply one.  Fixed (rather than
#: entropy-derived) so that examples and benchmark tables are stable
#: between runs unless the user explicitly asks for fresh randomness.
DEFAULT_SEED = 20130708  # ICDCS 2013 workshop dates, July 8 2013.


#: NumPy's ``SeedSequence`` constants (``numpy/random/bit_generator.pyx``):
#: the pool size in 32-bit words, the hash multipliers of the entropy mix
#: (A) and of ``generate_state`` (B), and the word-mixing multipliers.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _label_to_int(label: str) -> int:
    """Map a human-readable stream label to a stable 32-bit integer.

    ``zlib.crc32`` is used (not ``hash``) because Python's string hashing
    is salted per process and would destroy reproducibility.
    """
    return zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFF


def _uint32_words(value) -> List[int]:
    """``SeedSequence``'s coercion of entropy or a spawn key to 32-bit
    words: each int little-endian (``0`` is one word), sequences joined."""
    if not isinstance(value, (int, np.integer)):
        return [word for item in value for word in _uint32_words(item)]
    value = int(value)
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, hash_const: int):
    """One ``hashmix`` step; returns ``(mixed, next_hash_const)``.

    ``value`` is a Python int or a ``uint32`` array (whose arithmetic
    wraps mod ``2**32`` on its own); ``hash_const`` advances
    independently of the data.
    """
    next_const = hash_const * _MULT_A & _MASK32
    value = (value ^ hash_const) * next_const & _MASK32
    return value ^ (value >> 16), next_const


def _mix(x: int, y):
    """``SeedSequence``'s mix of pool word ``x`` with ``y`` (an int or a
    ``uint32`` array)."""
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _entropy_pool(words: List[int]):
    """``SeedSequence.mix_entropy`` over ``words`` (at least the pool
    size); returns the pool and the hash constant it ends on."""
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    return pool, hash_const


def _pcg64_words(pool) -> List[np.ndarray]:
    """``generate_state(4, uint64)`` of a vectorized pool: four ``uint64``
    arrays (seed high, seed low, increment high, increment low)."""
    hash_const = _INIT_B
    halves = []
    for i in range(2 * len(pool)):
        data = pool[i % len(pool)] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        data = data * hash_const
        halves.append((data ^ (data >> 16)).astype(np.uint64))
    return [lo | (hi << np.uint64(32)) for lo, hi in zip(halves[::2], halves[1::2])]


def _pcg64_state(seed: int, initseq: int) -> Dict[str, Any]:
    """PCG64's ``set_seed``: the ``bit_generator.state`` it leaves."""
    inc = (initseq << 1 | 1) & _MASK128
    state = ((inc + seed) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


class RngFactory:
    """Derives independent, reproducible RNG streams from one root seed.

    Parameters
    ----------
    seed:
        Root seed for the whole experiment.  ``None`` draws fresh OS
        entropy (non-reproducible run).
    """

    def __init__(self, seed: Optional[int] = DEFAULT_SEED) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)

    @property
    def seed(self) -> Optional[int]:
        """The root seed this factory was built with (``None`` = entropy)."""
        return self._seed

    def generator(self, label: str, trial: int = 0) -> np.random.Generator:
        """Return a generator for stream ``label`` within trial ``trial``.

        The same ``(seed, label, trial)`` triple always yields the same
        stream; distinct triples yield independent streams.
        """
        return np.random.default_rng(self._child(label, trial))

    def _child(self, label: str, trial: int) -> np.random.SeedSequence:
        """The seed sequence of stream ``(label, trial)``."""
        if trial < 0:
            raise ValueError(f"trial must be non-negative, got {trial}")
        return np.random.SeedSequence(
            entropy=self._root.entropy,
            # Extend (not replace) the root's spawn key so factories
            # namespaced via spawn() stay independent of their parent.
            spawn_key=tuple(self._root.spawn_key) + (_label_to_int(label), trial),
        )

    def pcg64_states(self, label: str, counters: Iterable[int]) -> List[Dict[str, Any]]:
        """``generator(label, trial=c).bit_generator.state`` for every
        counter ``c``, without building the generators.

        Counters below ``2**32`` are one spawn-key word: the words before
        it are the same for every counter, so their mix is computed once,
        and the counter word is mixed for all of them at once.  Larger
        counters coerce to two words and are seeded one by one, exactly
        as :meth:`generator` seeds them.
        Assign a state to a PCG64 ``Generator``'s ``bit_generator.state``
        to draw exactly that stream.
        """
        counters = [int(c) for c in counters]
        if counters and min(counters) < 0:
            raise ValueError(f"trial must be non-negative, got {min(counters)}")
        states: List[Dict[str, Any]] = [
            np.random.PCG64(self._child(label, c)).state if c > _MASK32 else None
            for c in counters
        ]
        narrow = [i for i, state in enumerate(states) if state is None]
        if not narrow:
            return states
        prefix = _uint32_words(self._root.entropy)
        # With a spawn key, the run entropy is zero-padded to the pool size.
        prefix += [0] * (_POOL_SIZE - len(prefix))
        prefix += _uint32_words(self._root.spawn_key) + [_label_to_int(label)]
        pool, hash_const = _entropy_pool(prefix)
        words = np.array([counters[i] for i in narrow], dtype=np.uint32)
        mixed = []
        for word in pool:
            hashed, hash_const = _hashmix(words, hash_const)
            mixed.append(_mix(word, hashed))
        seed_hi, seed_lo, inc_hi, inc_lo = (w.tolist() for w in _pcg64_words(mixed))
        for i, a, b, c, d in zip(narrow, seed_hi, seed_lo, inc_hi, inc_lo):
            states[i] = _pcg64_state(a << 64 | b, c << 64 | d)
        check = narrow[0]
        if np.random.PCG64(self._child(label, counters[check])).state != states[check]:
            raise RuntimeError(
                "bulk PCG64 seeding disagrees with numpy.random.SeedSequence; "
                f"this NumPy ({np.__version__}) changed its seeding algorithm"
            )
        return states

    def spawn(self, label: str) -> "RngFactory":
        """Return a child factory namespaced under ``label``.

        Useful when a subsystem itself needs several internal streams.
        """
        child = RngFactory.__new__(RngFactory)
        child._seed = self._seed
        child._root = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=(_label_to_int(label),),
        )
        return child


def as_generator(
    rng: Union[None, int, np.random.Generator, RngFactory],
    label: str = "default",
) -> np.random.Generator:
    """Coerce the many ways callers express randomness into a Generator.

    Accepts ``None`` (use :data:`DEFAULT_SEED`), an integer seed, an
    existing :class:`numpy.random.Generator` (returned unchanged), or an
    :class:`RngFactory` (a stream named ``label`` is derived).
    """
    if rng is None:
        return RngFactory(DEFAULT_SEED).generator(label)
    if isinstance(rng, (int, np.integer)):
        return RngFactory(int(rng)).generator(label)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngFactory):
        return rng.generator(label)
    raise TypeError(f"cannot interpret {rng!r} as a random generator")
