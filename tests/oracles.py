"""Independent oracles for the test suite.

Everything here is recomputed from first principles: scalar bit loops,
linear scans, closed-form series, extended-precision arithmetic. Nothing
imports the package's own logic, so agreement is evidence rather than
tautology. Frozen constants carry their derivation next to the value.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# -- frozen kernel checksums ------------------------------------------------
# wrap16(sum_{i=0}^{n-1} (31 i + 7)); the total is the arithmetic series
# 31 n(n-1)/2 + 7n, evaluated in exact integer arithmetic.
LOOP_WRAP = {
    100_000: 21936,
    200_000: 18272,
    400_000: -320,
    4_000_000: -19584,
}

# chain(d) = sum_{k=1}^{d} (13k - 5) = 13 d(d+1)/2 - 5d; a run of S steps in
# chains of depth c contributes (S // c) * chain(c).
RECURSION_WRAP = {
    (10_000, 1000): 3288,
    (20_000, 1000): 6576,
    (40_000, 1000): 13152,
    (32_000, 16_000): -1152,
    (16_000, 16_000): -576,
}

# Sum of all entries of A @ A for A[r][c] = ((r n + c) mod 17) - 8, computed
# with a pure-Python triple loop (see matrix_total below).
MATRIX_WRAP = {4: 336, 8: -231, 64: -1464}

# -- recorded reference timings --------------------------------------------
# Five-attempt wall times (ms) from recorded reference runs of the 100k,
# 200k and 400k loop workloads, with the mean and standard deviation printed
# alongside them in the original report. The suite checks which statistical
# convention reproduces the printed summary values.
REF_TIMES = {
    "loop_100k": (0.175300, 0.364800, 0.348800, 0.186700, 0.211500),
    "loop_200k": (0.350000, 0.617400, 0.483200, 0.367800, 0.422200),
    "loop_400k": (0.732800, 0.925700, 0.791600, 0.956400, 0.842100),
}
REF_PRINTED_MEAN = {
    "loop_100k": 0.25742,
    "loop_200k": 0.44812,
    "loop_400k": 0.84972,
}
REF_PRINTED_STDDEV = {
    "loop_100k": 0.09018,
    "loop_200k": 0.09667,
    "loop_400k": 0.08695,
}


# -- scalar/bitwise oracles -------------------------------------------------


def bits_of(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits: list[int]) -> int:
    out = 0
    for i, b in enumerate(bits):
        out |= b << i
    return out


def liveness_bit(s: int, z: int, p: int) -> int:
    return (s and z) or ((not s) and p)


def liveness_oracle(state: int, zone_mask: int, pending: int, width: int) -> int:
    return from_bits(
        [
            liveness_bit(s, z, p)
            for s, z, p in zip(
                bits_of(state, width), bits_of(zone_mask, width),
                bits_of(pending, width)
            )
        ]
    )


def zone_mask_bit(r: int, g: int, b: int) -> tuple[int, int, int]:
    r2 = (r and not b) or (r and g)
    g2 = (g or r) and not b
    b2 = b and not g
    return int(r2), int(g2), int(b2)


def wrap16_oracle(value: int) -> int:
    """Two's-complement 16-bit wrap via byte serialization."""
    return int.from_bytes((value & 0xFFFF).to_bytes(2, "little"), "little",
                          signed=True)


# -- mapping oracles --------------------------------------------------------


def zone_scan_oracle(index: int, n_red: int, n_green: int, n_blue: int) -> str:
    """Walk the regions one slot at a time; 'R', 'G' or 'B'."""
    cursor = 0
    for letter, count in (("R", n_red), ("G", n_green), ("B", n_blue)):
        for _ in range(count):
            if cursor == index:
                return letter
            cursor += 1
    raise IndexError(index)


def generation_scan_oracle(offset: int, zone_size: int,
                           frac0: float, frac1: float) -> int:
    cut0 = int(frac0 * zone_size)
    cut1 = int(frac1 * zone_size)
    if offset < cut0:
        return 0
    if offset < cut1:
        return 1
    return 2


def check_partition_properties(n: int, ranges) -> None:
    """Structural checks a correct floor split must satisfy: the ranges tile
    [0, n) in order and sizes differ by at most one."""
    assert len(ranges) >= 1
    cursor = 0
    sizes = []
    for lo, hi in ranges:
        assert lo == cursor, f"gap or overlap at {lo}, expected {cursor}"
        assert hi >= lo
        sizes.append(hi - lo)
        cursor = hi
    assert cursor == n, f"ranges cover {cursor} of {n}"
    assert max(sizes) - min(sizes) <= 1, f"unbalanced split {sizes}"


# Hand-evaluated floor splits: partition p of n items in P parts covers
# [floor(p*n/P), floor((p+1)*n/P)).
PARTITION_CASES = {
    (10, 3): ((0, 3), (3, 6), (6, 10)),
    (2, 4): ((0, 0), (0, 1), (1, 1), (1, 2)),
    (7, 2): ((0, 3), (3, 7)),
    (5, 5): ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)),
    (6, 1): ((0, 6),),
    (21, 4): ((0, 5), (5, 10), (10, 15), (15, 21)),
}


# -- statistics oracles -----------------------------------------------------


def exact_mean(values) -> Fraction:
    fracs = [Fraction(v) for v in values]
    return sum(fracs, Fraction(0)) / len(fracs)


def exact_sample_variance(values) -> Fraction:
    fracs = [Fraction(v) for v in values]
    m = sum(fracs, Fraction(0)) / len(fracs)
    return sum((x - m) ** 2 for x in fracs) / (len(fracs) - 1)


# -- kernel oracles ---------------------------------------------------------


def loop_total_oracle(n: int) -> int:
    return 31 * n * (n - 1) // 2 + 7 * n


def chain_total_oracle(depth: int) -> int:
    return 13 * depth * (depth + 1) // 2 - 5 * depth


def matrix_total(n: int) -> int:
    a = [[((r * n + c) % 17) - 8 for c in range(n)] for r in range(n)]
    total = 0
    for r in range(n):
        row = a[r]
        for c in range(n):
            acc = 0
            for k in range(n):
                acc += row[k] * a[k][c]
            total += acc
    return total


def matrix_total_by_sums(n: int) -> int:
    """matrix_total in O(n^2): the entries of A @ A sum to the sum over k of
    (column k sum of A) * (row k sum of A)."""
    col = [0] * n
    row = [0] * n
    for r in range(n):
        for c in range(n):
            entry = ((r * n + c) % 17) - 8
            col[c] += entry
            row[r] += entry
    return sum(col[k] * row[k] for k in range(n))


# -- EMA / rate replay oracle ----------------------------------------------


def ema_chain_oracle(seed, samples, omega) -> Fraction:
    """Recurrence evaluated in exact rational arithmetic."""
    w = Fraction(omega)
    acc = Fraction(seed)
    for s in samples:
        acc = w * Fraction(s) + (1 - w) * acc
    return acc


def rate_replay_oracle(event_times, window: float, omega: float, start: float):
    """Recompute (raw_rate, smoothed) from the full event log.

    Windows close one at a time as events arrive; each completed window
    contributes its count/window as one EMA sample, the first closed window
    seeding the EMA. The raw rate is the open window's count over the window
    length, and the smoothed value falls back to that raw rate until a window
    has closed. Mirrors a tracker that rolls lazily on record, so the state
    corresponds to the moment just after the last event.
    """
    window_start = start
    count = 0
    ema = None
    for t in sorted(event_times):
        while t >= window_start + window:
            sample = count / window
            ema = sample if ema is None else omega * sample + (1 - omega) * ema
            window_start += window
            count = 0
        count += 1
    raw = count / window
    return raw, (ema if ema is not None else raw)


# -- per-object header arena model -------------------------------------------


class Refused(Exception):
    """A request the arena model turns down; kind is "lifecycle" (no live
    object there), "capacity" (zone full) or "time" (event before the last)."""

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        self.kind = kind


class TrackerModel:
    """Windowed event counter that closes windows one at a time, the rule of
    rate_replay_oracle kept incrementally."""

    def __init__(self, window: float, omega: float, start: float) -> None:
        self.window = window
        self.omega = omega
        self.start = start
        self.count = 0
        self.ema = None

    def record(self, now: float) -> None:
        while now >= self.start + self.window:
            sample = self.count / self.window
            self.ema = (sample if self.ema is None
                        else self.omega * sample + (1 - self.omega) * self.ema)
            self.count = 0
            self.start += self.window
        self.count += 1

    def smoothed(self) -> float:
        return self.ema if self.ema is not None else self.count / self.window


class HeaderModel:
    """The record of one object: placement, times, static features and one
    tracker per event kind, the allocation tracker shared by its site."""

    def __init__(self, slot, zone, site_tag, now, size, fan_out, chi,
                 site_tracker, window, omega) -> None:
        self.slot = slot
        self.zone = zone
        self.site_tag = site_tag
        self.allocated_at = now
        self.last_event_at = now
        self.size = size
        self.fan_out = fan_out
        self.complexity_weight = chi
        self.alive = True
        self.trackers = {
            "allocation": site_tracker,
            "mutation": TrackerModel(window, omega, now),
            "access": TrackerModel(window, omega, now),
        }


class ArenaModel:
    """Scalar model of the pooled arena with one header per object.

    Zones are "R", "G", "B", laid out in that order. A request takes the last
    slot its zone's pool got back, else the zone's next fresh slot. Each
    allocation and each release ticks a logical clock of seconds_per_op per
    tick, a refused allocation too. States are 1 (active) for a live slot, a
    promoted value's own code (4 persistent, 5 deferred), and 0 (idle) once
    freed.
    """

    ZONES = ("R", "G", "B")

    def __init__(self, sizes, window: float, omega: float,
                 seconds_per_op: float) -> None:
        self.window = window
        self.omega = omega
        self.seconds_per_op = seconds_per_op
        self.ops = 0
        starts = (0, sizes[0], sizes[0] + sizes[1])
        self.start = dict(zip(self.ZONES, starts))
        self.stop = {z: lo + n for z, lo, n in zip(self.ZONES, starts, sizes)}
        self.fresh = dict(self.start)
        self.pools = {z: [] for z in self.ZONES}
        self.real = {z: 0 for z in self.ZONES}
        self.reused = {z: 0 for z in self.ZONES}
        self.expired = {z: 0 for z in self.ZONES}
        self.headers: dict[int, HeaderModel] = {}
        self.sites: dict[str, TrackerModel] = {}
        self.states = [0] * sum(sizes)

    def now(self) -> float:
        return self.ops * self.seconds_per_op

    def allocate(self, zone, site_tag, size=0.0, fan_out=0.0, chi=0.0) -> int:
        self.ops += 1
        now = self.now()
        if self.pools[zone]:
            slot = self.pools[zone].pop()
            self.reused[zone] += 1
        else:
            slot = self.fresh[zone]
            if slot >= self.stop[zone]:
                raise Refused("capacity")
            self.fresh[zone] += 1
            self.real[zone] += 1
        site = self.sites.get(site_tag)
        if site is None:
            site = self.sites[site_tag] = TrackerModel(self.window, self.omega, now)
        site.record(now)
        self.headers[slot] = HeaderModel(slot, zone, site_tag, now, size, fan_out,
                                         chi, site, self.window, self.omega)
        self.states[slot] = 1
        return slot

    def promote(self, code: int, site_tag, features: dict, classify) -> int:
        """A yield scope's promotion of a value with state code 4
        (persistent) or 5 (deferred): an allocation for the value's size,
        fan-out and complexity weight, in green when persistent, else in the
        zone classify gives its features, with green taken as blue. The
        entry then holds the code, not 1."""
        if code == 0b100:
            zone = "G"
        else:
            zone = classify(features)
            zone = "B" if zone == "G" else zone
        slot = self.allocate(zone, site_tag, features["size"], features["fan_out"],
                             features["complexity_weight"])
        self.states[slot] = code
        return slot

    def live(self, slot: int) -> HeaderModel:
        header = self.headers.get(slot)
        if header is None or not header.alive:
            raise Refused("lifecycle")
        return header

    def release(self, slot: int) -> str:
        header = self.live(slot)
        self.ops += 1
        header.alive = False
        self.states[slot] = 0
        self.pools[header.zone].append(slot)
        return header.zone

    def expire(self, slot: int) -> None:
        self.expired[self.release(slot)] += 1

    def expire_and_reallocate(self, slot: int, zone: str) -> int:
        header = self.live(slot)
        if zone == header.zone:
            return slot
        self.expire(slot)
        return self.allocate(zone, header.site_tag, header.size, header.fan_out,
                             header.complexity_weight)

    def record_event(self, slot: int, kind: str, now: float) -> None:
        header = self.live(slot)
        if now < header.last_event_at:
            raise Refused("time")
        header.trackers[kind].record(now)
        header.last_event_at = now

    def mark(self, slot: int, code: int) -> None:
        self.states[slot] = code

    def reclassify(self, candidates, classify) -> list[tuple[int, int]]:
        """One pause over the candidate slots; classify maps a features dict
        to a zone letter. The pause is a snapshot: every candidate alive when
        it starts is classified first, then the ones whose zone differs move
        in ascending slot order. A slot a move claims is not examined again.
        Returns (old slot, new slot) pairs."""
        targets = [(slot, classify(self.features(slot))) for slot in sorted(candidates)
                   if slot in self.headers and self.headers[slot].alive]
        return [(slot, self.expire_and_reallocate(slot, zone))
                for slot, zone in targets if zone != self.headers[slot].zone]

    # expire_and_reallocate and reclassify above are frozen: a move there
    # expires its object before it finds the target zone full, and so loses
    # it. The two methods below lose nothing.

    def move_lossless(self, slot: int, zone: str) -> int:
        """expire_and_reallocate that refuses a move into a zone with no
        pooled or fresh slot before it expires the object."""
        full = not self.pools[zone] and self.fresh[zone] >= self.stop[zone]
        if zone != self.live(slot).zone and full:
            raise Refused("capacity")
        return self.expire_and_reallocate(slot, zone)

    def reclassify_lossless(self, candidates, classify) -> list[tuple[int, int]]:
        """reclassify with lossless moves: a mover whose target zone is full
        stays where it is, is left out of the pairs, and the rest move."""
        targets = [(slot, classify(self.features(slot))) for slot in sorted(candidates)
                   if slot in self.headers and self.headers[slot].alive]
        moved = []
        for slot, zone in targets:
            if zone != self.headers[slot].zone:
                try:
                    moved.append((slot, self.move_lossless(slot, zone)))
                except Refused:
                    pass
        return moved

    def features(self, slot: int) -> dict:
        h = self.headers[slot]
        return {
            "alloc_rate": h.trackers["allocation"].smoothed(),
            "lifetime": h.last_event_at - h.allocated_at,
            "mutation_rate": h.trackers["mutation"].smoothed(),
            "access_rate": h.trackers["access"].smoothed(),
            "size": h.size,
            "fan_out": h.fan_out,
            "complexity_weight": h.complexity_weight,
        }

    def pool_stats(self, zone: str) -> tuple:
        """(total, real, reused, expired, pool size) of a zone."""
        real, reused = self.real[zone], self.reused[zone]
        return real + reused, real, reused, self.expired[zone], len(self.pools[zone])


# -- the allocation schedules' request loop ---------------------------------


def request_loop_oracle(arena, zones, sites, ends, tags, *, zone_ids, access,
                        record_event) -> None:
    """The schedules' request loop from before ZoneArena.serve, frozen:
    end(allocate(zone, site)) for each request, one call at a time, with
    the end closures the schedules built on the arena.

    Request k allocates in zone_ids[zones[k]] for the site tags[sites[k]].
    End code 0 releases the object and 1 expires it; 2 and 3 first record
    an `access` event at the clock's time, then release or expire; 4 marks
    it expired (0b111), sweeps and expires what the sweep reclaims, which
    must be only its own slot. This is the old path itself, so it drives the
    arena's own methods; the package's record_event and enums are passed in,
    as this module imports nothing of the package.
    """
    clock = arena.clock

    def used(free):
        def end(handle):
            record_event(handle, access, clock.now)
            free(handle)
        return end

    def sweep(handle):
        arena.table.set_state(handle.slot_index, 0b111)
        live = {handle.slot_index: handle}
        for idx in arena.run_sweep().reclaimed:
            arena.expire(live[idx])

    end_of = (arena.release, arena.expire, used(arena.release), used(arena.expire), sweep)
    allocate = arena.allocate
    for zone, site, end in zip(zones.tolist(), sites.tolist(), ends.tolist()):
        end_of[end](allocate(zone_ids[zone], tags[site]))


# -- the allocation schedules' stream builders --------------------------------
# A stream is (zones, ends, tags): an int8 zone ordinal and an int8 end code
# per request, and the site tags of red, green and blue. Zone ordinals are red
# 0, green 1 and blue 2 (ZONE_ORDER); end code 0 releases the object.
STREAM_RED, STREAM_GREEN, STREAM_BLUE = 0, 1, 2


def zone_pressure_oracle(seed: int, size: int) -> tuple:
    """zone_pressure's stream as two mask scatters built it, frozen: each
    draw below 0.9 is blue, and each below 0.7 green over it."""
    u = np.random.default_rng(seed).random(size)
    zones = np.full(size, STREAM_RED, np.int8)
    zones[u < 0.9] = STREAM_BLUE
    zones[u < 0.7] = STREAM_GREEN
    return (zones, np.zeros(size, np.int8),
            ("pressure_red", "pressure_green", "pressure_blue"))


def zone_imbalance_oracle(size: int) -> tuple:
    """zone_imbalance's stream as np.resize built it, frozen: the block of
    90 green, 9 blue and 1 red requests, repeated and cut to size."""
    block = np.repeat(np.array([STREAM_GREEN, STREAM_BLUE, STREAM_RED], np.int8),
                      (90, 9, 1))
    return (np.resize(block, size), np.zeros(size, np.int8),
            ("imbalance_red", "imbalance_green", "imbalance_blue"))
