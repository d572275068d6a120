//! A hierarchical timing wheel: the event queue behind [`World`].
//!
//! The simulator's hot path is `push`/`pop` on the pending-event set.
//! A binary heap is `O(log n)` per operation with poor locality once
//! millions of open-loop arrivals are pending; the wheel makes both
//! operations amortised `O(1)` by bucketing events into 64-slot levels
//! of geometrically increasing span (1, 64, 64², 64³ ticks per slot —
//! a 64⁴ ≈ 16.8M-tick horizon), with one occupancy bitmap per level so
//! advancing the cursor is a couple of `trailing_zeros` scans.
//!
//! **Ordering contract** (what the digest suite locks in): events pop
//! in exactly ascending `(time, seq)` order — identical to the
//! reversed-`Ord` `BinaryHeap` this replaces. Within a tick the
//! insertion sequence number breaks ties; a slot is sorted by `seq`
//! once when it becomes the active tick, and same-tick events pushed
//! *while* that tick drains carry larger sequence numbers than
//! anything pending, so appending keeps the order exact.
//!
//! Placement is by absolute-time alignment, not delta: an event lives
//! at the lowest level whose slot index path matches the cursor's
//! (same 64-tick window → level 0; same 64²-window → level 1; …).
//! Slots therefore never mix windows, scans never wrap, and a slot
//! cascades to finer levels exactly when the cursor enters its span.
//! Events beyond the top-level window sit in a small `(time, seq)`
//! min-heap and re-enter the wheel when it drains up to them.
//!
//! [`World`]: crate::World

use std::collections::{BinaryHeap, VecDeque};

/// log₂(slots per level).
const BITS: usize = 6;
/// Slots per level (one occupancy bit each in a `u64` bitmap).
const SLOTS: usize = 1 << BITS;
/// Number of wheel levels; events further than `64^LEVELS` ticks from
/// the cursor wait in the overflow heap.
const LEVELS: usize = 4;
/// Shift that identifies an event's top-level window.
const WINDOW_SHIFT: usize = BITS * LEVELS;

/// One queued event: its due time, insertion sequence number (the
/// total-order tie-break) and the caller's payload.
#[derive(Debug, Clone)]
pub struct WheelEntry<T> {
    /// Due tick.
    pub time: u64,
    /// Insertion sequence number; unique, monotonically increasing.
    pub seq: u64,
    /// The scheduled payload.
    pub item: T,
}

/// Overflow-heap wrapper: min-heap on `(time, seq)` over std's
/// max-heap, mirroring the reversed `Ord` of the old event heap.
#[derive(Debug)]
struct FarEntry<T>(WheelEntry<T>);

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<T> Eq for FarEntry<T> {}
impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// Hierarchical timing wheel with exact `(time, seq)` pop order.
///
/// ```
/// use repl_sim::TimingWheel;
/// let mut w: TimingWheel<&str> = TimingWheel::new();
/// w.push(10, 0, "b");
/// w.push(5, 1, "a");
/// w.push(10, 2, "c");
/// assert_eq!(w.peek_time(), Some(5));
/// assert_eq!(w.pop().unwrap().item, "a");
/// assert_eq!(w.pop().unwrap().item, "b"); // same tick: seq order
/// assert_eq!(w.pop().unwrap().item, "c");
/// assert!(w.pop().is_none());
/// ```
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// `LEVELS × SLOTS` buckets, flattened (`level * SLOTS + index`).
    slots: Vec<Vec<WheelEntry<T>>>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// Events due beyond the top-level window.
    overflow: BinaryHeap<FarEntry<T>>,
    /// The active tick's events, ascending `seq`.
    current: VecDeque<WheelEntry<T>>,
    /// Tick the `current` buffer belongs to.
    current_time: u64,
    /// Lower bound on every queued time; advances as events pop.
    cursor: u64,
    /// Memoised next-event time (valid only while `current` is empty).
    cached_next: Option<u64>,
    /// Total queued events, `current` included.
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel with its cursor at tick 0.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            current: VecDeque::new(),
            current_time: 0,
            cursor: 0,
            cached_next: None,
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` at `time` with tie-break `seq`.
    ///
    /// `seq` values must be unique and assigned in push order (the
    /// caller's monotonic counter); `time` must not precede the last
    /// popped event's time.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        debug_assert!(
            time >= self.cursor || (!self.current.is_empty() && time >= self.current_time),
            "scheduled into the past: t={time} cursor={}",
            self.cursor
        );
        let e = WheelEntry { time, seq, item };
        if !self.current.is_empty() && time == self.current_time {
            // Same-tick push while that tick drains: seq is larger than
            // every pending seq, so appending preserves sorted order.
            self.current.push_back(e);
        } else {
            self.insert_wheel(e);
        }
        if let Some(n) = self.cached_next {
            if time < n {
                self.cached_next = Some(time);
            }
        }
        self.len += 1;
    }

    /// Pops the earliest event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<WheelEntry<T>> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        self.cached_next = None;
        self.len -= 1;
        self.current.pop_front()
    }

    /// The earliest queued time, without disturbing the queue.
    pub fn peek_time(&mut self) -> Option<u64> {
        if !self.current.is_empty() {
            return Some(self.current_time);
        }
        if self.len == 0 {
            return None;
        }
        if self.cached_next.is_none() {
            self.cached_next = Some(self.scan_next());
        }
        self.cached_next
    }

    /// The level an event at `time` belongs to, relative to the cursor:
    /// the lowest level whose slot-index path matches the cursor's.
    fn level_of(&self, time: u64) -> Option<usize> {
        (0..LEVELS).find(|&lvl| (time >> (BITS * (lvl + 1))) == (self.cursor >> (BITS * (lvl + 1))))
    }

    /// Files an entry into its wheel slot (or the overflow heap).
    fn insert_wheel(&mut self, e: WheelEntry<T>) {
        match self.level_of(e.time) {
            Some(lvl) => {
                let idx = ((e.time >> (BITS * lvl)) & (SLOTS as u64 - 1)) as usize;
                self.slots[lvl * SLOTS + idx].push(e);
                self.occupied[lvl] |= 1 << idx;
            }
            None => self.overflow.push(FarEntry(e)),
        }
    }

    /// Moves the first pending slot's events into `current`, cascading
    /// coarser slots as the cursor crosses their boundaries. Returns
    /// false when the queue is empty.
    fn advance(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            // Level 0: every stored event of this level lies in the
            // cursor's 64-tick window at index ≥ the cursor's offset.
            let off0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
            let m0 = self.occupied[0] & (!0u64 << off0);
            if m0 != 0 {
                let idx = m0.trailing_zeros() as u64;
                self.cursor = (self.cursor & !(SLOTS as u64 - 1)) + idx;
                self.load_slot(idx as usize);
                return true;
            }
            // Climb: cascade the nearest future slot of the lowest
            // non-empty level into finer levels.
            let mut climbed = false;
            for lvl in 1..LEVELS {
                let shift = BITS * lvl;
                let off = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                // Strictly beyond the cursor's own slot: events sharing
                // it live at finer levels by construction.
                let m = if off >= (SLOTS - 1) as u32 {
                    0
                } else {
                    self.occupied[lvl] & (!0u64 << (off + 1))
                };
                if m != 0 {
                    let j = m.trailing_zeros() as usize;
                    let window = BITS * (lvl + 1);
                    self.cursor = ((self.cursor >> window) << window) | ((j as u64) << shift);
                    self.cascade(lvl, j);
                    climbed = true;
                    break;
                }
            }
            if climbed {
                continue;
            }
            // Wheel exhausted: refill from the overflow heap, whose
            // events all lie in later top-level windows.
            if let Some(top) = self.overflow.peek() {
                self.cursor = top.0.time;
                while let Some(far) = self.overflow.peek() {
                    if (far.0.time >> WINDOW_SHIFT) == (self.cursor >> WINDOW_SHIFT) {
                        let FarEntry(e) = self.overflow.pop().expect("peeked");
                        self.insert_wheel(e);
                    } else {
                        break;
                    }
                }
                continue;
            }
            debug_assert!(false, "len={} but no event found", self.len);
            return false;
        }
    }

    /// Loads level-0 slot `idx` (the cursor's tick) into `current`.
    fn load_slot(&mut self, idx: usize) {
        let mut v = std::mem::take(&mut self.slots[idx]);
        self.occupied[0] &= !(1 << idx);
        v.sort_unstable_by_key(|e| e.seq);
        debug_assert!(v.iter().all(|e| e.time == self.cursor));
        self.current.extend(v.drain(..));
        self.slots[idx] = v; // keep the allocation for reuse
        self.current_time = self.cursor;
    }

    /// Redistributes level `lvl` slot `j` into finer levels; the cursor
    /// has just entered the slot's span.
    fn cascade(&mut self, lvl: usize, j: usize) {
        let i = lvl * SLOTS + j;
        let mut v = std::mem::take(&mut self.slots[i]);
        self.occupied[lvl] &= !(1 << j);
        for e in v.drain(..) {
            self.insert_wheel(e);
        }
        self.slots[i] = v;
    }

    /// Non-mutating scan for the earliest queued time. Levels partition
    /// future time into disjoint, ascending ranges (level 0 covers the
    /// rest of the cursor's 64-window, level 1 the rest of its
    /// 64²-window, …, overflow everything past the top window), so the
    /// first non-empty source is authoritative; only within a coarse
    /// slot do we take a min over its (soon-to-cascade) entries.
    fn scan_next(&self) -> u64 {
        let off0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
        let m0 = self.occupied[0] & (!0u64 << off0);
        if m0 != 0 {
            return (self.cursor & !(SLOTS as u64 - 1)) + m0.trailing_zeros() as u64;
        }
        for lvl in 1..LEVELS {
            let shift = BITS * lvl;
            let off = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
            let m = if off >= (SLOTS - 1) as u32 {
                0
            } else {
                self.occupied[lvl] & (!0u64 << (off + 1))
            };
            if m != 0 {
                let j = m.trailing_zeros() as usize;
                return self.slots[lvl * SLOTS + j]
                    .iter()
                    .map(|e| e.time)
                    .min()
                    .expect("occupancy bit set on empty slot");
            }
        }
        self.overflow
            .peek()
            .expect("len > 0 but wheel empty")
            .0
            .time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(100, 0, 'a');
        w.push(50, 1, 'b');
        w.push(100, 2, 'c');
        w.push(50, 3, 'd');
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|e| e.item)).collect();
        assert_eq!(order, vec!['b', 'd', 'a', 'c']);
    }

    #[test]
    fn same_tick_push_during_drain_pops_after_pending() {
        let mut w = TimingWheel::new();
        w.push(10, 0, 0);
        w.push(10, 1, 1);
        assert_eq!(w.pop().unwrap().item, 0);
        // A zero-delay reschedule lands behind the pending same-tick event.
        w.push(10, 2, 2);
        assert_eq!(w.pop().unwrap().item, 1);
        assert_eq!(w.pop().unwrap().item, 2);
        assert!(w.is_empty());
    }

    #[test]
    fn crosses_level_boundaries_in_order() {
        let mut w = TimingWheel::new();
        // One event per level span, pushed out of order.
        let times = [
            64_u64.pow(3) + 3,
            7,
            64 + 1,
            64_u64.pow(2) + 9,
            64_u64.pow(4) + 5,
        ];
        for (s, &t) in times.iter().enumerate() {
            w.push(t, s as u64, t);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop().map(|e| e.item)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn peek_matches_pop_and_does_not_disturb() {
        let mut w = TimingWheel::new();
        for (s, t) in [900_u64, 3, 70, 64 * 64 + 2, 20_000_000]
            .into_iter()
            .enumerate()
        {
            w.push(t, s as u64, ());
        }
        while !w.is_empty() {
            let t = w.peek_time().expect("non-empty");
            assert_eq!(w.peek_time(), Some(t), "peek is stable");
            let e = w.pop().expect("non-empty");
            assert_eq!(e.time, t, "peek agrees with pop");
        }
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn push_below_cached_peek_updates_peek() {
        let mut w = TimingWheel::new();
        w.push(500, 0, ());
        assert_eq!(w.peek_time(), Some(500));
        w.push(200, 1, ());
        assert_eq!(w.peek_time(), Some(200));
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut w = TimingWheel::new();
        let far = 64_u64.pow(4) * 3 + 17;
        w.push(far, 0, "far");
        w.push(far + 1, 1, "farther");
        w.push(2, 2, "near");
        assert_eq!(w.pop().unwrap().item, "near");
        assert_eq!(w.pop().unwrap().item, "far");
        assert_eq!(w.pop().unwrap().item, "farther");
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // Deterministic pseudo-random schedule without an RNG: an LCG.
        let mut w = TimingWheel::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut now = 0u64;
        for seq in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = now + (x >> 33) % 10_000;
            w.push(t, seq, (t, seq));
            reference.push((t, seq));
            if seq % 3 == 0 {
                let e = w.pop().expect("pushed at least one");
                now = e.time;
                reference.sort_unstable();
                let want = reference.remove(0);
                assert_eq!((e.time, e.seq), want);
            }
        }
        reference.sort_unstable();
        for want in reference {
            let e = w.pop().expect("drain");
            assert_eq!((e.time, e.seq), want);
        }
        assert!(w.pop().is_none());
    }
}
