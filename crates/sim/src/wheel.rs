//! A bucketed time wheel for the hierarchy's event queue.
//!
//! The memory system schedules almost every event a small, bounded number
//! of cycles ahead (cache latencies, next-cycle retries), so a ring of
//! per-cycle FIFO buckets gives O(1) push/pop where the `BinaryHeap` it
//! replaces paid an O(log n) sift on every event — the single hottest
//! operation in the whole simulator under a profiler. Events beyond the
//! wheel horizon (rare: long TLB walks or deeply backed-up DRAM) fall
//! back to a small heap.
//!
//! Requests blocked on a full MSHR file or an exhausted port do not sit
//! here one entry each: the hierarchy coalesces consecutive blocked
//! requests with the same retry key into one *retry run* entry, using
//! [`EventWheel::tail`] to find the run it may extend. The wheel itself
//! only stores `(id, kind)` pairs and knows nothing about runs.
//!
//! # Ordering
//!
//! Drain order is bit-identical to the heap it replaced, which ordered
//! events by `(cycle, sequence)`:
//!
//! - buckets preserve insertion order per cycle, and insertion order *is*
//!   sequence order;
//! - an overflow entry due at cycle `t` was pushed while the wheel's
//!   drain point was at least [`WHEEL_SLOTS`] cycles before `t`, i.e.
//!   strictly earlier than every bucket entry for `t` (which is pushed
//!   within the horizon), so draining overflow first per cycle
//!   reproduces the global sequence order exactly.

use secpref_types::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Wheel horizon in cycles (power of two). Events scheduled further out
/// than this land in the overflow heap.
pub(crate) const WHEEL_SLOTS: usize = 2048;
const MASK: usize = WHEEL_SLOTS - 1;
/// Words in the slot-occupancy bitmap (one bit per wheel slot).
const WORDS: usize = WHEEL_SLOTS / 64;

/// FIFO-per-cycle event queue with an overflow heap for the far future.
///
/// Entries are `(rid, kind)` pairs — a request id and an event tag —
/// matching what [`crate::hierarchy::Hierarchy`] schedules.
#[derive(Debug)]
pub(crate) struct EventWheel {
    buckets: Vec<Vec<(u32, u8)>>,
    /// Events scheduled for an already-drained cycle. The hierarchy
    /// drains its events at the *start* of each system cycle; the core,
    /// store, and commit paths then schedule follow-up events at that
    /// same (now past) cycle. They all share one cycle, strictly before
    /// every pending bucket/overflow cycle, so a FIFO drained first
    /// reproduces `(cycle, sequence)` order exactly.
    late: VecDeque<(u32, u8)>,
    /// One bit per slot, set while that slot's bucket is non-empty.
    /// Lets [`EventWheel::pop_due`] jump over idle spans and
    /// [`EventWheel::next_due`] answer "when is the next event?" without
    /// walking empty buckets cycle by cycle.
    occupied: [u64; WORDS],
    overflow: BinaryHeap<Reverse<(Cycle, u64, u32, u8)>>,
    /// Sequence counter ordering overflow entries pushed for the same
    /// due cycle.
    seq: u64,
    /// First cycle not yet fully drained; the bucket at `next` may be
    /// partially consumed up to `cursor`.
    next: Cycle,
    cursor: usize,
    len: usize,
}

impl EventWheel {
    pub fn new() -> Self {
        EventWheel {
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            late: VecDeque::new(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            seq: 0,
            next: 0,
            cursor: 0,
            len: 0,
        }
    }

    /// Number of queued (not yet popped) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Queues `(rid, kind)` to fire at cycle `at`.
    #[inline]
    pub fn push(&mut self, at: Cycle, rid: u32, kind: u8) {
        self.len += 1;
        if at < self.next {
            self.late.push_back((rid, kind));
        } else if at - self.next < WHEEL_SLOTS as Cycle {
            let slot = at as usize & MASK;
            self.buckets[slot].push((rid, kind));
            self.occupied[slot >> 6] |= 1 << (slot & 63);
        } else {
            self.seq += 1;
            self.overflow.push(Reverse((at, self.seq, rid, kind)));
        }
    }

    /// The most recent entry pushed for cycle `at`, while `at` is a
    /// future cycle inside the wheel horizon; `None` otherwise (the
    /// cycle being drained, late and overflow cycles, or an empty
    /// bucket). A `Some` entry has not been popped, and nothing was
    /// pushed for `at` after it, so whatever it stands for may be
    /// extended in place without changing drain order.
    #[inline]
    pub fn tail(&self, at: Cycle) -> Option<(u32, u8)> {
        if at <= self.next || at - self.next >= WHEEL_SLOTS as Cycle {
            return None;
        }
        self.buckets[at as usize & MASK].last().copied()
    }

    /// The first occupied slot's cycle at or after `from`, scanning the
    /// bitmap word-wise around the ring (`None` when all buckets are
    /// empty). Every occupied slot maps to a unique cycle in
    /// `[from, from + WHEEL_SLOTS)` because drained buckets are cleared
    /// before `next` passes them.
    fn next_occupied_cycle(&self, from: Cycle) -> Option<Cycle> {
        let start = from as usize & MASK;
        for k in 0..=WORDS {
            let wi = ((start >> 6) + k) % WORDS;
            let mut bits = self.occupied[wi];
            if k == 0 {
                bits &= !0u64 << (start & 63);
            } else if k == WORDS {
                // Wrap-around remainder of the starting word.
                bits &= !(!0u64 << (start & 63));
            }
            if bits != 0 {
                let slot = (wi << 6) | bits.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - start) & MASK;
                return Some(from + dist as Cycle);
            }
        }
        None
    }

    /// Earliest cycle strictly after `now` that has queued work, or
    /// `None` when the wheel is empty. `late` entries (scheduled behind
    /// the drain point) fire on the next drain, i.e. at `now + 1`.
    pub fn next_due(&self, now: Cycle) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        if !self.late.is_empty() {
            return Some(now + 1);
        }
        let mut due = self
            .next_occupied_cycle(self.next.max(now + 1))
            .unwrap_or(Cycle::MAX);
        if let Some(&Reverse((at, ..))) = self.overflow.peek() {
            due = due.min(at);
        }
        Some(due.max(now + 1))
    }

    /// Pops the next event due at or before `now`, in `(cycle, push
    /// order)` order, or `None` when nothing is due. Events pushed for
    /// the cycle currently being drained are seen in the same drain.
    #[inline]
    pub fn pop_due(&mut self, now: Cycle) -> Option<(u32, u8)> {
        if let Some(e) = self.late.pop_front() {
            self.len -= 1;
            return Some(e);
        }
        while self.next <= now {
            let t = self.next;
            if let Some(&Reverse((at, _, rid, kind))) = self.overflow.peek() {
                if at <= t {
                    self.overflow.pop();
                    self.len -= 1;
                    return Some((rid, kind));
                }
            }
            let slot = t as usize & MASK;
            let bucket = &mut self.buckets[slot];
            if self.cursor < bucket.len() {
                let (rid, kind) = bucket[self.cursor];
                self.cursor += 1;
                self.len -= 1;
                return Some((rid, kind));
            }
            if !bucket.is_empty() {
                // Fully consumed: clear so a future cycle aliasing this
                // slot does not replay the entries.
                bucket.clear();
                self.occupied[slot >> 6] &= !(1 << (slot & 63));
            }
            self.cursor = 0;
            if self.len == 0 {
                self.next = now + 1;
                return None;
            }
            // Jump straight to the next cycle that can hold work instead
            // of walking empty buckets one at a time. `next` must never
            // pass `now + 1`: a push at a later cycle would otherwise be
            // misfiled as `late` and fire too early.
            let mut jump = self.next_occupied_cycle(t + 1).unwrap_or(Cycle::MAX);
            if let Some(&Reverse((at, ..))) = self.overflow.peek() {
                jump = jump.min(at);
            }
            self.next = jump.min(now + 1);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut EventWheel, now: Cycle) -> Vec<(u32, u8)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop_due(now) {
            out.push(e);
        }
        out
    }

    #[test]
    fn fifo_within_a_cycle() {
        let mut w = EventWheel::new();
        w.push(5, 1, 0);
        w.push(5, 2, 1);
        w.push(5, 3, 0);
        assert_eq!(drain(&mut w, 4), vec![]);
        assert_eq!(drain(&mut w, 5), vec![(1, 0), (2, 1), (3, 0)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn cycle_major_order() {
        let mut w = EventWheel::new();
        w.push(7, 1, 0);
        w.push(3, 2, 0);
        w.push(7, 3, 0);
        w.push(3, 4, 0);
        assert_eq!(drain(&mut w, 10), vec![(2, 0), (4, 0), (1, 0), (3, 0)]);
    }

    #[test]
    fn overflow_precedes_bucket_entries_for_same_cycle() {
        let mut w = EventWheel::new();
        let far = WHEEL_SLOTS as Cycle + 100;
        w.push(far, 1, 0); // beyond horizon: overflow

        // Advance the wheel so `far` is now within the horizon.
        assert_eq!(drain(&mut w, 200), vec![]);
        w.push(far, 2, 0); // lands in a bucket
        let got = drain(&mut w, far);
        // The overflow entry was pushed first, so it drains first.
        assert_eq!(got, vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn same_cycle_push_during_drain_is_seen() {
        let mut w = EventWheel::new();
        w.push(4, 1, 0);
        assert_eq!(w.pop_due(4), Some((1, 0)));
        w.push(4, 2, 0); // handler re-schedules for the current cycle
        assert_eq!(w.pop_due(4), Some((2, 0)));
        assert_eq!(w.pop_due(4), None);
    }

    #[test]
    fn slot_aliasing_does_not_replay_consumed_events() {
        let mut w = EventWheel::new();
        w.push(1, 1, 0);
        assert_eq!(drain(&mut w, 1), vec![(1, 0)]);
        // A full horizon later, the same slot is reused.
        let aliased = 1 + WHEEL_SLOTS as Cycle;
        w.push(aliased, 2, 0);
        assert_eq!(drain(&mut w, aliased), vec![(2, 0)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut w = EventWheel::new();
        for i in 0..10 {
            w.push(i, i as u32, 0);
        }
        assert_eq!(w.len(), 10);
        assert_eq!(drain(&mut w, 3).len(), 4);
        assert_eq!(w.len(), 6);
        assert_eq!(drain(&mut w, 100).len(), 6);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn late_events_drain_first_in_push_order() {
        let mut w = EventWheel::new();
        w.push(10, 1, 0);
        assert_eq!(drain(&mut w, 5), vec![]); // next advances past 5

        // Scheduled "behind" the drain point (the post-drain core phase).
        w.push(5, 2, 0);
        w.push(5, 3, 0);
        w.push(6, 4, 0); // normal bucket entry for cycle 6
        assert_eq!(drain(&mut w, 6), vec![(2, 0), (3, 0), (4, 0)]);
        assert_eq!(drain(&mut w, 10), vec![(1, 0)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn tail_is_last_push_for_a_future_cycle() {
        let mut w = EventWheel::new();
        assert_eq!(w.tail(3), None, "empty bucket");
        w.push(3, 1, 0);
        w.push(3, 2, 1);
        w.push(4, 9, 0);
        assert_eq!(w.tail(3), Some((2, 1)));
        assert_eq!(w.tail(4), Some((9, 0)));
        // Outside the horizon: the entry went to the overflow heap.
        let far = WHEEL_SLOTS as Cycle + 10;
        w.push(far, 5, 0);
        assert_eq!(w.tail(far), None);
    }

    #[test]
    fn tail_is_none_for_the_cycle_being_drained() {
        let mut w = EventWheel::new();
        w.push(5, 1, 0);
        w.push(5, 2, 0);
        assert_eq!(w.pop_due(5), Some((1, 0)));
        assert_eq!(w.pop_due(5), Some((2, 0)));
        // Both popped, bucket not yet cleared: its tail is stale.
        assert_eq!(w.tail(5), None);
        w.push(6, 3, 0);
        assert_eq!(w.tail(6), Some((3, 0)), "next cycle is still future");
        assert_eq!(w.pop_due(5), None);
        // Drain point now sits at 6; behind it is late territory.
        assert_eq!(w.tail(6), None);
        assert_eq!(w.tail(4), None);
    }

    #[test]
    fn tail_returns_no_stale_entry_after_slot_aliasing() {
        let mut w = EventWheel::new();
        w.push(1, 1, 0);
        let aliased = 1 + WHEEL_SLOTS as Cycle;
        assert_eq!(w.pop_due(1), Some((1, 0)));
        // Popped but not yet cleared: the slot still holds it.
        assert_eq!(w.tail(aliased), None);
        assert_eq!(w.pop_due(1), None);
        // Cleared, and `aliased` is now inside the horizon.
        assert_eq!(w.tail(aliased), None);
        assert_eq!(drain(&mut w, 10), vec![]);
        assert_eq!(w.tail(aliased), None, "consumed entry must not resurface");
        w.push(aliased, 2, 0);
        assert_eq!(w.tail(aliased), Some((2, 0)));
    }

    #[test]
    fn long_idle_gap_skips_cheaply() {
        let mut w = EventWheel::new();
        assert_eq!(w.pop_due(1_000_000), None);
        w.push(1_000_001, 9, 1);
        assert_eq!(w.pop_due(1_000_001), Some((9, 1)));
    }
}
