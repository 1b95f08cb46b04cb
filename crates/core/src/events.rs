//! The simulator's event calendar.
//!
//! The inner loop executes slot-steps in strictly increasing
//! `(time, slot-id)` order — the order a `BinaryHeap<Reverse<(u64, u32)>>`
//! would pop them — and every slot has at most one pending event.
//! [`SlotCalendar`] exploits both facts: a ring of per-cycle buckets holds
//! the near future (R. Brown's calendar queue, CACM 1988), a small
//! overflow heap (the *far heap*) holds the rest, and a bucket is a
//! bitmask over slot ids rather than a list. The lockstep tests below pin
//! its pop order to a plain binary heap.
//!
//! How far ahead a step schedules its slot's next event depends on where
//! its memory accesses are served. When the graph fits on chip, gaps are
//! on-chip latencies, port queueing and the 32-cycle idle retry: on
//! `mine-mc` (R-MAT(13) × 3-MC, 8 PUs × 16 slots) 99.3% of pushes land
//! under 128 cycles ahead. When it does not, a third of the accesses go
//! to DRAM and 128 slots queue on its four channels: on `mine-cf-spill`
//! (BA(10000,5) × 4-CF at a 10% on-chip budget) 87% of pushes land
//! 256–4,095 cycles ahead. The near window is therefore sized to cover
//! DRAM-bound steps, not just on-chip ones: it is the largest power of
//! two up to [`MAX_WINDOW`] cycles whose bucket masks fit
//! [`MASK_BUDGET_BYTES`], and never below [`MIN_WINDOW`] (so a huge slot
//! count allocates no more than a 256-cycle ring). At the default 128
//! slots that is 4,096 cycles. Rarer, longer gaps still go through the
//! far heap and migrate into buckets as time advances.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Shortest near window in cycles, whatever the slot count.
const MIN_WINDOW: u64 = 256;
/// Longest near window in cycles; DRAM-queued steps at 128 slots land
/// under it.
const MAX_WINDOW: u64 = 4096;
/// Byte budget for the bucket masks, which picks the window between
/// [`MIN_WINDOW`] and [`MAX_WINDOW`].
const MASK_BUDGET_BYTES: usize = 64 << 10;

/// Near-window length in cycles for buckets of `words` mask words: the
/// largest power of two up to [`MAX_WINDOW`] whose masks fit
/// [`MASK_BUDGET_BYTES`], and never below [`MIN_WINDOW`].
fn window_cycles(words: usize) -> u64 {
    let fit = (MASK_BUDGET_BYTES / (words * 8)) as u64;
    if fit < MIN_WINDOW {
        MIN_WINDOW
    } else {
        (1u64 << fit.ilog2()).min(MAX_WINDOW)
    }
}

/// Slot-indexed calendar: a ring of per-cycle *bitmask* buckets.
///
/// The simulator guarantees every slot has **at most one pending event**
/// (a slot's event is popped before its next one is pushed), so a bucket
/// never needs ordering or storage beyond one bit per slot: draining a
/// bucket is a word scan with `trailing_zeros`, which yields ids in
/// ascending order — exactly the heap's tie-break — for free. With the
/// evaluated 128 slots the near window is 4,096 buckets × 2 words
/// (64 KiB), of which the engine touches a sliding few cache lines at a
/// time.
///
/// The engine talks to this structure cycle-at-a-time:
/// [`SlotCalendar::advance`] moves to the earliest pending cycle (one
/// *epoch*), [`SlotCalendar::take_at_cur`] drains that cycle's slots in
/// id order, and [`SlotCalendar::peek_time`] exposes the conservative
/// horizon for the solo-run fast path.
///
/// Invariants:
/// * `cur` is the current cycle; every event with `time < cur` has been
///   taken.
/// * every pending event with `time < cur + window` is a set bit in
///   bucket `time % window`; later events sit in `far`.
#[derive(Debug)]
pub(crate) struct SlotCalendar {
    cur: u64,
    /// Near-window length in cycles (a power of two; see
    /// [`window_cycles`]).
    window: u64,
    /// Words per bucket: `ceil(num_slots / 64)`.
    words: usize,
    /// `window` buckets × `words` mask words; bit `id & 63` of word
    /// `bucket * words + (id >> 6)` is set iff slot `id` has a pending
    /// event at the bucket's time.
    masks: Vec<u64>,
    /// Occupancy bitset over buckets (bit `b` set iff bucket `b` has a
    /// pending slot): advancing time is a word-level bit scan instead of
    /// a walk over up to `window` buckets.
    occ: Vec<u64>,
    far: BinaryHeap<Reverse<(u64, u32)>>,
    /// Events pushed past the near window into `far` so far.
    far_pushes: u64,
    len: usize,
}

impl SlotCalendar {
    /// A calendar for slot ids `0..num_slots`.
    pub(crate) fn new(num_slots: usize) -> Self {
        let words = num_slots.div_ceil(64).max(1);
        let window = window_cycles(words);
        SlotCalendar {
            cur: 0,
            window,
            words,
            masks: vec![0; window as usize * words],
            occ: vec![0; window as usize / 64],
            far: BinaryHeap::new(),
            far_pushes: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    pub(crate) fn event_count(&self) -> usize {
        self.len
    }

    /// Number of pushes that landed past the near window, in the far
    /// heap. A host-side cost gauge: it counts how often the window was
    /// too short and never changes the pop order.
    pub(crate) fn far_pushes(&self) -> u64 {
        self.far_pushes
    }

    #[inline]
    fn bucket_of(&self, time: u64) -> usize {
        (time & (self.window - 1)) as usize
    }

    #[inline]
    fn occ_set(&mut self, b: usize) {
        self.occ[b >> 6] |= 1 << (b & 63);
    }

    #[inline]
    fn occ_clear(&mut self, b: usize) {
        self.occ[b >> 6] &= !(1 << (b & 63));
    }

    #[inline]
    fn occ_test(&self, b: usize) -> bool {
        self.occ[b >> 6] & (1 << (b & 63)) != 0
    }

    /// Enqueues slot `id`'s next event. `time` must not precede the
    /// current cycle, and the slot must not already have a pending event
    /// at `time` (the simulator's one-pending-event-per-slot invariant).
    #[inline]
    pub(crate) fn push(&mut self, time: u64, id: u32) {
        debug_assert!(
            time >= self.cur,
            "event time flowed backwards: {time} < {}",
            self.cur
        );
        debug_assert!((id as usize) < self.words * 64, "slot id out of range");
        self.len += 1;
        if time < self.cur + self.window {
            let b = self.bucket_of(time);
            let w = b * self.words + (id as usize >> 6);
            debug_assert!(
                self.masks[w] & (1 << (id & 63)) == 0,
                "slot {id} already pending at time {time}"
            );
            self.masks[w] |= 1 << (id & 63);
            self.occ_set(b);
        } else {
            self.far_pushes += 1;
            self.far.push(Reverse((time, id)));
        }
    }

    /// Moves far-heap events now inside the near window into buckets.
    fn refill_near(&mut self) {
        let end = self.cur + self.window;
        while let Some(&Reverse((t, _))) = self.far.peek() {
            if t >= end {
                break;
            }
            let Some(Reverse((t, id))) = self.far.pop() else {
                break;
            };
            let b = self.bucket_of(t);
            self.masks[b * self.words + (id as usize >> 6)] |= 1 << (id & 63);
            self.occ_set(b);
        }
    }

    /// Earliest non-empty bucket time in `(cur, cur + window)`, if any.
    ///
    /// A bucket position is `time & (window - 1)`, so within the window
    /// each set occupancy bit maps back to a unique time; the scan starts
    /// at `cur + 1`'s position and wraps. Callers ensure `cur`'s own
    /// bucket is empty, so revisiting its word on the wrapped pass cannot
    /// produce a false hit.
    fn next_near(&self) -> Option<u64> {
        let span = self.window as usize;
        let base = self.bucket_of(self.cur + 1);
        let mut idx = base >> 6;
        let mut w = self.occ[idx] & (!0u64 << (base & 63));
        for _ in 0..=self.occ.len() {
            if w != 0 {
                let pos = (idx << 6) | w.trailing_zeros() as usize;
                let off = (pos + span - base) & (span - 1);
                return Some(self.cur + 1 + off as u64);
            }
            idx += 1;
            if idx == self.occ.len() {
                idx = 0;
            }
            w = self.occ[idx];
        }
        None
    }

    /// Advances to the earliest cycle with pending work and returns its
    /// time, or `None` when the calendar is empty. The returned cycle is
    /// the next *epoch*: drain it with [`SlotCalendar::take_at_cur`].
    /// Idempotent while the current cycle still has pending slots.
    pub(crate) fn advance(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.occ_test(self.bucket_of(self.cur)) {
            return Some(self.cur);
        }
        let far_min = self.far.peek().map(|&Reverse((t, _))| t);
        let next = match (self.next_near(), far_min) {
            (Some(tn), Some(tf)) => tn.min(tf),
            (Some(tn), None) => tn,
            (None, Some(tf)) => tf,
            // len > 0 guarantees a pending event somewhere.
            (None, None) => unreachable!("non-empty calendar with no event"),
        };
        // The jump keeps every surviving bucket valid: pending near times
        // lie in (old cur, old cur + window) ⊆ [next, next + window).
        self.cur = next;
        self.refill_near();
        Some(next)
    }

    /// Takes the smallest-id slot pending at the current cycle, or `None`
    /// once the cycle is drained. Scanning restarts at word 0 each call,
    /// so a same-cycle re-push (only ever the just-taken id, necessarily
    /// smaller than every id still pending) pops again before larger ids
    /// — the heap's exact tie order.
    #[inline]
    pub(crate) fn take_at_cur(&mut self) -> Option<u32> {
        let b = self.bucket_of(self.cur);
        if !self.occ_test(b) {
            return None;
        }
        let base = b * self.words;
        for w in 0..self.words {
            let m = self.masks[base + w];
            if m != 0 {
                let bit = m.trailing_zeros();
                self.masks[base + w] = m & (m - 1);
                self.len -= 1;
                if self.masks[base..base + self.words].iter().all(|&x| x == 0) {
                    self.occ_clear(b);
                }
                return Some(((w as u32) << 6) | bit);
            }
        }
        // occ bit set implies a non-zero mask word.
        unreachable!("occupied bucket with empty masks")
    }

    /// Time of the earliest pending event anywhere (current bucket, a
    /// later bucket, or the far heap), or `u64::MAX` when empty. This is
    /// the engine's *conservative horizon*: a slot whose next event is
    /// strictly earlier than every other pending event can keep running
    /// solo without touching the calendar.
    #[inline]
    pub(crate) fn peek_time(&self) -> u64 {
        if self.len == 0 {
            return u64::MAX;
        }
        if self.occ_test(self.bucket_of(self.cur)) {
            return self.cur;
        }
        let far_min = self.far.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
        self.next_near().map_or(far_min, |tn| tn.min(far_min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splitmix-style deterministic pseudo-random stream.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// One heap-style pop: advance to the next epoch and take its
    /// smallest slot.
    fn pop(cal: &mut SlotCalendar) -> Option<(u64, u32)> {
        let t = cal.advance()?;
        Some((t, cal.take_at_cur().expect("advanced to an empty cycle")))
    }

    /// A simulator-like delay when the graph fits on chip: mostly zero
    /// or near-future, occasionally the 32-cycle idle retry, a DRAM
    /// round trip, or a far spill past the near window.
    fn onchip_delay(r: &mut dyn FnMut() -> u64, window: u64) -> u64 {
        match r() % 10 {
            0..=3 => 0,
            4..=6 => 1 + r() % 48,
            7 => 32,
            8 => 40,
            _ => {
                if r().is_multiple_of(16) {
                    window + r() % 2000
                } else {
                    r() % 8
                }
            }
        }
    }

    /// A delay drawn from the push-gap histogram measured on
    /// mine-cf-spill (DRAM-queued steps at 128 slots), where 87% of
    /// pushes land 256–4,095 cycles ahead and 13% under 256. None went
    /// further there; the 3% drawn past the window keeps the far heap
    /// exercised for every slot count.
    fn spill_delay(r: &mut dyn FnMut() -> u64, window: u64) -> u64 {
        match r() % 100 {
            0..=9 => r() % 256,
            10..=96 => 256 + r() % 3840,
            _ => window + r() % 12_000,
        }
    }

    /// Lockstep harness mimicking real simulator traffic, where every
    /// slot id holds at most one pending event: seed one event per slot,
    /// then repeatedly pop from the calendar and a plain binary heap and
    /// re-push the popped id at a `delay` drawn for the calendar's
    /// window, retiring slots now and then, asserting identical pop
    /// sequences. Returns the calendar's far-heap push count.
    fn lockstep_slot_traffic(
        seed: u64,
        num_slots: usize,
        ops: usize,
        delay: fn(&mut dyn FnMut() -> u64, u64) -> u64,
    ) -> u64 {
        let mut r = rng(seed);
        let mut heap = BinaryHeap::new();
        let mut cal = SlotCalendar::new(num_slots);
        for id in 0..num_slots as u32 {
            heap.push(Reverse((0, id)));
            cal.push(0, id);
        }
        let mut processed = 0usize;
        while processed < ops {
            let a = heap.pop().map(|Reverse(e)| e);
            let b = pop(&mut cal);
            assert_eq!(a, b);
            assert_eq!(heap.len(), cal.event_count());
            let Some((t, id)) = a else { break };
            processed += 1;
            if r().is_multiple_of(97) {
                continue; // slot retires (Done)
            }
            let dt = delay(&mut r, cal.window);
            heap.push(Reverse((t + dt, id)));
            cal.push(t + dt, id);
        }
        cal.far_pushes()
    }

    #[test]
    fn slot_calendar_matches_heap_on_slot_traffic() {
        for seed in 0..8 {
            lockstep_slot_traffic(30 + seed, 128, 20_000, onchip_delay);
        }
    }

    #[test]
    fn slot_calendar_degenerate_and_wide_slot_counts() {
        lockstep_slot_traffic(99, 1, 2_000, onchip_delay);
        lockstep_slot_traffic(100, 64, 10_000, onchip_delay);
        lockstep_slot_traffic(101, 65, 10_000, onchip_delay);
        lockstep_slot_traffic(102, 300, 20_000, onchip_delay);
    }

    #[test]
    fn slot_calendar_matches_heap_on_spill_gaps() {
        for slots in [1, 64, 65, 128, 300] {
            // Eight seeds each: a lone slot retires after ~97 steps, so a
            // single seed may never draw a far gap.
            let far: u64 = (0..8)
                .map(|seed| lockstep_slot_traffic(200 + seed, slots, 20_000, spill_delay))
                .sum();
            // The mix must reach the far heap, or it pins nothing there.
            assert!(far > 0, "{slots} slots: no far-heap traffic");
        }
    }

    #[test]
    fn window_follows_the_slot_count() {
        // 4,096 cycles up to the default 128 slots, then halving as the
        // masks grow, never below 256.
        for (slots, window) in [
            (1, 4096),
            (64, 4096),
            (128, 4096),
            (129, 2048),
            (300, 1024),
            (2048, 256),
            (100_000, 256),
        ] {
            let c = SlotCalendar::new(slots);
            assert_eq!(c.window, window, "{slots} slots");
            // The masks never exceed max(64 KiB, a 256-cycle ring).
            let bytes = c.masks.len() * 8;
            assert!(bytes <= (64 << 10).max(256 * slots.div_ceil(64) * 8));
        }
    }

    #[test]
    fn gap_inside_the_window_never_reaches_the_far_heap() {
        let mut c = SlotCalendar::new(128);
        c.push(0, 0);
        assert_eq!(c.advance(), Some(0));
        assert_eq!(c.take_at_cur(), Some(0));
        // The longest in-window gap is a bucket push, as are DRAM-queued
        // gaps in 256..4096.
        c.push(c.window - 1, 7);
        c.push(256, 8);
        c.push(4095, 9);
        assert_eq!(c.far_pushes(), 0);
        assert_eq!(c.peek_time(), 256);
        // One cycle further is the far heap's.
        c.push(c.window, 10);
        assert_eq!(c.far_pushes(), 1);
        assert_eq!(pop(&mut c), Some((256, 8)));
        assert_eq!(pop(&mut c), Some((4095, 7)));
        assert_eq!(c.take_at_cur(), Some(9));
        assert_eq!(pop(&mut c), Some((4096, 10)));
        assert_eq!(c.advance(), None);
    }

    #[test]
    fn slot_calendar_epoch_api_basics() {
        let mut c = SlotCalendar::new(128);
        assert_eq!(c.advance(), None);
        assert_eq!(c.peek_time(), u64::MAX);
        c.push(5, 70);
        c.push(5, 3);
        c.push(9, 1);
        assert_eq!(c.peek_time(), 5);
        assert_eq!(c.advance(), Some(5));
        // Draining yields ascending ids across mask words.
        assert_eq!(c.take_at_cur(), Some(3));
        // The horizon sees the still-pending (5, 70), not the taken slot.
        assert_eq!(c.peek_time(), 5);
        // A same-cycle re-push of the taken id pops again before id 70,
        // exactly as the heap orders the tie.
        c.push(5, 3);
        assert_eq!(c.take_at_cur(), Some(3));
        assert_eq!(c.take_at_cur(), Some(70));
        assert_eq!(c.take_at_cur(), None);
        assert_eq!(c.peek_time(), 9);
        assert_eq!(c.advance(), Some(9));
        assert_eq!(c.take_at_cur(), Some(1));
        assert_eq!(c.take_at_cur(), None);
        assert_eq!(c.advance(), None);
    }

    #[test]
    fn slot_calendar_far_events_migrate() {
        let mut c = SlotCalendar::new(8);
        let w = c.window;
        c.push(0, 2);
        let far = 10 * w + 17;
        c.push(far, 5);
        assert_eq!(c.advance(), Some(0));
        assert_eq!(c.take_at_cur(), Some(2));
        assert_eq!(c.take_at_cur(), None);
        assert_eq!(c.peek_time(), far);
        assert_eq!(c.advance(), Some(far));
        assert_eq!(c.take_at_cur(), Some(5));
        assert_eq!(c.event_count(), 0);
        assert_eq!(c.advance(), None);

        // Far events out of order in time and id, with a tie, migrate
        // back in `(time, id)` order.
        let mut c = SlotCalendar::new(128);
        c.push(3 * w + 5, 9);
        c.push(w + 1, 100);
        c.push(3 * w + 5, 2);
        c.push(2 * w, 64);
        c.push(17, 3);
        assert_eq!(c.far_pushes(), 4);
        assert_eq!(pop(&mut c), Some((17, 3)));
        assert_eq!(pop(&mut c), Some((w + 1, 100)));
        // A push made after the jump lands relative to the new cycle.
        c.push(w + 2, 100);
        assert_eq!(c.far_pushes(), 4);
        assert_eq!(pop(&mut c), Some((w + 2, 100)));
        assert_eq!(pop(&mut c), Some((2 * w, 64)));
        assert_eq!(pop(&mut c), Some((3 * w + 5, 2)));
        assert_eq!(c.take_at_cur(), Some(9));
        assert_eq!(c.event_count(), 0);
        assert_eq!(c.advance(), None);
    }
}
