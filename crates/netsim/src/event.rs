//! The event scheduler.
//!
//! A 4-ary min-heap of `(time, sequence)` keyed events. The monotonically
//! increasing sequence number breaks ties deterministically: two events
//! scheduled for the same instant fire in the order they were scheduled,
//! which keeps whole-simulation replays bit-identical for a given seed.

use crate::arena::PacketRef;
use crate::ids::{Addr, AgentId, LinkId, NodeId};
use crate::time::SimTime;
use mafic_obs::{SnapError, SnapReader, SnapWriter};
use std::hint::select_unpredictable;

/// Control-plane message delivered to a node's filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterControl {
    /// Activate defense dropping for traffic destined to `victim`.
    PushbackStart {
        /// Address of the victim host under attack.
        victim: crate::ids::Addr,
    },
    /// Deactivate defense dropping and flush all tables.
    PushbackStop,
}

/// What happens when an event fires.
///
/// Packet payloads live in the simulator's packet arena; events carry
/// only 4-byte [`PacketRef`] handles, so heap entries stay small, `Copy`,
/// and sift operations never memcpy packet bodies.
#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    /// A locally injected packet arrives at `node` (link deliveries ride
    /// [`EventKind::LinkDeliver`], so no arriving-link field is needed).
    DeliverToNode {
        /// Receiving node.
        node: NodeId,
        /// Arena handle of the packet.
        packet: PacketRef,
    },
    /// Drain the link's delivery FIFO: every queued packet whose
    /// propagation completes at or before this instant arrives at the
    /// link's far end in one pass.
    LinkDeliver {
        /// The delivering link.
        link: LinkId,
    },
    /// Wake an agent's timer.
    AgentWake {
        /// The agent to wake.
        agent: AgentId,
        /// Caller-chosen token identifying which timer fired.
        token: u64,
    },
    /// Start an agent (first activation).
    AgentStart {
        /// The agent to start.
        agent: AgentId,
    },
    /// Wake a packet filter's timer.
    FilterTimer {
        /// Node hosting the filter.
        node: NodeId,
        /// Index of the filter within the node's filter chain. Narrowed
        /// to `u32` so the variant — and with it the whole enum — stays
        /// within 16 payload bytes.
        filter_index: u32,
        /// Caller-chosen token.
        token: u64,
    },
    /// Deliver a control-plane message to every filter on `node`.
    Control {
        /// Receiving node.
        node: NodeId,
        /// The message.
        msg: FilterControl,
    },
}

/// The heap's branching factor. Four children per node halves the tree
/// depth of a binary heap: sift-down — the hot operation, every pop pays
/// one — does half the entry moves for the same number of comparisons,
/// and the child scan reads one contiguous cache line.
const HEAP_ARITY: usize = 4;

/// Low bits of a heap key that hold the event's payload slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Sequence numbers must fit the 64 − [`SLOT_BITS`] bits above the slot.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// Deterministic event queue ordered by `(time, insertion sequence)`.
///
/// A hand-rolled 4-ary min-heap of bare `u128` keys; the event payloads
/// sit still in a slab. A key packs `time` (high 64 bits), the insertion
/// sequence number (next 40 bits) and the payload's slab slot (low 24
/// bits). Comparing keys compares `(time, seq)` lexicographically in one
/// integer comparison, and since every sequence number is unique the
/// slot bits never decide an order: the heap order is a *total* order
/// on `(time, seq)`, so any correct priority queue pops the exact same
/// sequence, which is what keeps replays bit-identical across
/// representation changes like this one.
///
/// Keeping payloads out of the heap matters for the hot path: sift-down
/// scans a node's four children, and with keys packed contiguously that
/// scan reads exactly one 64-byte cache line. Sifts move only the 16-byte
/// key into a hole — the payload is written once when scheduled and read
/// once when popped — and a freshly scheduled event, usually the latest
/// deadline in the queue, settles after one parent comparison.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    keys: Vec<u128>,
    /// Payload slab, indexed by the slot in each key's low bits.
    payloads: Vec<EventKind>,
    /// Vacant payload slots, reused last-in first-out.
    free: Vec<u32>,
    next_seq: u64,
}

#[inline]
fn pack(at: SimTime, seq: u64, slot: u32) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq << SLOT_BITS | u64::from(slot))
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

#[inline]
fn unpack_slot(key: u128) -> usize {
    (key as u64 & SLOT_MASK) as usize
}

/// The key's logical content, `time << 64 | seq`, without the slot: what
/// the ledger hashes and checkpoints store, so neither depends on where
/// the payloads happen to sit.
#[inline]
fn logical_key(key: u128) -> u128 {
    (key >> 64 << 64) | u128::from(key as u64 >> SLOT_BITS)
}

/// Index and key of the smallest of a full group of four siblings
/// starting at heap index `first`.
///
/// Which child is smallest is close to random from one pop to the next,
/// so a compare-and-branch scan mispredicts on most levels. A two-round
/// tournament of `select_unpredictable` picks compiles to conditional
/// moves instead. Keys are unique (the sequence number breaks every
/// tie), so the winner — and with it the heap layout — is exactly the
/// one the branching scan picks.
#[inline]
fn min_of_four(first: usize, children: &[u128]) -> (usize, u128) {
    let pick = |a: (usize, u128), b: (usize, u128)| select_unpredictable(b.1 < a.1, b, a);
    let left = pick((first, children[0]), (first + 1, children[1]));
    let right = pick((first + 2, children[2]), (first + 3, children[3]));
    pick(left, right)
}

/// Index and key of the smallest of a partial sibling group (the last
/// group of the bottom level, with one to three children).
#[inline]
fn min_of_tail(first: usize, children: &[u128]) -> (usize, u128) {
    let mut best = (first, children[0]);
    for (offset, &key) in children.iter().enumerate().skip(1) {
        if key < best.1 {
            best = (first + offset, key);
        }
    }
    best
}

impl Scheduler {
    pub(crate) fn new() -> Self {
        Scheduler::default()
    }

    /// Schedules `kind` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics past 2^40 scheduled events or 2^24 simultaneously pending
    /// ones, the limits of the packed key.
    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        assert!(
            self.next_seq < SEQ_LIMIT,
            "event sequence numbers exhausted"
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = kind;
                slot
            }
            None => {
                let slot = self.payloads.len() as u64;
                assert!(slot <= SLOT_MASK, "too many pending events");
                self.payloads.push(kind);
                slot as u32
            }
        };
        let key = pack(at, self.next_seq, slot);
        self.next_seq += 1;
        let mut hole = self.keys.len();
        self.keys.push(key);
        while hole > 0 {
            let parent = (hole - 1) / HEAP_ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[hole] = self.keys[parent];
            hole = parent;
        }
        self.keys[hole] = key;
    }

    /// Removes and returns the earliest event, if any.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let &key = self.keys.first()?;
        let last_key = self.keys.pop().expect("heap is non-empty");
        let len = self.keys.len();
        if len > 0 {
            // Bottom-up deletion (Wegener): walk the min-child path from
            // the root all the way to a leaf, moving each level's minimum
            // up into the hole — no per-level comparison against the
            // displaced entry, so the descent loop is branch-predictable.
            let mut hole = 0;
            loop {
                let first_child = hole * HEAP_ARITY + 1;
                if first_child >= len {
                    break;
                }
                let (best, best_key) = match self.keys.get(first_child..first_child + HEAP_ARITY) {
                    Some(children) => min_of_four(first_child, children),
                    None => min_of_tail(first_child, &self.keys[first_child..]),
                };
                self.keys[hole] = best_key;
                hole = best;
            }
            // Then sift the displaced last entry up from that leaf hole.
            // It came from the bottom of the heap, so it almost always
            // belongs near the bottom and this loop exits immediately.
            while hole > 0 {
                let parent = (hole - 1) / HEAP_ARITY;
                if self.keys[parent] <= last_key {
                    break;
                }
                self.keys[hole] = self.keys[parent];
                hole = parent;
            }
            self.keys[hole] = last_key;
        }
        let slot = unpack_slot(key);
        self.free.push(slot as u32);
        Some((unpack_time(key), self.payloads[slot]))
    }

    /// The timestamp of the next event without removing it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&key| unpack_time(key))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Total number of events ever scheduled (for run statistics).
    pub(crate) fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Pending events as `(time << 64 | seq, payload)` in heap storage
    /// order: the logical heap content, independent of slab slots.
    fn logical_entries(&self) -> impl Iterator<Item = (u128, &EventKind)> + '_ {
        self.keys
            .iter()
            .map(|&key| (logical_key(key), &self.payloads[unpack_slot(key)]))
    }

    /// Folds the full heap state into `h` for the run ledger.
    ///
    /// Heap storage order is itself deterministic (identical schedule/
    /// pop sequences produce identical arrays), so hashing the logical
    /// keys in index order, then their payloads in the same order, is
    /// both cheap and replay-stable. Slab slots are not hashed.
    pub(crate) fn hash_state(&self, h: &mut mafic_obs::Fnv64) {
        h.write_u64(self.next_seq);
        h.write_usize(self.keys.len());
        for (key, _) in self.logical_entries() {
            h.write_u128(key);
        }
        for (_, kind) in self.logical_entries() {
            hash_event_kind(kind, h);
        }
    }

    /// Serializes the heap for a checkpoint: the logical keys in storage
    /// order, then their payloads in the same order (heap order is a
    /// property of the key array, not of the process that produced it).
    pub(crate) fn snap_save(&self, w: &mut SnapWriter) {
        w.write_u64(self.next_seq);
        w.write_usize(self.keys.len());
        for (key, _) in self.logical_entries() {
            w.write_u128(key);
        }
        for (_, kind) in self.logical_entries() {
            snap_event_kind(kind, w);
        }
    }

    /// Overlays checkpointed heap state. Payloads land in slots `0..n`
    /// in storage order.
    pub(crate) fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let next_seq = r.read_u64()?;
        if next_seq > SEQ_LIMIT {
            return Err(SnapError::Malformed(format!(
                "scheduler: sequence counter {next_seq} exceeds the key's range"
            )));
        }
        let n = r.read_usize()?;
        if n as u64 > SLOT_MASK + 1 {
            return Err(SnapError::Malformed(format!(
                "scheduler: {n} pending events exceed the key's slot range"
            )));
        }
        let mut keys = Vec::with_capacity(n.min(1 << 20));
        for slot in 0..n {
            let key = r.read_u128()?;
            let seq = key as u64;
            if seq >= next_seq {
                return Err(SnapError::Malformed(format!(
                    "scheduler: pending sequence number {seq} not below the counter {next_seq}"
                )));
            }
            keys.push(pack(unpack_time(key), seq, slot as u32));
        }
        let mut payloads = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            payloads.push(read_event_kind(r)?);
        }
        self.next_seq = next_seq;
        self.keys = keys;
        self.payloads = payloads;
        self.free.clear();
        Ok(())
    }
}

/// Serializes one event payload for a checkpoint; tags mirror
/// [`hash_event_kind`].
pub(crate) fn snap_event_kind(kind: &EventKind, w: &mut SnapWriter) {
    match kind {
        EventKind::DeliverToNode { node, packet } => {
            w.write_u8(0);
            w.write_u32(node.0);
            w.write_u32(packet.0);
        }
        EventKind::LinkDeliver { link } => {
            w.write_u8(1);
            w.write_u32(link.0);
        }
        EventKind::AgentWake { agent, token } => {
            w.write_u8(2);
            w.write_u32(agent.0);
            w.write_u64(*token);
        }
        EventKind::AgentStart { agent } => {
            w.write_u8(3);
            w.write_u32(agent.0);
        }
        EventKind::FilterTimer {
            node,
            filter_index,
            token,
        } => {
            w.write_u8(4);
            w.write_u32(node.0);
            w.write_u32(*filter_index);
            w.write_u64(*token);
        }
        EventKind::Control { node, msg } => {
            w.write_u8(5);
            w.write_u32(node.0);
            match msg {
                FilterControl::PushbackStart { victim } => {
                    w.write_u8(0);
                    w.write_u32(victim.as_u32());
                }
                FilterControl::PushbackStop => w.write_u8(1),
            }
        }
    }
}

/// Reads one event payload written by [`snap_event_kind`].
pub(crate) fn read_event_kind(r: &mut SnapReader<'_>) -> Result<EventKind, SnapError> {
    Ok(match r.read_u8()? {
        0 => EventKind::DeliverToNode {
            node: NodeId(r.read_u32()?),
            packet: PacketRef(r.read_u32()?),
        },
        1 => EventKind::LinkDeliver {
            link: LinkId(r.read_u32()?),
        },
        2 => EventKind::AgentWake {
            agent: AgentId(r.read_u32()?),
            token: r.read_u64()?,
        },
        3 => EventKind::AgentStart {
            agent: AgentId(r.read_u32()?),
        },
        4 => EventKind::FilterTimer {
            node: NodeId(r.read_u32()?),
            filter_index: r.read_u32()?,
            token: r.read_u64()?,
        },
        5 => EventKind::Control {
            node: NodeId(r.read_u32()?),
            msg: match r.read_u8()? {
                0 => FilterControl::PushbackStart {
                    victim: Addr::new(r.read_u32()?),
                },
                1 => FilterControl::PushbackStop,
                tag => {
                    return Err(SnapError::Malformed(format!("filter-control tag {tag}")));
                }
            },
        },
        tag => return Err(SnapError::Malformed(format!("event-kind tag {tag}"))),
    })
}

/// Encodes one event payload for hashing: a discriminant tag byte
/// followed by the variant's fields.
pub(crate) fn hash_event_kind(kind: &EventKind, h: &mut mafic_obs::Fnv64) {
    match kind {
        EventKind::DeliverToNode { node, packet } => {
            h.write_u8(0);
            h.write_u32(node.0);
            h.write_u32(packet.0);
        }
        EventKind::LinkDeliver { link } => {
            h.write_u8(1);
            h.write_u32(link.0);
        }
        EventKind::AgentWake { agent, token } => {
            h.write_u8(2);
            h.write_u32(agent.0);
            h.write_u64(*token);
        }
        EventKind::AgentStart { agent } => {
            h.write_u8(3);
            h.write_u32(agent.0);
        }
        EventKind::FilterTimer {
            node,
            filter_index,
            token,
        } => {
            h.write_u8(4);
            h.write_u32(node.0);
            h.write_u32(*filter_index);
            h.write_u64(*token);
        }
        EventKind::Control { node, msg } => {
            h.write_u8(5);
            h.write_u32(node.0);
            match msg {
                FilterControl::PushbackStart { victim } => {
                    h.write_u8(0);
                    h.write_u32(victim.as_u32());
                }
                FilterControl::PushbackStop => h.write_u8(1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn wake(agent: u32, token: u64) -> EventKind {
        EventKind::AgentWake {
            agent: AgentId(agent),
            token,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        let t1 = SimTime::ZERO + SimDuration::from_millis(10);
        let t2 = SimTime::ZERO + SimDuration::from_millis(5);
        s.schedule(t1, wake(0, 1));
        s.schedule(t2, wake(0, 2));
        assert_eq!(s.pop().unwrap().0, t2);
        assert_eq!(s.pop().unwrap().0, t1);
        assert!(s.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut s = Scheduler::new();
        let t = SimTime::ZERO + SimDuration::from_millis(1);
        for token in 0..100 {
            s.schedule(t, wake(0, token));
        }
        for expect in 0..100 {
            match s.pop().unwrap().1 {
                EventKind::AgentWake { token, .. } => assert_eq!(token, expect),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_round_trips_heap_state() {
        let mut s = Scheduler::new();
        s.schedule(
            SimTime::from_nanos(50),
            EventKind::DeliverToNode {
                node: NodeId(1),
                packet: PacketRef(7),
            },
        );
        s.schedule(
            SimTime::from_nanos(10),
            EventKind::LinkDeliver { link: LinkId(2) },
        );
        s.schedule(
            SimTime::from_nanos(10),
            EventKind::Control {
                node: NodeId(3),
                msg: FilterControl::PushbackStart {
                    victim: Addr::new(9),
                },
            },
        );
        let _ = s.pop();
        let mut w = SnapWriter::new();
        s.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Scheduler::new();
        let mut r = SnapReader::new(&bytes);
        restored.snap_restore(&mut r).unwrap();
        assert!(r.is_empty());
        let mut ha = mafic_obs::Fnv64::new();
        let mut hb = mafic_obs::Fnv64::new();
        s.hash_state(&mut ha);
        restored.hash_state(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        // The restored heap continues popping in the same total order.
        assert_eq!(s.pop().unwrap().0, restored.pop().unwrap().0);
    }

    /// Checkpoint bytes whose keys cannot be packed back into the heap
    /// are rejected as malformed, not restored into a corrupt order.
    #[test]
    fn snapshot_restore_rejects_unpackable_keys() {
        let encode = |next_seq: u64, seq: u64| {
            let mut w = SnapWriter::new();
            w.write_u64(next_seq);
            w.write_usize(1);
            w.write_u128(pack(SimTime::from_nanos(5), 0, 0) | u128::from(seq));
            snap_event_kind(&wake(0, 0), &mut w);
            w.into_bytes()
        };
        let restore = |bytes: &[u8]| Scheduler::new().snap_restore(&mut SnapReader::new(bytes));
        assert!(restore(&encode(8, 7)).is_ok());
        // A pending event numbered at or past the sequence counter.
        assert!(matches!(
            restore(&encode(8, 8)),
            Err(SnapError::Malformed(_))
        ));
        // A counter beyond what the packed key can hold.
        assert!(matches!(
            restore(&encode(SEQ_LIMIT + 1, 7)),
            Err(SnapError::Malformed(_))
        ));
    }

    /// Round-trips `s` through a snapshot, checking the restored heap
    /// hashes identically.
    fn snapshot_round_trip(s: &Scheduler) -> Scheduler {
        let mut w = SnapWriter::new();
        s.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Scheduler::new();
        let mut r = SnapReader::new(&bytes);
        restored.snap_restore(&mut r).unwrap();
        assert!(r.is_empty());
        let mut ha = mafic_obs::Fnv64::new();
        let mut hb = mafic_obs::Fnv64::new();
        s.hash_state(&mut ha);
        restored.hash_state(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        restored
    }

    /// Differential test against `BinaryHeap<Reverse<(time, seq)>>`:
    /// seeded random interleavings of schedules and pops, with timestamps
    /// drawn from a narrow window so equal times are common, heap sizes
    /// that pass through every residue mod 4, and one snapshot round trip
    /// partway through. Every pop must match the model's.
    #[test]
    fn pops_match_a_binary_heap_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = Scheduler::new();
            let mut model = BinaryHeap::new();
            let mut now = 0u64;
            let ops = rng.gen_range(1..3_000usize);
            let snapshot_at = rng.gen_range(0..ops);
            // Alternate between growing and shrinking phases so the heap
            // both reaches a few hundred entries and drains to empty.
            let mut schedule_pct = 70;
            for op in 0..ops {
                if op == snapshot_at {
                    s = snapshot_round_trip(&s);
                }
                if op % 500 == 499 {
                    schedule_pct = 100 - schedule_pct;
                }
                if model.is_empty() || rng.gen_range(0..100u32) < schedule_pct {
                    let at = now + rng.gen_range(0..16u64);
                    let seq = s.scheduled_total();
                    s.schedule(SimTime::from_nanos(at), wake(0, seq));
                    model.push(Reverse((at, seq)));
                } else {
                    let Reverse((at, seq)) = model.pop().unwrap();
                    let (got_at, kind) = s.pop().unwrap();
                    assert_eq!(got_at.as_nanos(), at, "seed {seed} op {op}");
                    match kind {
                        EventKind::AgentWake { token, .. } => {
                            assert_eq!(token, seq, "seed {seed} op {op}");
                        }
                        other => panic!("unexpected event {other:?}"),
                    }
                    now = at;
                }
                assert_eq!(s.len(), model.len());
                assert_eq!(
                    s.peek_time().map(SimTime::as_nanos),
                    model.peek().map(|Reverse((at, _))| *at)
                );
            }
            while let Some(Reverse((at, seq))) = model.pop() {
                let (got_at, kind) = s.pop().unwrap();
                assert_eq!(got_at.as_nanos(), at);
                assert!(matches!(kind, EventKind::AgentWake { token, .. } if token == seq));
            }
            assert!(s.pop().is_none());
        }
    }

    #[test]
    fn counters_track_activity() {
        let mut s = Scheduler::new();
        assert_eq!(s.len(), 0);
        s.schedule(SimTime::ZERO, wake(0, 0));
        s.schedule(SimTime::ZERO, wake(0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.scheduled_total(), 2);
        assert_eq!(s.peek_time(), Some(SimTime::ZERO));
        let _ = s.pop();
        assert_eq!(s.len(), 1);
        assert_eq!(s.scheduled_total(), 2);
    }
}
