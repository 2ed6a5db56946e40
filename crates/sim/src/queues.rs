//! Bounded FIFO queues: packet queues (PQ) and output buffers are
//! instances of [`BoundedFifo`]; the `n` virtual output queues (VOQ) of one
//! input port share a packet slab in a [`VoqSet`].

use crate::packet::Packet;
use std::collections::VecDeque;

/// A bounded FIFO of packets.
///
/// All queues in the Fig. 11 model are FIFO memories with a fixed capacity;
/// a full queue rejects (drops) arrivals, which the simulator accounts for.
///
/// ```
/// use lcf_sim::packet::Packet;
/// use lcf_sim::queues::BoundedFifo;
///
/// let mut q = BoundedFifo::new(2);
/// assert!(q.push(Packet::new(0, 1, 10)));
/// assert!(q.push(Packet::new(0, 1, 11)));
/// assert!(!q.push(Packet::new(0, 1, 12)), "full queue drops");
/// assert_eq!(q.pop().unwrap().generated_at, 10);
/// ```
#[derive(Clone, Debug)]
pub struct BoundedFifo {
    cap: usize,
    q: VecDeque<Packet>,
}

impl BoundedFifo {
    /// Creates a queue holding at most `cap` packets.
    ///
    /// # Panics
    /// Panics if `cap == 0` — every queue in the model holds at least one
    /// packet.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        BoundedFifo {
            cap,
            q: VecDeque::new(),
        }
    }

    /// Capacity.
    #[inline]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of queued packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if no packets are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// True if at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.cap
    }

    /// Attempts to enqueue; returns `false` (dropping the packet) when full.
    #[must_use = "a false return means the packet was dropped"]
    pub fn push(&mut self, p: Packet) -> bool {
        if self.is_full() {
            false
        } else {
            self.q.push_back(p);
            true
        }
    }

    /// Dequeues the head packet.
    pub fn pop(&mut self) -> Option<Packet> {
        self.q.pop_front()
    }

    /// Peeks at the head packet.
    pub fn head(&self) -> Option<&Packet> {
        self.q.front()
    }
}

/// Sentinel index: "no node" (end of a lane or of the free list).
const NIL: u32 = u32::MAX;

/// One slab node: a queued packet and the index of the next node in its
/// lane (or in the free list), [`NIL`] at the end.
#[derive(Clone, Copy, Debug)]
struct Node {
    packet: Packet,
    next: u32,
}

/// One VOQ: a FIFO linked through the slab, head to tail. `head` and
/// `tail` are meaningless while `len == 0`.
#[derive(Clone, Copy, Debug, Default)]
struct Lane {
    head: u32,
    tail: u32,
    len: u32,
}

/// The set of `n` virtual output queues of one input port.
///
/// Packets are sorted by destination on arrival at the input buffer
/// (Sec. 2); each destination has its own bounded FIFO so packets for
/// different targets never block each other.
///
/// The `n` FIFOs share one packet slab: each destination owns a *lane*
/// (`head`, `tail`, `len`) linking its packets through the slab, and a
/// dequeued packet's node goes onto an intrusive free list that the next
/// enqueue reuses. So one input port owns three heap blocks (lanes, slab,
/// occupancy bitmap) instead of `n + 2`, and the slab holds at most as many nodes as the peak number of packets
/// queued at once: it grows to the peak backlog, then never again.
///
/// ```
/// use lcf_sim::packet::Packet;
/// use lcf_sim::queues::VoqSet;
///
/// let mut v = VoqSet::new(4, 2);
/// assert!(v.push(Packet::new(0, 3, 10)));
/// assert!(v.push(Packet::new(0, 3, 11)));
/// assert!(!v.push(Packet::new(0, 3, 12)), "VOQ 3 is full");
/// assert_eq!(v.total_len(), 2);
/// assert_eq!(v.pop_for(3).unwrap().generated_at, 10);
/// ```
#[derive(Clone, Debug)]
pub struct VoqSet {
    lanes: Vec<Lane>,
    nodes: Vec<Node>,
    // Head of the free list threaded through `nodes`, NIL if empty.
    free: u32,
    cap_each: u32,
    total: usize,
    // Occupancy bitmap, 64 destinations per word: bit (dst % 64) of word
    // (dst / 64) is set iff the VOQ for dst is non-empty. Maintained on
    // push/pop so the simulator can build the scheduler's request row with
    // one word copy instead of n probes.
    occupancy: Vec<u64>,
}

impl VoqSet {
    /// Creates `n` VOQs of `cap_each` packets each.
    ///
    /// # Panics
    /// Panics if `n == 0`, if `cap_each == 0`, or if `n × cap_each` (the
    /// most packets the set can hold) does not fit in `u32`, the slab's
    /// index type.
    pub fn new(n: usize, cap_each: usize) -> Self {
        assert!(n > 0, "VOQ set requires n > 0");
        assert!(cap_each > 0, "queue capacity must be positive");
        let fits = n
            .checked_mul(cap_each)
            .is_some_and(|max| u32::try_from(max).is_ok());
        assert!(fits, "n × cap_each must fit in u32 slab indices");
        VoqSet {
            lanes: vec![Lane::default(); n],
            nodes: Vec::new(),
            free: NIL,
            // lint:allow(no-panic): fits was asserted just above
            cap_each: u32::try_from(cap_each).expect("checked above"),
            total: 0,
            occupancy: vec![0; n.div_ceil(64)],
        }
    }

    /// Number of VOQs (= switch ports).
    pub fn n(&self) -> usize {
        self.lanes.len()
    }

    /// Attempts to enqueue a packet into the VOQ of its destination.
    // Always inlined: the slot loop pushes from two sites (direct arrivals
    // and the PQ spill), and with two callers the compiler kept it out of
    // line, which cost `heavy_n32` about 3 % of its window time.
    #[inline(always)]
    #[must_use = "a false return means the packet was dropped"]
    pub fn push(&mut self, p: Packet) -> bool {
        let dst = p.dst_idx();
        let lane = &mut self.lanes[dst];
        if lane.len >= self.cap_each {
            return false;
        }
        let node = Node {
            packet: p,
            next: NIL,
        };
        let idx = if self.free == NIL {
            Self::grow(&mut self.nodes, node)
        } else {
            let idx = self.free;
            let slot = &mut self.nodes[idx as usize];
            self.free = slot.next;
            *slot = node;
            idx
        };
        if lane.len == 0 {
            lane.head = idx;
            self.occupancy[dst / 64] |= 1u64 << (dst % 64);
        } else {
            self.nodes[lane.tail as usize].next = idx;
        }
        lane.tail = idx;
        lane.len += 1;
        self.total += 1;
        true
    }

    /// Appends `node` to the slab and returns its index: the free list is
    /// empty, so more packets are queued than ever before. Out of line, so
    /// the inlined `push` carries only the reuse path.
    #[cold]
    #[inline(never)]
    fn grow(nodes: &mut Vec<Node>, node: Node) -> u32 {
        // The slab holds at most n × cap_each nodes, which `new` asserted
        // fits in u32 (and NIL = u32::MAX is never reached).
        // lint:allow(no-panic): the slab never outgrows the bound asserted in new()
        let idx = u32::try_from(nodes.len()).expect("slab index fits in u32");
        // lint:allow(hot-path-alloc): the slab grows only past its peak backlog, then recycles freed nodes
        nodes.push(node);
        idx
    }

    /// True if the VOQ for destination `dst` has room.
    #[inline]
    pub fn has_room_for(&self, dst: usize) -> bool {
        self.lanes[dst].len < self.cap_each
    }

    /// True if the VOQ for destination `dst` holds at least one packet —
    /// this is the request bit the scheduler sees.
    pub fn has_packet_for(&self, dst: usize) -> bool {
        self.lanes[dst].len > 0
    }

    /// Dequeues the head packet destined for `dst`.
    #[inline]
    pub fn pop_for(&mut self, dst: usize) -> Option<Packet> {
        let lane = &mut self.lanes[dst];
        if lane.len == 0 {
            return None;
        }
        let idx = lane.head;
        let node = &mut self.nodes[idx as usize];
        let packet = node.packet;
        lane.head = node.next;
        lane.len -= 1;
        if lane.len == 0 {
            self.occupancy[dst / 64] &= !(1u64 << (dst % 64));
        }
        node.next = self.free;
        self.free = idx;
        self.total -= 1;
        Some(packet)
    }

    /// Peeks at the head packet destined for `dst` (for age-based
    /// schedulers).
    pub fn head_for(&self, dst: usize) -> Option<&Packet> {
        let lane = &self.lanes[dst];
        (lane.len > 0).then(|| &self.nodes[lane.head as usize].packet)
    }

    /// Total packets queued across all VOQs (O(1): kept as a running
    /// count).
    #[inline]
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Occupancy of the VOQ for destination `dst`.
    pub fn len_for(&self, dst: usize) -> usize {
        self.lanes[dst].len as usize
    }

    /// The occupancy bitmap, 64 destinations per word: bit `dst % 64` of
    /// word `dst / 64` is set iff [`VoqSet::has_packet_for`]`(dst)`. This is
    /// exactly the request row the scheduler sees, in the packed layout of
    /// `lcf_core::bitmat::BitMatrix::set_row_words`.
    #[inline]
    pub fn occupancy_words(&self) -> &[u64] {
        &self.occupancy
    }

    /// Number of non-empty VOQs (the paper's "choice" of this input).
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.occupancy.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(dst: usize) -> Packet {
        Packet::new(0, dst, 0)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = BoundedFifo::new(4);
        for t in 0..3 {
            assert!(q.push(Packet::new(0, 0, t)));
        }
        assert_eq!(q.pop().unwrap().generated_at, 0);
        assert_eq!(q.pop().unwrap().generated_at, 1);
        assert_eq!(q.pop().unwrap().generated_at, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut q = BoundedFifo::new(2);
        assert!(q.push(pkt(0)));
        assert!(q.push(pkt(0)));
        assert!(q.is_full());
        assert!(!q.push(pkt(0)), "third push must be rejected");
        assert_eq!(q.len(), 2);
        q.pop();
        assert!(!q.is_full());
        assert!(q.push(pkt(0)));
    }

    #[test]
    fn head_does_not_consume() {
        let mut q = BoundedFifo::new(2);
        assert!(q.push(Packet::new(1, 2, 7)));
        assert_eq!(q.head().unwrap().generated_at, 7);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedFifo::new(0);
    }

    #[test]
    fn voq_routes_by_destination() {
        let mut v = VoqSet::new(4, 2);
        assert!(v.push(pkt(1)));
        assert!(v.push(pkt(3)));
        assert!(v.has_packet_for(1));
        assert!(!v.has_packet_for(0));
        assert_eq!(v.total_len(), 2);
        assert_eq!(v.pop_for(3).unwrap().dst_idx(), 3);
        assert!(!v.has_packet_for(3));
    }

    #[test]
    fn voq_per_destination_capacity() {
        let mut v = VoqSet::new(4, 1);
        assert!(v.push(pkt(2)));
        assert!(!v.push(pkt(2)), "VOQ 2 full");
        assert!(v.push(pkt(0)), "other VOQs unaffected");
        assert!(!v.has_room_for(2));
        assert!(v.has_room_for(1));
    }

    #[test]
    fn occupancy_words_track_push_and_pop() {
        let mut v = VoqSet::new(70, 2);
        assert_eq!(v.occupancy_words(), &[0, 0]);
        assert!(v.push(pkt(3)));
        assert!(v.push(pkt(3)));
        assert!(v.push(pkt(65)));
        assert_eq!(v.occupancy_words(), &[1 << 3, 1 << 1]);
        assert_eq!(v.occupied_count(), 2);
        // Popping clears the bit only when the queue empties.
        assert!(v.pop_for(3).is_some());
        assert_eq!(v.occupancy_words(), &[1 << 3, 1 << 1], "one packet left");
        assert!(v.pop_for(3).is_some());
        assert_eq!(v.occupancy_words(), &[0, 1 << 1]);
        assert!(v.pop_for(65).is_some());
        assert_eq!(v.occupied_count(), 0);
    }

    #[test]
    fn occupancy_unchanged_by_rejected_push() {
        let mut v = VoqSet::new(4, 1);
        assert!(v.push(pkt(2)));
        assert!(!v.push(pkt(2)), "VOQ 2 full");
        assert_eq!(v.occupancy_words(), &[1 << 2]);
        // Popping a never-filled destination is a no-op on the bitmap.
        assert!(v.pop_for(0).is_none());
        assert_eq!(v.occupancy_words(), &[1 << 2]);
    }

    #[test]
    fn occupancy_matches_has_packet_for() {
        let mut v = VoqSet::new(6, 3);
        for dst in [5, 0, 5, 2] {
            assert!(v.push(pkt(dst)));
        }
        v.pop_for(2);
        for dst in 0..6 {
            assert_eq!(
                v.occupancy_words()[0] >> dst & 1 == 1,
                v.has_packet_for(dst),
                "bit {dst}"
            );
        }
    }

    #[test]
    fn slab_never_exceeds_peak_backlog() {
        // Freed nodes are reused before the slab grows, so its length is
        // the peak number of packets queued at once, whatever the mix of
        // lanes those packets were in.
        let mut v = VoqSet::new(8, 4);
        let mut peak = 0;
        for round in 0..50usize {
            for k in 0..(round % 7 + 1) {
                let _ = v.push(pkt((round * 3 + k) % 8));
            }
            peak = peak.max(v.total_len());
            assert!(v.nodes.len() <= peak, "round {round}");
            for k in 0..(round % 5 + 1) {
                v.pop_for((round + k) % 8);
            }
        }
        assert_eq!(v.nodes.len(), peak, "the slab grew to the peak, no further");
        // Drain and refill to the same peak: no growth at all.
        for dst in 0..8 {
            while v.pop_for(dst).is_some() {}
        }
        assert_eq!(v.total_len(), 0);
        for k in 0..peak {
            assert!(v.push(pkt(k % 8)));
        }
        assert_eq!(v.nodes.len(), peak);
    }

    #[test]
    fn lanes_interleave_in_the_slab_and_stay_fifo() {
        let mut v = VoqSet::new(3, 4);
        for t in 0..4 {
            for dst in 0..3 {
                assert!(v.push(Packet::new(0, dst, t)));
            }
        }
        // Free a node in lane 1 and reuse it from lane 2's tail.
        assert_eq!(v.pop_for(1).unwrap().generated_at, 0);
        assert_eq!(v.pop_for(2).unwrap().generated_at, 0);
        assert!(v.push(Packet::new(0, 2, 9)));
        let order: Vec<u64> = std::iter::from_fn(|| v.pop_for(2))
            .map(|p| p.generated_at)
            .collect();
        assert_eq!(order, [1, 2, 3, 9]);
        assert_eq!(v.head_for(1).unwrap().generated_at, 1);
        assert_eq!(v.total_len(), 7);
    }

    #[test]
    #[should_panic(expected = "fit in u32")]
    fn slab_index_bound_is_checked_at_construction() {
        let _ = VoqSet::new(1 << 16, 1 << 16);
    }

    #[test]
    fn voq_lengths() {
        let mut v = VoqSet::new(3, 8);
        for _ in 0..5 {
            assert!(v.push(pkt(1)));
        }
        assert_eq!(v.len_for(1), 5);
        assert_eq!(v.len_for(0), 0);
        assert_eq!(v.total_len(), 5);
    }
}
