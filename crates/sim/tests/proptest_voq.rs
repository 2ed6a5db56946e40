//! Model test for `VoqSet`: random push / pop / peek sequences against a
//! reference of one bounded `VecDeque` per destination. Every observable of
//! the set is compared after every operation, across the 64-destination
//! word boundary of the occupancy bitmap.

use lcf_sim::packet::Packet;
use lcf_sim::queues::VoqSet;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The reference: `n` independent FIFOs of at most `cap` packets each.
struct Model {
    cap: usize,
    queues: Vec<VecDeque<Packet>>,
}

impl Model {
    fn new(n: usize, cap: usize) -> Self {
        Model {
            cap,
            queues: vec![VecDeque::new(); n],
        }
    }

    fn push(&mut self, p: Packet) -> bool {
        let q = &mut self.queues[p.dst_idx()];
        if q.len() >= self.cap {
            return false;
        }
        q.push_back(p);
        true
    }

    fn occupancy_words(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.queues.len().div_ceil(64)];
        for (dst, q) in self.queues.iter().enumerate() {
            if !q.is_empty() {
                words[dst / 64] |= 1 << (dst % 64);
            }
        }
        words
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Push,
    Pop,
    Head,
}

/// Compares every observable of `set` with `model`.
fn check(set: &VoqSet, model: &Model) {
    let n = model.queues.len();
    prop_assert_eq!(set.n(), n);
    for (dst, q) in model.queues.iter().enumerate() {
        prop_assert_eq!(set.len_for(dst), q.len(), "len_for({})", dst);
        prop_assert_eq!(set.has_packet_for(dst), !q.is_empty());
        prop_assert_eq!(set.has_room_for(dst), q.len() < model.cap);
        prop_assert_eq!(set.head_for(dst), q.front(), "head_for({})", dst);
    }
    let total: usize = model.queues.iter().map(VecDeque::len).sum();
    prop_assert_eq!(set.total_len(), total);
    prop_assert_eq!(set.occupancy_words(), &model.occupancy_words()[..]);
    let occupied = model.queues.iter().filter(|q| !q.is_empty()).count();
    prop_assert_eq!(set.occupied_count(), occupied);
}

fn op_strategy() -> impl Strategy<Value = (Op, bool, usize)> {
    (
        prop_oneof![
            Just(Op::Push),
            Just(Op::Push),
            Just(Op::Pop),
            Just(Op::Head)
        ],
        any::<bool>(),
        0usize..1 << 16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn voq_set_matches_vecdeque_model(
        n in proptest::sample::select(vec![1usize, 3, 64, 65, 130]),
        cap in 1usize..5,
        ops in proptest::collection::vec(op_strategy(), 0..600),
    ) {
        let mut set = VoqSet::new(n, cap);
        let mut model = Model::new(n, cap);
        check(&set, &model);
        for (t, (op, hot, raw)) in ops.into_iter().enumerate() {
            // Half the operations hit one of three "hot" destinations (the
            // first, last and a middle one), so queues fill to their cap
            // and empty again even at n = 130.
            let dst = if hot { [0, n / 2, n - 1][raw % 3] } else { raw % n };
            match op {
                Op::Push => {
                    let p = Packet::new(raw % 7, dst, t as u64);
                    prop_assert_eq!(set.push(p), model.push(p), "push to {}", dst);
                }
                Op::Pop => {
                    prop_assert_eq!(set.pop_for(dst), model.queues[dst].pop_front());
                }
                Op::Head => {
                    prop_assert_eq!(set.head_for(dst), model.queues[dst].front());
                }
            }
            check(&set, &model);
        }
    }
}
