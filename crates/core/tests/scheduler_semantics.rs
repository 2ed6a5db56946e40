//! Deeper semantic tests for the individual schedulers — the rules that
//! distinguish the algorithms, beyond the common matching contract.

use lcf_core::bitkern::Backend;
use lcf_core::islip::Islip;
use lcf_core::lcf::{CentralLcf, DistributedLcf};
use lcf_core::pim::Pim;
use lcf_core::request::RequestMatrix;
use lcf_core::traits::Scheduler;
use lcf_core::wavefront::Wavefront;

/// iSLIP's anti-starvation rule: pointers move only on accepts that happen
/// in the *first* iteration. A match made in iteration 2 must leave the
/// pointers where they were.
#[test]
fn islip_pointers_frozen_for_later_iterations() {
    // n = 3. Inputs 0 and 1 request output 0; input 1 also requests
    // output 1. Iteration 1: outputs 0 and 1 both grant via pointer 0 ->
    // output 0 grants input 0, output 1 grants input 1; both accept.
    // Now craft a second slot where a match can only happen in iteration 2.
    let mut s = Islip::new(3, 2);
    let requests = RequestMatrix::from_pairs(3, [(0, 0), (1, 0), (1, 1)]);
    let m = s.schedule(&requests);
    assert_eq!(m.output_for(0), Some(0));
    assert_eq!(m.output_for(1), Some(1));
    // Both matches happened in iteration 1, so pointers moved:
    assert_eq!(s.grant_pointer(0), 1);
    assert_eq!(s.grant_pointer(1), 2);

    // Next: inputs 0,1 both request only output 2. Output 2's pointer is
    // at 0 -> grants input 0; input 0 accepts (iteration 1, pointer moves
    // to 1). Input 1 matches output 2? No — output 2 taken. Use a case
    // where iteration 2 produces a match: input 0 requests {2}, input 1
    // requests {2, 0}. Iter 1: output 2 grants input 0 (ptr at 1 -> first
    // requester at/after 1 is 1!). Let's just verify empirically that a
    // pure iteration-2 match leaves its pointers alone.
    let mut s = Islip::new(3, 2);
    // Slot: input 0 -> {0, 1}, input 1 -> {0}.
    // Iter 1: output 0 grants input 0 (ptr 0); output 1 grants input 0 too.
    // Input 0 accepts output 0 (accept ptr 0). Input 1 unmatched.
    // Iter 2: output 0 taken; input 1's only request gone? It requested
    // only 0 -> no match. Extend: input 1 -> {0, 1}.
    // Iter 2: output 1 re-grants among unmatched: input 1. Input 1 accepts.
    // That match is iteration 2: pointers for output 1 / input 1 must NOT
    // move.
    let requests = RequestMatrix::from_pairs(3, [(0, 0), (0, 1), (1, 0), (1, 1)]);
    let m = s.schedule(&requests);
    assert_eq!(m.output_for(0), Some(0), "iteration 1 match");
    assert_eq!(m.output_for(1), Some(1), "iteration 2 match");
    assert_eq!(s.grant_pointer(0), 1, "iteration-1 pointer slips");
    assert_eq!(s.grant_pointer(1), 0, "iteration-2 pointer frozen");
    assert_eq!(s.accept_pointer(1), 0, "iteration-2 accept pointer frozen");
}

/// PIM's grants are uniform among contenders: over many slots, three
/// equal contenders each win about a third of the time.
#[test]
fn pim_grant_distribution_is_uniform() {
    let n = 4;
    let mut pim = Pim::new(n, 1, 42);
    let requests = RequestMatrix::from_pairs(n, [(0, 0), (1, 0), (2, 0)]);
    let trials = 6_000;
    let mut wins = [0u32; 3];
    for _ in 0..trials {
        if let Some(i) = pim.schedule(&requests).input_for(0) {
            wins[i] += 1;
        }
    }
    let expected = trials as f64 / 3.0;
    for (i, &w) in wins.iter().enumerate() {
        let dev = (w as f64 - expected).abs() / expected;
        assert!(dev < 0.1, "input {i} won {w} of {trials} (dev {dev:.3})");
    }
}

/// Wavefront fairness: with persistent all-ones requests, every input is
/// matched every slot (perfect matchings), and over n cycles each (i, j)
/// diagonal leads exactly once.
#[test]
fn wavefront_leading_diagonal_rotates() {
    let n = 4;
    let mut s = Wavefront::new(n);
    let requests = RequestMatrix::full(n);
    // Slot k: leading diagonal is k mod n, so cell (0, k mod n) is matched.
    for k in 0..2 * n {
        let m = s.schedule(&requests);
        assert_eq!(m.size(), n);
        assert_eq!(
            m.output_for(0),
            Some(k % n),
            "input 0 must follow the rotating diagonal"
        );
    }
}

/// The central LCF priority recalculation: NRQ counts only *unscheduled*
/// resources. Requester A starts with 2 requests but one of its targets is
/// consumed first, so its effective priority rises to 1 and it beats a
/// static-2 competitor.
#[test]
fn central_lcf_recalculates_priorities_between_resources() {
    // Resources scheduled in order T0, T1, T2 (fresh scheduler, J = 0).
    // T0: only I2 requests it (nrq 1 after tie with nobody) -> granted.
    //     I0 also requested T0, so I0's count drops 2 -> 1.
    // T1: I0 (now 1) vs I1 (2): I0 wins despite both having started at 2.
    let requests = RequestMatrix::from_pairs(4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)]);
    let mut sched = CentralLcf::pure(4);
    let m = sched.schedule(&requests);
    assert_eq!(m.output_for(2), Some(0), "single-choice I2 takes T0");
    assert_eq!(m.output_for(0), Some(1), "I0's recalculated NRQ wins T1");
    assert_eq!(m.output_for(1), Some(2), "I1 falls through to T2");
}

/// Pure distributed LCF starves a middle requester *deterministically*:
/// I1 requests {T0, T1} but loses both every cycle to single-request
/// competitors (the exact failure mode the paper's round-robin stage
/// exists to fix) — and the `_rr` variant indeed fixes it.
#[test]
fn distributed_lcf_starvation_and_rescue() {
    let requests = RequestMatrix::from_pairs(3, [(0, 0), (1, 0), (1, 1), (2, 1)]);

    let mut pure = DistributedLcf::pure(3, 3);
    let mut i1_grants = 0;
    for _ in 0..27 {
        let m = pure.schedule(&requests);
        assert_eq!(m.output_for(0), Some(0), "I0 always wins T0 (nrq 1 vs 2)");
        assert_eq!(m.output_for(2), Some(1), "I2 always wins T1 (nrq 1 vs 2)");
        if m.output_for(1).is_some() {
            i1_grants += 1;
        }
    }
    assert_eq!(
        i1_grants, 0,
        "pure distributed LCF starves the 2-choice requester"
    );

    let mut rr = DistributedLcf::with_round_robin(3, 3);
    let mut i1_grants = 0;
    for _ in 0..27 {
        // 3 cycles of 9 = three full round-robin periods.
        if rr.schedule(&requests).output_for(1).is_some() {
            i1_grants += 1;
        }
    }
    assert!(
        i1_grants >= 3,
        "the RR position must serve the starved requester at least once per n^2 cycles ({i1_grants})"
    );
}

/// Iterative completion: a matching that needs a second iteration (an
/// initiator holding two grants rejects one, which re-grants next round)
/// converges, and the trace records the two productive iterations. The
/// convergence trace of every iterative scheduler is filled without
/// tracing and is the same on both kernel backends.
#[test]
fn distributed_lcf_second_iteration_completes_the_matching() {
    // I3 requests T2 and T3 and wins both grants in iteration 0 (lowest
    // counts); it accepts T3 (lower NGT), and T2 goes to I2 in iteration 1.
    let requests = RequestMatrix::from_pairs(
        4,
        [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (2, 0),
            (2, 1),
            (2, 2),
            (3, 2),
            (3, 3),
        ],
    );
    let mut sched = DistributedLcf::pure(4, 4);
    let m = sched.schedule(&requests);
    assert_eq!(m.size(), 4, "all four targets end up matched");
    let trace = sched.last_trace();
    assert!(
        trace.new_matches.len() >= 2 && trace.new_matches[1] >= 1,
        "iteration 2 must contribute: {:?}",
        trace.new_matches
    );

    let traces = |backend: Backend| {
        let mut lcf = DistributedLcf::pure(4, 4).with_backend(backend);
        let mut pim = Pim::new(4, 4, 9).with_backend(backend);
        let mut islip = Islip::new(4, 4).with_backend(backend);
        [
            (lcf.schedule(&requests).size(), lcf.last_trace().clone()),
            (pim.schedule(&requests).size(), pim.last_trace().clone()),
            (islip.schedule(&requests).size(), islip.last_trace().clone()),
        ]
    };
    let scalar = traces(Backend::Scalar);
    assert_eq!(scalar, traces(Backend::Bitset));
    for (size, trace) in &scalar {
        assert_eq!(trace.total_matches(), *size, "{trace:?}");
    }
}

/// Head-to-head matching size on sparse asymmetric patterns: central LCF
/// must match the maximum found by Hopcroft–Karp on the paper's Fig. 3
/// pattern family (single-choice rows resolve first).
#[test]
fn lcf_matches_maximum_on_staircase_patterns() {
    use lcf_core::maxsize::MaxSizeMatcher;
    // Staircase: requester i requests outputs {0..=i} — greedy by least
    // choice resolves it perfectly in one pass.
    for n in [3usize, 5, 8, 12] {
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in 0..=i {
                pairs.push((i, j));
            }
        }
        let requests = RequestMatrix::from_pairs(n, pairs);
        let mut lcf = CentralLcf::pure(n);
        let mut oracle = MaxSizeMatcher::new(n);
        assert_eq!(
            lcf.schedule(&requests).size(),
            oracle.max_matching_size(&requests),
            "n = {n}"
        );
    }
}
