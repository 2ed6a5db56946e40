//! The paper's worked example (Fig. 3), verified *by decision reasons*.
//!
//! The central-LCF tests elsewhere pin down who gets matched to whom; these
//! tests pin down **why** — the precedence the paper describes in Sec. 4:
//! the rotating round-robin position wins outright, otherwise the requester
//! with the fewest outstanding requests, with ties broken by the rotating
//! priority chain starting at the diagonal requester.

use lcf_core::bitkern::Backend;
use lcf_core::lcf::RrPolicy;
use lcf_core::prelude::*;
use lcf_core::telemetry::GrantReason;

/// The 4×4 request pattern of Fig. 3 (I = 1, J = 0 after one advance).
fn figure3_requests() -> RequestMatrix {
    RequestMatrix::from_pairs(
        4,
        [
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 2),
            (1, 3),
            (2, 0),
            (2, 2),
            (2, 3),
            (3, 1),
        ],
    )
}

fn traced_figure3() -> CentralLcf {
    let mut sched = CentralLcf::with_round_robin(4);
    sched.advance_pointer(); // Fig. 3 starts from I = 1, J = 0
    sched.set_tracing(true);
    sched
}

#[test]
fn figure3_grant_reasons_follow_the_paper() {
    let mut sched = traced_figure3();
    let m = sched.schedule(&figure3_requests());
    assert_eq!(m.size(), 4);

    let d = sched.last_decisions();
    assert_eq!(d.len(), 4, "one decision per scheduled output");

    // T0 -> I1: the round-robin position [I1, T0] wins outright, even
    // though I2 also requests T0. Precedence, not counts.
    assert_eq!((d[0].resource, d[0].winner), (0, 1));
    assert_eq!(d[0].reason, GrantReason::RrPosition);
    assert_eq!(d[0].winner_nrq, 3, "the RR winner had MORE choices (3)");
    assert_eq!(d[0].losers, vec![(2, 3)]);

    // T1 -> I3: least choice first. I3's single outstanding request beats
    // I0's two.
    assert_eq!((d[1].resource, d[1].winner), (1, 3));
    assert_eq!(d[1].reason, GrantReason::MinCount);
    assert_eq!(d[1].winner_nrq, 1);
    assert_eq!(d[1].losers, vec![(0, 2)]);

    // T2 -> I0: I0 is down to one outstanding request (T1 was taken by
    // I3), beating I2's two.
    assert_eq!((d[2].resource, d[2].winner), (2, 0));
    assert_eq!(d[2].reason, GrantReason::MinCount);
    assert_eq!(d[2].winner_nrq, 1);
    assert_eq!(d[2].losers, vec![(2, 2)]);

    // T3 -> I2: the only requester left.
    assert_eq!((d[3].resource, d[3].winner), (3, 2));
    assert_eq!(d[3].reason, GrantReason::OnlyChoice);
    assert!(d[3].losers.is_empty());
}

#[test]
fn tie_is_broken_by_rotating_chain_and_reported_as_such() {
    // Pure LCF, pointer at origin: I0 and I1 both have two outstanding
    // requests and both want T0. The chain starts at the diagonal requester
    // (I0), so I0 wins — and the decision must say the win was a tie-break,
    // not a count win.
    let requests = RequestMatrix::from_pairs(4, [(0, 0), (0, 1), (1, 0), (1, 2)]);
    let mut sched = CentralLcf::pure(4);
    sched.set_tracing(true);
    let m = sched.schedule(&requests);
    assert_eq!(m.output_for(0), Some(0));
    let d = sched.last_decisions();
    assert_eq!((d[0].resource, d[0].winner), (0, 0));
    assert_eq!(d[0].reason, GrantReason::TieBreak);
    assert_eq!(d[0].losers, vec![(1, 2)]);
}

#[test]
fn priority_diagonal_pre_pass_is_reported() {
    let mut sched = CentralLcf::with_policy(4, RrPolicy::PriorityDiagonal);
    sched.set_tracing(true);
    let m = sched.schedule(&RequestMatrix::full(4));
    assert_eq!(m.size(), 4);
    let d = sched.last_decisions();
    assert!(
        d.iter().all(|d| d.reason == GrantReason::PriorityDiagonal),
        "full matrix: the whole diagonal is granted in the pre-pass"
    );
}

#[test]
fn tracing_never_changes_the_schedule() {
    // Traced scalar, untraced scalar and untraced bitset must produce the
    // same matchings on the same request stream.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0x7E1E);
    let mut traced = CentralLcf::with_round_robin(16).with_backend(Backend::Bitset);
    traced.set_tracing(true);
    let mut scalar = CentralLcf::with_round_robin(16).with_backend(Backend::Scalar);
    let mut bitset = CentralLcf::with_round_robin(16).with_backend(Backend::Bitset);
    for _ in 0..200 {
        let requests = RequestMatrix::random(16, 0.3, &mut rng);
        let m = traced.schedule(&requests);
        assert_eq!(m, scalar.schedule(&requests));
        assert_eq!(m, bitset.schedule(&requests));
    }
}

#[test]
fn drained_events_match_decisions_and_clear() {
    let mut sched = traced_figure3();
    sched.schedule(&figure3_requests());
    let mut lines = Vec::new();
    sched.drain_events(&mut |e| lines.push(e.to_json()));
    assert_eq!(lines.len(), 4);
    assert_eq!(
        lines[0],
        r#"{"slot":0,"kind":"grant","output":0,"input":1,"reason":"rr_position","nrq":3,"losers":[[2,3]]}"#
    );
    // Draining empties the buffer.
    let mut again = 0;
    sched.drain_events(&mut |_| again += 1);
    assert_eq!(again, 0);
}

#[test]
fn iterative_steps_reconstruct_figure9() {
    // Fig. 9 (distributed LCF): iteration 0 matches (I0,T2), (I1,T0),
    // (I3,T1); iteration 1 matches (I2,T3). The traced step sets must tell
    // exactly that story, on either kernel backend.
    let requests = RequestMatrix::from_pairs(
        4,
        [
            (0, 2),
            (1, 0),
            (1, 2),
            (1, 3),
            (2, 1),
            (2, 2),
            (2, 3),
            (3, 1),
            (3, 3),
        ],
    );
    for backend in [Backend::Scalar, Backend::Bitset] {
        let mut sched = DistributedLcf::pure(4, 2).with_backend(backend);
        sched.set_tracing(true);
        let m = sched.schedule(&requests);
        assert_eq!(m.size(), 4);
        let steps = &sched.last_trace().steps;
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].requests.len(), 9, "all nine requests go out first");
        assert_eq!(steps[0].accepts, vec![(0, 2), (1, 0), (3, 1)]);
        assert_eq!(steps[1].accepts, vec![(2, 3)]);
        // Iteration 1 only involves the leftover ports.
        assert!(steps[1].requests.iter().all(|&(i, _)| i == 2));
    }
}

#[test]
fn iterative_steps_are_backend_independent() {
    // Traced runs of the iterative schedulers take the word kernel; its
    // recorded steps and pre-grants must equal the scalar reference's, slot
    // by slot, on single- and multi-word port counts.
    use lcf_core::registry::SchedulerKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let kinds = [
        SchedulerKind::Pim,
        SchedulerKind::Islip,
        SchedulerKind::LcfDist,
        SchedulerKind::LcfDistRr,
    ];
    for n in [4usize, 16, 65] {
        for kind in kinds {
            let build = |backend| {
                let mut s: Box<dyn Scheduler> = match kind {
                    SchedulerKind::Pim => Box::new(Pim::new(n, 4, 3).with_backend(backend)),
                    SchedulerKind::Islip => Box::new(Islip::new(n, 4).with_backend(backend)),
                    SchedulerKind::LcfDist => {
                        Box::new(DistributedLcf::pure(n, 4).with_backend(backend))
                    }
                    _ => Box::new(DistributedLcf::with_round_robin(n, 4).with_backend(backend)),
                };
                s.set_tracing(true);
                s
            };
            let (mut scalar, mut bitset) = (build(Backend::Scalar), build(Backend::Bitset));
            let mut rng = StdRng::seed_from_u64(0x57E9 ^ n as u64);
            let (mut steps, mut pre_grants) = (0, 0);
            for slot in 0..16 {
                let requests = RequestMatrix::random(n, 0.4, &mut rng);
                let a = scalar.schedule(&requests);
                assert_eq!(a, bitset.schedule(&requests), "{kind} n={n} slot {slot}");
                let (mut ea, mut eb) = (Vec::new(), Vec::new());
                scalar.drain_events(&mut |e| ea.push(e.to_json()));
                bitset.drain_events(&mut |e| eb.push(e.to_json()));
                assert_eq!(ea, eb, "{kind} n={n} slot {slot}: traced steps differ");
                pre_grants += ea.iter().filter(|e| e.contains("pre_grant")).count();
                steps += ea.len();
            }
            assert!(steps >= 16, "{kind} n={n}: every slot records a step");
            assert_eq!(
                pre_grants > 0,
                kind == SchedulerKind::LcfDistRr,
                "{kind} n={n}: only lcf_dist_rr pre-grants"
            );
        }
    }
}

#[test]
fn untraced_schedulers_record_nothing() {
    let mut sched = CentralLcf::with_round_robin(4);
    sched.schedule(&figure3_requests());
    assert!(sched.last_decisions().is_empty());
    let mut events = 0;
    sched.drain_events(&mut |_| events += 1);
    assert_eq!(events, 0);
}
