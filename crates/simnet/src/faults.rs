//! Fault-injection combinators for Byzantine adversaries.
//!
//! The paper's adversary "can behave in any way whatsoever"; the strategies in
//! `adversary` and in `uba-core::adversaries` are hand-crafted worst cases from the
//! proofs. This module adds *combinators* that compose or randomise those strategies,
//! which is how the stress tests and the Monte-Carlo sweeps explore a wider slice of
//! the behaviour space:
//!
//! * [`RoundWindow`] — an adversary active only inside a round interval;
//! * [`StaggeredCrash`] — every Byzantine identity crashes at its own round;
//! * [`Collusion`] — splits the Byzantine identities between two inner strategies;
//! * [`NoiseAdversary`] — seeded random traffic drawn from a payload generator;
//! * [`TamperAdversary`] — edits each injected payload in place through the
//!   copy-on-write [`Shared::modify`](crate::shared::Shared::modify) path (the
//!   message plane's tamper rule: only an actually edited payload pays a clone);
//! * [`RecordingAdversary`] — wraps a strategy and counts what it injected (used by
//!   tests that must assert an attack actually happened).
//!
//! All combinators preserve the engine's rule that a Byzantine message must carry one
//! of the adversary's own identities — they only ever restrict or replay what the
//! inner strategies produce, or generate traffic from identities in the view.

use rand::Rng;

use crate::adversary::{Adversary, AdversaryView};
use crate::id::NodeId;
use crate::message::Directed;
use crate::rng::{seeded_rng, SimRng};

/// Runs the inner adversary only for rounds `from..=to` (inclusive); outside the
/// window the Byzantine nodes are silent.
#[derive(Clone, Debug)]
pub struct RoundWindow<A> {
    inner: A,
    from: u64,
    to: u64,
}

impl<A> RoundWindow<A> {
    /// Restricts `inner` to rounds `from..=to`.
    pub fn new(inner: A, from: u64, to: u64) -> Self {
        assert!(from <= to, "round window must be non-empty");
        RoundWindow { inner, from, to }
    }
}

impl<P, A: Adversary<P>> Adversary<P> for RoundWindow<A> {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        if view.round < self.from || view.round > self.to {
            Vec::new()
        } else {
            self.inner.step(view)
        }
    }
}

/// Every Byzantine identity crashes (goes permanently silent) at its own round,
/// derived deterministically from a seed: identity `i` (in the order of
/// `view.byzantine_ids`) crashes at a round drawn uniformly from
/// `[earliest, latest]`. Before its crash round an identity forwards whatever the
/// inner strategy produced for it.
///
/// A staggered crash is the hardest "counted but mute" pattern for the `n_v/3`
/// thresholds: the set of silent members keeps growing, so a quorum that was reachable
/// in one phase may be tighter in the next.
#[derive(Clone, Debug)]
pub struct StaggeredCrash<A> {
    inner: A,
    seed: u64,
    earliest: u64,
    latest: u64,
}

impl<A> StaggeredCrash<A> {
    /// Creates the combinator; crash rounds are drawn from `[earliest, latest]`.
    pub fn new(inner: A, seed: u64, earliest: u64, latest: u64) -> Self {
        assert!(earliest <= latest, "crash interval must be non-empty");
        StaggeredCrash {
            inner,
            seed,
            earliest,
            latest,
        }
    }

    /// The (deterministic) crash round of the `index`-th Byzantine identity.
    pub fn crash_round(&self, index: usize) -> u64 {
        let mut rng = seeded_rng(
            self.seed
                .wrapping_add(index as u64)
                .wrapping_mul(0x9E37_79B9),
        );
        rng.gen_range(self.earliest..=self.latest)
    }
}

impl<P, A: Adversary<P>> Adversary<P> for StaggeredCrash<A> {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        let crashed: Vec<NodeId> = view
            .byzantine_ids
            .iter()
            .enumerate()
            .filter(|(i, _)| view.round >= self.crash_round(*i))
            .map(|(_, &id)| id)
            .collect();
        self.inner
            .step(view)
            .into_iter()
            .filter(|msg| !crashed.contains(&msg.from))
            .collect()
    }
}

/// Splits the Byzantine identities between two inner strategies: the first
/// `first_count` identities are driven by `first`, the rest by `second`. Each inner
/// strategy sees a view restricted to its own identities, so the two halves can run
/// completely different attacks in the same execution (e.g. equivocate on votes while
/// the other half poisons the candidate set).
pub struct Collusion<A, B> {
    first: A,
    second: B,
    first_count: usize,
}

impl<A, B> Collusion<A, B> {
    /// Creates a collusion of `first` (driving the first `first_count` identities)
    /// and `second` (driving the remainder).
    pub fn new(first: A, first_count: usize, second: B) -> Self {
        Collusion {
            first,
            second,
            first_count,
        }
    }
}

impl<P, A: Adversary<P>, B: Adversary<P>> Adversary<P> for Collusion<A, B> {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        let split = self.first_count.min(view.byzantine_ids.len());
        let (first_ids, second_ids) = view.byzantine_ids.split_at(split);
        let first_view = AdversaryView {
            round: view.round,
            correct_ids: view.correct_ids,
            byzantine_ids: first_ids,
            correct_traffic: view.correct_traffic,
        };
        let second_view = AdversaryView {
            round: view.round,
            correct_ids: view.correct_ids,
            byzantine_ids: second_ids,
            correct_traffic: view.correct_traffic,
        };
        let mut out = self.first.step(&first_view);
        out.extend(self.second.step(&second_view));
        out
    }
}

/// Seeded random traffic: each round, every Byzantine identity sends a generated
/// payload to each correct node independently with probability `rate`. The payload
/// generator receives the RNG and the recipient, so it can produce per-recipient
/// (equivocating) garbage.
///
/// The noise adversary is the "fuzzing" end of the spectrum — it rarely finds the
/// worst case on its own, but it exercises parsing and counting paths that the
/// targeted strategies never touch, and it composes well with [`Collusion`].
pub struct NoiseAdversary<P, G>
where
    G: FnMut(&mut SimRng, NodeId) -> P,
{
    rng: SimRng,
    rate: f64,
    generator: G,
}

impl<P, G> NoiseAdversary<P, G>
where
    G: FnMut(&mut SimRng, NodeId) -> P,
{
    /// Creates a noise adversary sending to each `(byzantine, correct)` pair with the
    /// given per-round probability.
    pub fn new(seed: u64, rate: f64, generator: G) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        NoiseAdversary {
            rng: seeded_rng(seed),
            rate,
            generator,
        }
    }
}

impl<P, G> Adversary<P> for NoiseAdversary<P, G>
where
    P: std::hash::Hash,
    G: FnMut(&mut SimRng, NodeId) -> P,
{
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        let mut out = Vec::new();
        for &from in view.byzantine_ids {
            for &to in view.correct_ids {
                if self.rng.gen_bool(self.rate) {
                    let payload = (self.generator)(&mut self.rng, to);
                    out.push(Directed::new(from, to, payload));
                }
            }
        }
        out
    }
}

/// Wraps an adversary and edits each injected message's payload in place,
/// through the message plane's copy-on-write path ([`Shared::modify`](crate::shared::Shared::modify)): a
/// payload whose handle is shared (e.g. an inner strategy replaying honest
/// traffic, or fanning one fabrication out to many recipients) is cloned
/// exactly once at the first edit; a payload the inner strategy owns uniquely
/// is mutated in place, paying nothing. This is the generic "corrupt what you
/// relay" attacker — compose it over [`crate::adversary::ReplayAdversary`] to
/// turn zero-copy replay into a tampering man-in-the-middle.
pub struct TamperAdversary<A, F> {
    inner: A,
    tamper: F,
}

impl<A, F> TamperAdversary<A, F> {
    /// Wraps `inner`; `tamper` receives the round, the recipient and the
    /// payload to edit.
    pub fn new(inner: A, tamper: F) -> Self {
        TamperAdversary { inner, tamper }
    }
}

impl<P, A, F> Adversary<P> for TamperAdversary<A, F>
where
    P: Clone + std::hash::Hash,
    A: Adversary<P>,
    F: FnMut(u64, NodeId, &mut P),
{
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        let mut out = self.inner.step(view);
        for message in &mut out {
            message
                .payload
                .modify(|payload| (self.tamper)(view.round, message.to, payload));
        }
        out
    }
}

/// Wraps an adversary and records, per round, how many messages it injected. Tests
/// that claim "the protocol survived attack X" use this to also assert that attack X
/// actually produced traffic — a regression in an attack strategy would otherwise
/// silently turn the test into a no-fault run.
pub struct RecordingAdversary<A> {
    inner: A,
    injected_per_round: Vec<(u64, usize)>,
}

impl<A> RecordingAdversary<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        RecordingAdversary {
            inner,
            injected_per_round: Vec::new(),
        }
    }

    /// `(round, injected message count)` pairs, in execution order.
    pub fn injected_per_round(&self) -> &[(u64, usize)] {
        &self.injected_per_round
    }

    /// Total messages injected so far.
    pub fn total_injected(&self) -> usize {
        self.injected_per_round.iter().map(|(_, c)| c).sum()
    }

    /// Consumes the wrapper and returns the inner adversary.
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<P, A: Adversary<P>> Adversary<P> for RecordingAdversary<A> {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        let out = self.inner.step(view);
        self.injected_per_round.push((view.round, out.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::FnAdversary;
    use crate::traffic::RoundTraffic;

    static CORRECT: [NodeId; 3] = [NodeId::new(2), NodeId::new(4), NodeId::new(5)];
    static BYZ: [NodeId; 2] = [NodeId::new(90), NodeId::new(91)];

    fn view(round: u64, traffic: &RoundTraffic<u32>) -> AdversaryView<'_, u32> {
        AdversaryView {
            round,
            correct_ids: &CORRECT,
            byzantine_ids: &BYZ,
            correct_traffic: traffic,
        }
    }

    /// An adversary where every Byzantine identity sends `7` to every correct node.
    fn flooder() -> impl Adversary<u32> {
        FnAdversary::new(|v: &AdversaryView<'_, u32>| {
            let mut out = Vec::new();
            for &from in v.byzantine_ids {
                for &to in v.correct_ids {
                    out.push(Directed::new(from, to, 7u32));
                }
            }
            out
        })
    }

    #[test]
    fn round_window_restricts_activity() {
        let mut adv = RoundWindow::new(flooder(), 2, 3);
        let t = RoundTraffic::from_directed(vec![]);
        assert!(adv.step(&view(1, &t)).is_empty());
        assert_eq!(adv.step(&view(2, &t)).len(), 6);
        assert_eq!(adv.step(&view(3, &t)).len(), 6);
        assert!(adv.step(&view(4, &t)).is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn round_window_rejects_inverted_interval() {
        let _ = RoundWindow::new(flooder(), 5, 4);
    }

    #[test]
    fn staggered_crash_is_deterministic_and_monotone() {
        let adv = StaggeredCrash::new(flooder(), 11, 2, 6);
        let again = StaggeredCrash::new(flooder(), 11, 2, 6);
        for i in 0..4 {
            assert_eq!(
                adv.crash_round(i),
                again.crash_round(i),
                "same seed, same schedule"
            );
            assert!((2..=6).contains(&adv.crash_round(i)));
        }
    }

    #[test]
    fn staggered_crash_silences_identities_after_their_round() {
        let mut adv = StaggeredCrash::new(flooder(), 3, 2, 4);
        let t = RoundTraffic::from_directed(vec![]);
        // Before any crash round everyone floods.
        assert_eq!(adv.step(&view(1, &t)).len(), 6);
        // Far past the latest crash round, everyone is silent.
        assert!(adv.step(&view(100, &t)).is_empty());
        // In between, only non-crashed identities speak.
        let crash0 = adv.crash_round(0);
        let mid = adv.step(&view(crash0, &t));
        assert!(
            mid.iter().all(|m| m.from != BYZ[0]),
            "identity 0 is silent from its crash round"
        );
    }

    #[test]
    fn collusion_splits_identities_between_strategies() {
        let first = FnAdversary::new(|v: &AdversaryView<'_, u32>| {
            v.byzantine_ids
                .iter()
                .map(|&from| Directed::new(from, CORRECT[0], 1u32))
                .collect()
        });
        let second = FnAdversary::new(|v: &AdversaryView<'_, u32>| {
            v.byzantine_ids
                .iter()
                .map(|&from| Directed::new(from, CORRECT[1], 2u32))
                .collect()
        });
        let mut adv = Collusion::new(first, 1, second);
        let t = RoundTraffic::from_directed(vec![]);
        let out = adv.step(&view(1, &t));
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Directed::new(BYZ[0], CORRECT[0], 1)));
        assert!(out.contains(&Directed::new(BYZ[1], CORRECT[1], 2)));
    }

    #[test]
    fn collusion_with_oversized_split_gives_everything_to_first() {
        let first = flooder();
        let second = FnAdversary::new(|_: &AdversaryView<'_, u32>| vec![]);
        let mut adv = Collusion::new(first, 10, second);
        let t = RoundTraffic::from_directed(vec![]);
        assert_eq!(adv.step(&view(1, &t)).len(), 6);
    }

    #[test]
    fn noise_adversary_is_seed_deterministic_and_rate_bounded() {
        let run = |seed: u64| {
            let mut adv =
                NoiseAdversary::new(seed, 0.5, |rng: &mut SimRng, _to| rng.gen_range(0u32..100));
            let t = RoundTraffic::from_directed(vec![]);
            let mut all = Vec::new();
            for round in 1..=20 {
                all.extend(adv.step(&view(round, &t)));
            }
            all
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the same noise");
        let c = run(8);
        assert_ne!(a, c, "different seeds should differ");
        // 2 byzantine × 3 correct × 20 rounds = 120 opportunities at rate 0.5.
        assert!(!a.is_empty() && a.len() < 120);
        assert!(a
            .iter()
            .all(|m| BYZ.contains(&m.from) && CORRECT.contains(&m.to)));
    }

    #[test]
    fn noise_rate_zero_and_one_are_exact() {
        let t = RoundTraffic::from_directed(vec![]);
        let mut silent = NoiseAdversary::new(1, 0.0, |_: &mut SimRng, _| 0u32);
        assert!(silent.step(&view(1, &t)).is_empty());
        let mut full = NoiseAdversary::new(1, 1.0, |_: &mut SimRng, _| 0u32);
        assert_eq!(full.step(&view(1, &t)).len(), 6);
    }

    #[test]
    fn tamper_adversary_edits_through_copy_on_write() {
        use crate::adversary::ReplayAdversary;
        use crate::traffic::TrafficItem;

        // The template correct node (n2, the smallest id) broadcasts 100; the
        // replay adversary forwards the *handle* to the even-raw-id correct
        // nodes, and the tamper wrapper corrupts each forwarded copy.
        let mut traffic = RoundTraffic::new();
        traffic.begin_round(CORRECT.iter().copied().chain(BYZ.iter().copied()));
        traffic.push_broadcast(CORRECT[0], 100u32);

        let before = crate::shared::thread_allocations();
        let mut adv =
            TamperAdversary::new(ReplayAdversary::new(true), |round, _to, p: &mut u32| {
                *p += round as u32;
            });
        let out = adv.step(&view(3, &traffic));
        // Replay reaches the even-raw-id correct nodes (n2, n4) per Byzantine
        // identity: 2 × 2 messages, every payload tampered to 103.
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|m| m.payload == 103));
        // Copy-on-write: every forwarded handle shares the broadcast's one
        // allocation, so each tampered copy pays exactly one clone — and the
        // honest payload in the traffic is untouched.
        assert_eq!(
            crate::shared::thread_allocations() - before,
            out.len() as u64
        );
        let TrafficItem::Broadcast { payload, .. } = &traffic.items()[0] else {
            panic!("broadcast item");
        };
        assert_eq!(*payload, 100u32, "the honest payload is never edited");

        // A uniquely owned payload (fabricated by the inner strategy) is edited
        // in place: the tamper layer adds zero allocations on top.
        let before = crate::shared::thread_allocations();
        let inner = FnAdversary::new(|v: &AdversaryView<'_, u32>| {
            vec![Directed::new(v.byzantine_ids[0], CORRECT[0], 7u32)]
        });
        let mut adv = TamperAdversary::new(inner, |_round, _to, p: &mut u32| *p = 9);
        let out = adv.step(&view(1, &traffic));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, 9u32);
        assert_eq!(
            crate::shared::thread_allocations() - before,
            1,
            "one fabrication, zero tamper clones"
        );
    }

    #[test]
    fn recording_adversary_counts_injections() {
        let mut adv = RecordingAdversary::new(RoundWindow::new(flooder(), 2, 2));
        let t = RoundTraffic::from_directed(vec![]);
        adv.step(&view(1, &t));
        adv.step(&view(2, &t));
        adv.step(&view(3, &t));
        assert_eq!(adv.injected_per_round(), &[(1, 0), (2, 6), (3, 0)]);
        assert_eq!(adv.total_injected(), 6);
        let _inner = adv.into_inner();
    }
}
