//! Oracle for Theorem 1: the reliable-broadcast properties (Section V).
//!
//! The oracle looks at, for every correct node, the list of [`Accepted`] records it
//! produced for a designated sender `s`, plus ground truth only the test harness
//! knows: whether `s` was correct and, if so, what it actually broadcast. It checks
//!
//! * **Correctness** — a correct sender's message is accepted by every correct node;
//! * **Unforgeability** — if the sender is correct, nothing it did not broadcast is
//!   accepted by any correct node;
//! * **Relay** — if any correct node accepts `(m, s)` in round `r`, every correct node
//!   accepts `(m, s)` by round `r + 1`;
//! * **Consistency** — all correct nodes accept exactly the same set of values for
//!   `s` by the end of the run (the property a Byzantine, equivocating sender must not
//!   be able to break).
//!
//! Consistency is implied by relay for long-enough runs; it is checked separately so
//! that a too-short run (where relay has not had its extra round yet) is reported as a
//! relay issue, not silently accepted.

use std::collections::BTreeSet;
use std::fmt::Debug;

use uba_core::reliable_broadcast::{Accepted, ReliableBroadcast};
use uba_simnet::{NodeId, Protocol};

use crate::report::CheckReport;

/// The acceptance records of one correct node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeAcceptances<M> {
    /// The observing node.
    pub node: NodeId,
    /// Everything it accepted for the designated sender, in acceptance order.
    pub accepted: Vec<Accepted<M>>,
}

/// Ground truth about the designated sender, known to the harness but not to nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SenderTruth<M> {
    /// The sender is correct and broadcast exactly this message in round 1.
    Correct(M),
    /// The sender is Byzantine (no statement about what it sent to whom).
    Byzantine,
}

/// Collects acceptance observations from protocol nodes.
pub fn observe<M: Clone + Ord + Debug + std::hash::Hash + Send + Sync>(
    nodes: &[ReliableBroadcast<M>],
) -> Vec<NodeAcceptances<M>> {
    nodes
        .iter()
        .map(|n| NodeAcceptances {
            node: n.id(),
            accepted: n.accepted().to_vec(),
        })
        .collect()
}

/// Runs the Theorem 1 oracle. `final_round` is the last round the execution ran; the
/// relay check only requires acceptance by `r + 1` when `r + 1 <= final_round`.
pub fn check_reliable_broadcast<M: Clone + Ord + Debug>(
    truth: &SenderTruth<M>,
    observations: &[NodeAcceptances<M>],
    final_round: u64,
) -> CheckReport {
    let mut report = CheckReport::new();

    // Correctness and unforgeability only apply to a correct sender.
    if let SenderTruth::Correct(message) = truth {
        for obs in observations {
            report.expect(
                obs.accepted.iter().any(|a| &a.message == message),
                "reliable-broadcast/correctness",
                || {
                    format!(
                        "correct sender broadcast {message:?} but node {} never accepted it \
                         (accepted: {:?})",
                        obs.node, obs.accepted
                    )
                },
            );
            for accepted in &obs.accepted {
                report.expect(
                    &accepted.message == message,
                    "reliable-broadcast/unforgeability",
                    || {
                        format!(
                            "node {} accepted {:?} which the correct sender never broadcast \
                             (it broadcast {message:?})",
                            obs.node, accepted.message
                        )
                    },
                );
            }
        }
    }

    // Consistency: by the end of the run every correct node accepted the same set.
    let accepted_sets: Vec<BTreeSet<&M>> = observations
        .iter()
        .map(|obs| obs.accepted.iter().map(|a| &a.message).collect())
        .collect();
    if let Some(first) = accepted_sets.first() {
        for (obs, set) in observations.iter().zip(&accepted_sets).skip(1) {
            report.expect(set == first, "reliable-broadcast/consistency", || {
                format!(
                    "node {} accepted {:?} but node {} accepted {:?}",
                    observations[0].node, first, obs.node, set
                )
            });
        }
    }

    // Relay: if some correct node accepts (m, s) in round r, every correct node
    // accepts (m, s) by round r + 1 (when the run lasted long enough to see it).
    let mut earliest: Vec<(&M, u64)> = Vec::new();
    for obs in observations {
        for accepted in &obs.accepted {
            match earliest.iter_mut().find(|(m, _)| *m == &accepted.message) {
                Some((_, round)) => *round = (*round).min(accepted.round),
                None => earliest.push((&accepted.message, accepted.round)),
            }
        }
    }
    for (message, first_round) in earliest {
        let deadline = first_round + 1;
        if deadline > final_round {
            continue; // The run ended before the relay deadline; nothing to check.
        }
        for obs in observations {
            report.expect(
                obs.accepted
                    .iter()
                    .any(|a| &a.message == message && a.round <= deadline),
                "reliable-broadcast/relay",
                || {
                    format!(
                        "{message:?} was first accepted in round {first_round} but node {} had \
                         not accepted it by round {deadline}",
                        obs.node
                    )
                },
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(message: u64, round: u64) -> Accepted<u64> {
        Accepted {
            message,
            source: NodeId::new(1),
            round,
        }
    }

    fn obs(node: u64, accepted: Vec<Accepted<u64>>) -> NodeAcceptances<u64> {
        NodeAcceptances {
            node: NodeId::new(node),
            accepted,
        }
    }

    #[test]
    fn correct_sender_accepted_everywhere_passes() {
        let observations = vec![
            obs(10, vec![acc(42, 3)]),
            obs(11, vec![acc(42, 3)]),
            obs(12, vec![acc(42, 4)]),
        ];
        let report = check_reliable_broadcast(&SenderTruth::Correct(42), &observations, 10);
        report.assert_passed("correct sender");
        assert!(report.checks > 0);
    }

    #[test]
    fn missing_acceptance_violates_correctness() {
        let observations = vec![obs(10, vec![acc(42, 3)]), obs(11, vec![])];
        let report = check_reliable_broadcast(&SenderTruth::Correct(42), &observations, 10);
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.property == "reliable-broadcast/correctness"));
    }

    #[test]
    fn forged_acceptance_violates_unforgeability() {
        let observations = vec![
            obs(10, vec![acc(42, 3), acc(99, 4)]),
            obs(11, vec![acc(42, 3)]),
        ];
        let report = check_reliable_broadcast(&SenderTruth::Correct(42), &observations, 10);
        assert!(report
            .violations
            .iter()
            .any(|v| v.property == "reliable-broadcast/unforgeability"));
    }

    #[test]
    fn byzantine_sender_with_diverging_accept_sets_violates_consistency() {
        let observations = vec![obs(10, vec![acc(1, 3)]), obs(11, vec![acc(2, 3)])];
        let report = check_reliable_broadcast(&SenderTruth::Byzantine, &observations, 10);
        assert!(report
            .violations
            .iter()
            .any(|v| v.property == "reliable-broadcast/consistency"));
    }

    #[test]
    fn byzantine_sender_accepted_nowhere_is_fine() {
        let observations = vec![obs(10, vec![]), obs(11, vec![]), obs(12, vec![])];
        check_reliable_broadcast(&SenderTruth::Byzantine, &observations, 10)
            .assert_passed("accepting nothing from a Byzantine sender is allowed");
    }

    #[test]
    fn late_acceptance_violates_relay() {
        // Node 10 accepts in round 3, node 11 only in round 6 — relay requires round 4.
        let observations = vec![obs(10, vec![acc(7, 3)]), obs(11, vec![acc(7, 6)])];
        let report = check_reliable_broadcast(&SenderTruth::Byzantine, &observations, 10);
        assert!(report
            .violations
            .iter()
            .any(|v| v.property == "reliable-broadcast/relay"));
    }

    #[test]
    fn relay_deadline_beyond_run_end_is_not_enforced() {
        // First acceptance in the very last round of the run: the +1 deadline is past
        // the end of the execution, so the missing acceptance at node 11 is not a
        // relay violation (but it is still a consistency one).
        let observations = vec![obs(10, vec![acc(7, 10)]), obs(11, vec![])];
        let report = check_reliable_broadcast(&SenderTruth::Byzantine, &observations, 10);
        assert!(!report
            .violations
            .iter()
            .any(|v| v.property == "reliable-broadcast/relay"));
        assert!(report
            .violations
            .iter()
            .any(|v| v.property == "reliable-broadcast/consistency"));
    }

    #[test]
    fn observe_extracts_node_states() {
        let sender = ReliableBroadcast::sender(NodeId::new(5), 1u64);
        let receiver = ReliableBroadcast::receiver(NodeId::new(6), NodeId::new(5));
        let observations = observe(&[sender, receiver]);
        assert_eq!(observations.len(), 2);
        assert_eq!(observations[0].node, NodeId::new(5));
        assert!(observations[1].accepted.is_empty());
    }
}
