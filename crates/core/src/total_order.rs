//! Total ordering of events in a dynamic network (Algorithm 6, Section XI).
//!
//! The most useful agreement task in a network whose membership keeps changing is not
//! a one-shot decision but an ever-growing, totally ordered log of events — the
//! abstraction a permissionless ledger provides. Algorithm 6 builds it by running one
//! [`ParallelConsensus`] instance *per round*: each node that witnesses an event
//! broadcasts it tagged with its current round number, everybody collects the
//! `(witness, event)` pairs of the previous round as the input pairs of that round's
//! instance, and the decided pairs of old-enough ("final") instances are appended to
//! the log in round order (ties broken by witness identifier).
//!
//! Dynamic membership is handled with three plain messages: a joiner broadcasts
//! `present`, existing members answer `(ack, r)` so the joiner can adopt the correct
//! round number (by majority) and learn the member set `S`, and a leaver broadcasts
//! `absent`. The adversary may add nodes before any round as long as `n > 3f` keeps
//! holding — the guarantee the whole construction rests on.
//!
//! The two properties proved in Theorem 6 and checked by the tests and experiment E9:
//!
//! * **Chain-prefix** — the logs of any two correct nodes are prefixes of one another;
//! * **Chain-growth** — the log keeps growing as long as correct nodes keep
//!   submitting events.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use uba_simnet::{Envelope, NodeId, Outgoing, Protocol, Recoverable, RoundContext};

use crate::early_consensus::ParallelMessage;
use crate::parallel_consensus::ParallelConsensus;
use crate::value::Opinion;

/// Wire messages of the total-ordering protocol.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TotalOrderMessage<E> {
    /// A joining node announcing itself.
    Present,
    /// `(ack, r)`: an existing member telling a joiner the current round number.
    Ack(u64),
    /// A leaving node announcing its departure.
    Absent,
    /// An event witnessed by the sender in the tagged round.
    Event(u64, E),
    /// A message belonging to the parallel-consensus instance of the tagged round.
    Instance(u64, ParallelMessage<E>),
}

/// One entry of the totally ordered log.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderedEvent<E> {
    /// The round whose consensus instance ordered the event.
    pub round: u64,
    /// The node that witnessed and submitted the event.
    pub witness: NodeId,
    /// The event itself.
    pub event: E,
}

/// Checks the agreement between finalised logs, restricted to the rounds the logs
/// have in common.
///
/// A node that joined late cannot know events finalised before it joined (the paper's
/// join protocol transfers no history), so its log starts later; likewise two nodes
/// may have finalised up to different rounds. The chain-prefix property therefore
/// amounts to: for every pair of logs, the entries for the rounds covered by both are
/// identical. Returns `true` when that holds for every pair.
pub fn chains_agree<E: Opinion>(chains: &[Vec<OrderedEvent<E>>]) -> bool {
    for a in chains {
        for b in chains {
            let (Some(a_first), Some(b_first)) = (a.first(), b.first()) else {
                continue;
            };
            let (Some(a_last), Some(b_last)) = (a.last(), b.last()) else {
                continue;
            };
            let lo = a_first.round.max(b_first.round);
            let hi = a_last.round.min(b_last.round);
            let a_window: Vec<&OrderedEvent<E>> = a
                .iter()
                .filter(|e| e.round >= lo && e.round <= hi)
                .collect();
            let b_window: Vec<&OrderedEvent<E>> = b
                .iter()
                .filter(|e| e.round >= lo && e.round <= hi)
                .collect();
            if a_window != b_window {
                return false;
            }
        }
    }
    true
}

/// A per-round consensus instance together with the membership snapshot it runs
/// against ("running a parallel consensus instance with respect to `S`").
#[derive(Clone, Debug)]
struct RoundInstance<E: Opinion> {
    consensus: ParallelConsensus<E>,
    /// The member set recorded when the instance started.
    members: BTreeSet<NodeId>,
    /// Local round counter of the embedded instance.
    local_round: u64,
    /// Decided pairs (witness raw id → event), filled once the instance terminates.
    decided: Option<BTreeMap<u64, E>>,
}

/// A node running Algorithm 6.
#[derive(Clone, Debug)]
pub struct TotalOrderNode<E: Opinion> {
    id: NodeId,
    /// Whether the node has completed the join handshake.
    joined: bool,
    /// Local step counter used only while joining (to know when the acks are in).
    local_steps: u64,
    /// The node's current round number `r` (meaningful once joined).
    round: u64,
    /// The current member set `S`.
    members: BTreeSet<NodeId>,
    /// Events submitted by the application, waiting to be broadcast (one per round).
    pending_events: Vec<E>,
    /// Whether the node has announced (or wants to announce) that it is leaving.
    leaving: bool,
    announced_leave: bool,
    /// Whether the node has already broadcast `present` (founders do it in their first
    /// round so that every founder learns the initial membership; joiners do it as
    /// part of the join handshake).
    announced_presence: bool,
    /// Per-round consensus instances, keyed by the round that created them.
    /// Each sits behind an `Arc` so a snapshot shares it with the live node:
    /// a decided instance is never mutated again, and an undecided one is
    /// copied (once) by `Arc::make_mut` on its next step.
    instances: BTreeMap<u64, Arc<RoundInstance<E>>>,
    /// The finalised log.
    chain: Vec<OrderedEvent<E>>,
    /// Largest round up to which every round is final and appended to the chain.
    finalized_upto: u64,
    /// The first round this node participated in (instances before it do not exist).
    first_round: u64,
}

impl<E: Opinion> TotalOrderNode<E> {
    /// Creates a founding member: it is part of the system from round 0 and needs no
    /// join handshake.
    pub fn founding(id: NodeId) -> Self {
        TotalOrderNode {
            id,
            joined: true,
            local_steps: 0,
            round: 0,
            members: BTreeSet::from([id]),
            pending_events: Vec::new(),
            leaving: false,
            announced_leave: false,
            announced_presence: false,
            instances: BTreeMap::new(),
            chain: Vec::new(),
            finalized_upto: 0,
            first_round: 1,
        }
    }

    /// Creates a node that wants to join a running system: it broadcasts `present`,
    /// adopts the majority round number from the acks and only then participates.
    pub fn joining(id: NodeId) -> Self {
        TotalOrderNode {
            id,
            joined: false,
            local_steps: 0,
            round: 0,
            members: BTreeSet::from([id]),
            pending_events: Vec::new(),
            leaving: false,
            announced_leave: false,
            announced_presence: true,
            instances: BTreeMap::new(),
            chain: Vec::new(),
            finalized_upto: 0,
            first_round: 0,
        }
    }

    /// Submits an event to be ordered; it is broadcast in the node's next round.
    pub fn submit_event(&mut self, event: E) {
        self.pending_events.push(event);
    }

    /// Announces that the node wants to leave. It broadcasts `absent` in its next
    /// round and keeps participating in outstanding instances until the driver
    /// removes it.
    pub fn announce_leave(&mut self) {
        self.leaving = true;
    }

    /// Whether the node has completed the join handshake.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// The node's current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The node's current member set `S`.
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.members
    }

    /// The finalised, totally ordered log.
    pub fn chain(&self) -> &[OrderedEvent<E>] {
        &self.chain
    }

    /// The largest round up to which the log is final.
    pub fn finalized_upto(&self) -> u64 {
        self.finalized_upto
    }

    /// The finality rule of Algorithm 6 (line 28): round `r'` is final at round `r`
    /// if `r − r' > 5·|S_{r'}|/2 + 2`, evaluated in exact arithmetic.
    fn is_final(current_round: u64, instance_round: u64, members_at_start: usize) -> bool {
        let age = current_round.saturating_sub(instance_round);
        2 * age > 5 * members_at_start as u64 + 4
    }

    /// Advances finalisation and appends newly final rounds to the chain, in order.
    fn advance_finality(&mut self) {
        loop {
            let next = self.finalized_upto.max(self.first_round.saturating_sub(1)) + 1;
            if next >= self.round {
                break;
            }
            let Some(instance) = self.instances.get(&next) else {
                break;
            };
            if !Self::is_final(self.round, next, instance.members.len()) {
                break;
            }
            let Some(decided) = &instance.decided else {
                break;
            };
            for (witness_raw, event) in decided {
                self.chain.push(OrderedEvent {
                    round: next,
                    witness: NodeId::new(*witness_raw),
                    event: event.clone(),
                });
            }
            self.finalized_upto = next;
            // The instance is no longer needed; drop its state to bound memory.
            self.instances.remove(&next);
        }
    }
}

impl<E: Opinion + 'static> Recoverable for TotalOrderNode<E> {
    /// A clone that shares every instance with the live node (copy-on-write):
    /// its cost is the node's own fields plus one reference count per
    /// instance, not the instances' consensus state.
    fn snapshot(&self) -> Self {
        self.clone()
    }
}

impl<E: Opinion + 'static> Protocol for TotalOrderNode<E> {
    type Payload = TotalOrderMessage<E>;
    type Output = Vec<OrderedEvent<E>>;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        _ctx: &RoundContext,
        inbox: &[Envelope<TotalOrderMessage<E>>],
    ) -> Vec<Outgoing<TotalOrderMessage<E>>> {
        self.local_steps += 1;
        let mut out: Vec<Outgoing<TotalOrderMessage<E>>> = Vec::new();

        // Join handshake (lines 1–6).
        if !self.joined {
            match self.local_steps {
                1 => return vec![Outgoing::broadcast(TotalOrderMessage::Present)],
                2 => return Vec::new(),
                _ => {
                    let mut acks: BTreeMap<u64, usize> = BTreeMap::new();
                    let mut senders: BTreeSet<NodeId> = BTreeSet::new();
                    for envelope in inbox {
                        if let TotalOrderMessage::Ack(r) = envelope.payload() {
                            *acks.entry(*r).or_default() += 1;
                            senders.insert(envelope.from);
                        }
                    }
                    let Some((&r0, _)) = acks.iter().max_by_key(|(_, count)| **count) else {
                        // No acks yet; keep waiting.
                        return Vec::new();
                    };
                    self.round = r0 + 1;
                    self.first_round = self.round + 1;
                    self.finalized_upto = self.round;
                    self.members = senders;
                    self.members.insert(self.id);
                    self.joined = true;
                    return Vec::new();
                }
            }
        }

        // Line 8: advance the round.
        self.round += 1;
        let r = self.round;

        // Founders make themselves known to each other in their first round, so that
        // the member set S reflects the initial membership.
        if !self.announced_presence {
            self.announced_presence = true;
            out.push(Outgoing::broadcast(TotalOrderMessage::Present));
        }

        // Lines 10–20: membership messages.
        let mut event_inputs: Vec<(u64, E)> = Vec::new();
        let mut instance_inbox: BTreeMap<u64, Vec<Envelope<ParallelMessage<E>>>> = BTreeMap::new();
        for envelope in inbox {
            match envelope.payload() {
                TotalOrderMessage::Present => {
                    self.members.insert(envelope.from);
                    out.push(Outgoing::unicast(envelope.from, TotalOrderMessage::Ack(r)));
                }
                TotalOrderMessage::Absent => {
                    self.members.remove(&envelope.from);
                }
                TotalOrderMessage::Ack(_) => {}
                // Line 24–26: events witnessed in the previous round become input pairs
                // of this round's instance, identified by the witnessing node.
                TotalOrderMessage::Event(tag, event) => {
                    if *tag + 1 == r {
                        event_inputs.push((envelope.from.raw(), event.clone()));
                    }
                }
                TotalOrderMessage::Instance(instance_round, _) => {
                    // Only instances that will actually be driven this round
                    // consume their inboxes: the one started this round (`r`)
                    // and the outstanding undecided ones. Traffic for decided
                    // or finalised-and-dropped instances used to be cloned
                    // here and then dropped unread; now it costs nothing. The
                    // payload itself is a borrowing projection out of the
                    // `Instance` variant — no clone of the inner message.
                    let live = *instance_round == r
                        || self
                            .instances
                            .get(instance_round)
                            .is_some_and(|instance| instance.decided.is_none());
                    if live {
                        let inner = envelope.payload.project(|payload| match payload {
                            TotalOrderMessage::Instance(_, message) => message,
                            _ => unreachable!("projecting a non-instance payload"),
                        });
                        instance_inbox
                            .entry(*instance_round)
                            .or_default()
                            .push(Envelope::new(envelope.from, inner));
                    }
                }
            }
        }

        // Lines 14–17: leaving.
        if self.leaving && !self.announced_leave {
            self.announced_leave = true;
            out.push(Outgoing::broadcast(TotalOrderMessage::Absent));
        }

        // Lines 21–23: broadcast one witnessed event, tagged with the current round.
        if !self.pending_events.is_empty() && !self.leaving {
            let event = self.pending_events.remove(0);
            out.push(Outgoing::broadcast(TotalOrderMessage::Event(r, event)));
        }

        // Line 27: start this round's parallel consensus instance with the collected
        // pairs, with respect to the current member set. Leaving nodes only finish
        // outstanding instances and do not start new ones.
        if !self.leaving {
            let consensus = ParallelConsensus::new(self.id, event_inputs);
            self.instances.insert(
                r,
                Arc::new(RoundInstance {
                    consensus,
                    members: self.members.clone(),
                    local_round: 0,
                    decided: None,
                }),
            );
        }

        // Drive every outstanding instance by one (local) round.
        for (&instance_round, instance) in self.instances.iter_mut() {
            if instance.decided.is_some() {
                continue;
            }
            let instance = Arc::make_mut(instance);
            instance.local_round += 1;
            let inner_ctx = RoundContext::new(instance.local_round);
            let inbox: Vec<Envelope<ParallelMessage<E>>> = instance_inbox
                .remove(&instance_round)
                .unwrap_or_default()
                .into_iter()
                .filter(|e| instance.members.contains(&e.from))
                .collect();
            for message in instance.consensus.step(&inner_ctx, &inbox) {
                out.push(Outgoing {
                    dest: message.dest,
                    payload: TotalOrderMessage::Instance(instance_round, message.payload),
                });
            }
            if let Some(decision) = instance.consensus.decision() {
                instance.decided = Some(decision.pairs.clone());
            }
        }

        // Lines 28–30: finality and chain construction.
        self.advance_finality();

        out
    }

    fn output(&self) -> Option<Vec<OrderedEvent<E>>> {
        Some(self.chain.clone())
    }

    /// Total ordering never terminates; the driver decides how long to run.
    fn terminated(&self) -> bool {
        false
    }

    fn instance_of(&self, payload: &TotalOrderMessage<E>) -> Option<u64> {
        match payload {
            TotalOrderMessage::Instance(round, _) => Some(*round),
            // An event witnessed in round `t` is input to round `t + 1`'s
            // instance, so that is the instance whose retirement makes it dead.
            TotalOrderMessage::Event(round, _) => Some(round + 1),
            // Membership traffic is never instance-scoped.
            TotalOrderMessage::Present | TotalOrderMessage::Ack(_) | TotalOrderMessage::Absent => {
                None
            }
        }
    }

    fn retired_frontier(&self) -> u64 {
        // Every instance ≤ `finalized_upto` is decided, appended to the chain
        // and dropped from `instances`; the finality rule keeps the node's
        // round far past the window in which an event for such an instance
        // could still become an input (`tag + 1 == r`). So everything strictly
        // below `finalized_upto` can never be read or sent again — exactly the
        // frontier contract. (A fresh joiner reports its adopted base round,
        // which by the same argument it will never look behind.)
        self.finalized_upto
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::shared::payload_digest;
    use uba_simnet::{Destination, IdSpace, Shared, SyncEngine};

    type Node = TotalOrderNode<u64>;

    fn founders(n: usize, seed: u64) -> Vec<Node> {
        IdSpace::default()
            .generate(n, seed)
            .into_iter()
            .map(TotalOrderNode::founding)
            .collect()
    }

    fn assert_chain_prefix(chains: &[Vec<OrderedEvent<u64>>]) {
        for a in chains {
            for b in chains {
                let short = a.len().min(b.len());
                assert_eq!(&a[..short], &b[..short], "chain-prefix violated");
            }
        }
    }

    #[test]
    fn events_are_ordered_identically_at_all_nodes() {
        let mut engine = SyncEngine::new(founders(4, 1), SilentAdversary, vec![]);
        // Submit one event per node in each of the first 5 rounds, then run long
        // enough for those rounds to become final.
        for round in 0..5u64 {
            for (i, node) in engine.nodes_mut().iter_mut().enumerate() {
                node.submit_event(round * 100 + i as u64);
            }
            engine.run_rounds(1).unwrap();
        }
        engine.run_rounds(60).unwrap();
        let chains: Vec<Vec<OrderedEvent<u64>>> =
            engine.nodes().iter().map(|n| n.chain().to_vec()).collect();
        assert!(!chains[0].is_empty(), "events must eventually be finalised");
        assert_chain_prefix(&chains);
        // All submitted events that made it into the final prefix are unique.
        let shortest = chains.iter().map(|c| c.len()).min().unwrap();
        let events: BTreeSet<u64> = chains[0][..shortest].iter().map(|e| e.event).collect();
        assert_eq!(events.len(), shortest, "no event is ordered twice");
    }

    type Inbox = Vec<Envelope<TotalOrderMessage<u64>>>;

    /// Steps every node once over its inbox and refills the inboxes with what
    /// the round sent (broadcasts include the sender). Returns node 0's inbox
    /// and the digests of what it produced.
    fn drive_round(nodes: &mut [Node], inboxes: &mut Vec<Inbox>, round: u64) -> (Inbox, Vec<u64>) {
        let ids: Vec<NodeId> = nodes.iter().map(|n| n.id()).collect();
        let consumed = std::mem::replace(inboxes, vec![Vec::new(); nodes.len()]);
        let mut sent = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let out = node.step(&RoundContext::new(round), &consumed[i]);
            if i == 0 {
                sent = out.iter().map(|m| payload_digest(&m.payload)).collect();
            }
            for message in out {
                let payload = Shared::new(message.payload);
                for (j, inbox) in inboxes.iter_mut().enumerate() {
                    if message.dest == Destination::Broadcast
                        || message.dest == Destination::Unicast(ids[j])
                    {
                        inbox.push(Envelope::new(ids[i], payload.clone()));
                    }
                }
            }
        }
        (consumed.into_iter().next().unwrap(), sent)
    }

    #[test]
    fn a_snapshot_is_isolated_from_the_live_node() {
        let mut nodes = founders(4, 6);
        let mut inboxes = vec![Vec::new(); nodes.len()];
        for round in 1..=30u64 {
            for (i, node) in nodes.iter_mut().enumerate() {
                node.submit_event(round * 10 + i as u64);
            }
            drive_round(&mut nodes, &mut inboxes, round);
        }
        let snapshot = nodes[0].snapshot();
        let (round, finalized, chain) = (
            snapshot.round(),
            snapshot.finalized_upto(),
            snapshot.chain().to_vec(),
        );
        // The snapshot shares decided-but-unfinalised instances with the live
        // node; the steps below finalise them on the live side.
        assert!(
            nodes[0]
                .instances
                .iter()
                .any(|(r, instance)| instance.decided.is_some()
                    && Arc::ptr_eq(instance, &snapshot.instances[r])),
            "the snapshot must share decided instances for this test to bite"
        );

        // Step the live node on; events reach node 0 only through its inbox.
        let mut recorded = Vec::new();
        for round in 31..=50u64 {
            for (i, node) in nodes.iter_mut().enumerate().skip(1) {
                node.submit_event(round * 10 + i as u64);
            }
            recorded.push((round, drive_round(&mut nodes, &mut inboxes, round)));
        }
        assert!(nodes[0].finalized_upto() > finalized + 10);
        assert!(nodes[0].chain().len() > chain.len());
        assert_eq!(snapshot.round(), round);
        assert_eq!(snapshot.finalized_upto(), finalized);
        assert_eq!(snapshot.chain(), &chain[..]);

        // Stepped over the same inboxes, the snapshot behaves exactly as the
        // live node did.
        let mut replica = snapshot;
        for (round, (inbox, sent)) in recorded {
            let produced: Vec<u64> = replica
                .step(&RoundContext::new(round), &inbox)
                .iter()
                .map(|m| payload_digest(&m.payload))
                .collect();
            assert_eq!(produced, sent, "round {round}");
        }
        assert_eq!(replica.round(), nodes[0].round());
        assert_eq!(replica.finalized_upto(), nodes[0].finalized_upto());
        assert_eq!(replica.chain(), nodes[0].chain());
    }

    #[test]
    fn chain_growth_with_continuous_events() {
        let mut engine = SyncEngine::new(founders(4, 2), SilentAdversary, vec![]);
        let mut lengths = Vec::new();
        for round in 0..80u64 {
            {
                let node = &mut engine.nodes_mut()[0];
                node.submit_event(round);
            }
            engine.run_rounds(1).unwrap();
            lengths.push(engine.nodes()[0].chain().len());
        }
        assert!(
            lengths.last().unwrap() > &lengths[30],
            "the chain must keep growing while events keep being submitted"
        );
    }

    #[test]
    fn chains_agree_handles_offset_and_empty_logs() {
        let ev = |round: u64, witness: u64, event: u64| OrderedEvent {
            round,
            witness: NodeId::new(witness),
            event,
        };
        let full = vec![ev(1, 1, 10), ev(2, 2, 20), ev(3, 3, 30)];
        let suffix = vec![ev(2, 2, 20), ev(3, 3, 30)];
        let empty: Vec<OrderedEvent<u64>> = vec![];
        assert!(chains_agree(&[full.clone(), suffix.clone(), empty]));
        let conflicting = vec![ev(2, 2, 99)];
        assert!(!chains_agree(&[full, conflicting]));
    }

    #[test]
    fn finality_rule_matches_the_paper_formula() {
        // |S| = 4: final once r - r' > 12, i.e. age ≥ 13.
        assert!(!TotalOrderNode::<u64>::is_final(13, 1, 4));
        assert!(TotalOrderNode::<u64>::is_final(14, 1, 4));
        // |S| = 5: 5·5/2 + 2 = 14.5, so age ≥ 15.
        assert!(!TotalOrderNode::<u64>::is_final(15, 1, 5));
        assert!(TotalOrderNode::<u64>::is_final(16, 1, 5));
    }

    #[test]
    fn joining_node_adopts_round_and_membership() {
        let mut engine = SyncEngine::new(founders(4, 3), SilentAdversary, vec![]);
        engine.run_rounds(10).unwrap();
        let joiner_id = NodeId::new(999_983);
        engine.add_node(TotalOrderNode::joining(joiner_id)).unwrap();
        engine.run_rounds(6).unwrap();
        let joiner = engine.node(joiner_id).unwrap();
        assert!(joiner.is_joined());
        assert_eq!(
            joiner.members().len(),
            5,
            "the joiner learns every acking member plus itself"
        );
        // The joiner's round tracks the founders' round (they are one step ahead at
        // most, depending on when the acks were processed).
        let founder_round = engine.nodes()[0].round();
        assert!(founder_round.abs_diff(joiner.round()) <= 1);
        // Founders learned about the joiner.
        assert!(engine.nodes()[0].members().contains(&joiner_id));
    }

    #[test]
    fn leaving_node_is_removed_from_membership() {
        let mut engine = SyncEngine::new(founders(5, 4), SilentAdversary, vec![]);
        engine.run_rounds(5).unwrap();
        let leaver = engine.correct_ids()[4];
        engine
            .nodes_mut()
            .iter_mut()
            .find(|n| n.id() == leaver)
            .unwrap()
            .announce_leave();
        engine.run_rounds(3).unwrap();
        for node in engine.nodes() {
            if node.id() != leaver {
                assert!(
                    !node.members().contains(&leaver),
                    "absent node must be dropped from S"
                );
            }
        }
    }

    #[test]
    fn submitted_events_appear_in_the_final_chain() {
        let mut engine = SyncEngine::new(founders(4, 5), SilentAdversary, vec![]);
        engine.nodes_mut()[2].submit_event(777);
        engine.run_rounds(40).unwrap();
        let chain = engine.nodes()[0].chain();
        assert!(
            chain.iter().any(|e| e.event == 777),
            "an event submitted by a correct node must eventually be ordered: {chain:?}"
        );
        assert_chain_prefix(
            &engine
                .nodes()
                .iter()
                .map(|n| n.chain().to_vec())
                .collect::<Vec<_>>(),
        );
    }
}
