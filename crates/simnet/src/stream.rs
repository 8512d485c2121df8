//! Multi-instance pipelined agreement streams.
//!
//! A single scenario runs *one* agreement; a serving workload runs a **stream**
//! of them, overlapping in time so the next instance starts before the previous
//! one decides. This module provides the generic machinery for that shape:
//!
//! * [`MuxNode`] — a node that multiplexes many instances of an inner
//!   [`Protocol`] over one wire. Every payload is tagged with the instance it
//!   belongs to (`(instance, inner)`), so a single engine round carries traffic
//!   for every in-flight instance and the tag travels through
//!   [`Envelope`](crate::message::Envelope) exactly like any other payload.
//! * [`StreamDriver`] — a [`ProtocolFactory`] that builds one inner factory per
//!   instance, staggers their start rounds (the pipeline), and records a
//!   [`StreamSection`] into the [`RunReport`] with per-instance decisions,
//!   decide rounds and batch sizes for the checker's cross-instance oracle.
//!
//! Per-round cost is proportional to the **active window**, not the horizon:
//! each step builds one tag index over the inbox (a single pass), envelopes are
//! handed to inner instances as borrowing projections
//! ([`Shared::project_second`](crate::shared::Shared::project_second) — no
//! payload clone), and decided slots are **retired** out of the scan path into
//! compact [`CompletedInstance`] records, so [`MuxNode::output`] and
//! [`MuxNode::terminated`] are O(1) counter reads and a long-finished stream
//! prefix costs nothing per round. Traffic addressed to a retired tag is
//! dropped during indexing at zero clones (counted in [`MuxWork`]); the engine
//! can additionally prune such traffic before delivery (see
//! `SyncEngine::enable_traffic_gc`). Retirement is observationally silent:
//! reports are byte-identical with it on or off (see
//! `tests/stream_equivalence.rs`), and `docs/STREAMING.md` documents the cost
//! model.
//!
//! The batching rule lives one layer up (see `docs/STREAMING.md`): client
//! requests are packed into one batch per (instance, proposer), so each
//! broadcast is **one** [`Shared`](crate::shared::Shared) arena payload no
//! matter how many requests it carries — per-delivery cost is paid once per
//! batch, not once per request.
//!
//! Streams model the fault-free serving path: the driver maps every adversary
//! kind to the silent strategy and stream scenarios run with `byzantine(0)`.
//! Under faults, per-instance safety is already covered by the single-shot
//! scenarios; the stream exists to measure pipelined throughput.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::adversary::SilentAdversary;
use crate::engine::FastState;
use crate::id::NodeId;
use crate::message::{Envelope, Outgoing};
use crate::node::{Protocol, RoundContext};
use crate::sim::{AdversaryKind, BuildContext, NamedAdversary, ProtocolFactory, RunReport};

/// One inner-protocol instance inside a [`MuxNode`].
#[derive(Clone, Debug)]
pub struct InstanceSlot<N> {
    /// The tag carried by every payload of this instance.
    pub tag: u64,
    /// Global round in which the instance starts (its local round 1).
    pub start_round: u64,
    /// The inner protocol node.
    pub node: N,
    /// Global round in which this node's instance terminated, if it has.
    pub decided_round: Option<u64>,
}

/// The compact record a decided slot retires into: everything the stream
/// report needs, without the inner node's state or a place in the scan path.
#[derive(Clone, Debug)]
pub struct CompletedInstance<N: Protocol> {
    /// The tag the instance carried on the wire.
    pub tag: u64,
    /// Global round in which the instance started.
    pub start_round: u64,
    /// Global round in which this node's instance terminated (`None` only for
    /// slots already terminated when the mux was built, which never step).
    pub decided_round: Option<u64>,
    /// The instance's final output.
    pub output: Option<N::Output>,
}

/// A live or retired instance, as seen through [`MuxNode::instance`].
pub enum InstanceState<'a, N: Protocol> {
    /// The instance still occupies a slot in the scan path.
    Live(&'a InstanceSlot<N>),
    /// The instance has decided and been retired.
    Completed(&'a CompletedInstance<N>),
}

/// Per-node demux work counters, maintained by [`MuxNode::step`]. Measurement
/// only — these never enter a [`RunReport`], so they cannot perturb the
/// byte-identity pins; the window-sweep benchmark reads them to prove per-round
/// cost tracks the active window rather than the horizon.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MuxWork {
    /// Envelopes examined while building the per-step tag index (exactly the
    /// inbox sizes summed over steps — every envelope is looked at once).
    pub envelopes_indexed: u64,
    /// Inner-instance steps executed (live slots × rounds they were live).
    pub slot_steps: u64,
    /// Envelopes dropped because their tag matched no live slot (instance
    /// already retired or never scheduled) — at zero payload clones.
    pub dropped_retired: u64,
}

/// A node multiplexing many instances of an inner [`Protocol`] over one wire.
///
/// Payloads are `(instance_tag, inner_payload)`; each round the node builds one
/// tag index over its inbox, steps every started-and-undecided instance with a
/// *local* round number (`global - start_round`) and a projected (not cloned)
/// inbox, and retags everything the instances send. An instance whose start
/// round has not arrived yet neither sends nor receives. Decided instances are
/// retired into [`CompletedInstance`] records (unless
/// [`MuxNode::set_retirement`] turned retirement off), and the node terminates
/// when the decided count reaches the instance count.
///
/// Tags are assumed dense from 0 (the [`StreamDriver`] assigns them in push
/// order); the retired frontier reported to the engine's traffic GC is the
/// length of the decided prefix.
#[derive(Clone, Debug)]
pub struct MuxNode<N: Protocol> {
    id: NodeId,
    slots: Vec<InstanceSlot<N>>,
    completed: Vec<CompletedInstance<N>>,
    completed_index: HashMap<u64, usize, FastState>,
    total: usize,
    decided: usize,
    retire: bool,
    work: MuxWork,
    frontier: u64,
    pending_decided: BTreeSet<u64>,
}

impl<N: Protocol> MuxNode<N> {
    /// Builds a mux node over the given instance slots (all for the same
    /// [`NodeId`]). Tags must be unique; start rounds must be ≥ 1.
    pub fn new(id: NodeId, slots: Vec<InstanceSlot<N>>) -> Self {
        let total = slots.len();
        let mut node = MuxNode {
            id,
            slots,
            completed: Vec::new(),
            completed_index: HashMap::default(),
            total,
            decided: 0,
            retire: true,
            work: MuxWork::default(),
            frontier: 0,
            pending_decided: BTreeSet::new(),
        };
        // A slot already terminated at build time counts as decided now and is
        // swept into `completed` lazily on the first step; `decided_round`
        // stays `None`, matching the step guard that never assigns one.
        let built_decided: Vec<u64> = node
            .slots
            .iter()
            .filter(|slot| slot.node.terminated())
            .map(|slot| slot.tag)
            .collect();
        node.decided += built_decided.len();
        for tag in built_decided {
            node.note_decided(tag);
        }
        node
    }

    /// The **live** (undecided) instance slots, in tag order.
    pub fn slots(&self) -> &[InstanceSlot<N>] {
        &self.slots
    }

    /// The retired instances, in retirement order.
    pub fn completed(&self) -> &[CompletedInstance<N>] {
        &self.completed
    }

    /// The demux work counters accumulated so far.
    pub fn work(&self) -> MuxWork {
        self.work
    }

    /// Looks an instance up by tag, live or retired.
    pub fn instance(&self, tag: u64) -> Option<InstanceState<'_, N>> {
        if let Some(&at) = self.completed_index.get(&tag) {
            return Some(InstanceState::Completed(&self.completed[at]));
        }
        self.slots
            .iter()
            .find(|slot| slot.tag == tag)
            .map(InstanceState::Live)
    }

    /// Turns retirement on or off (on by default). With retirement off,
    /// decided slots stay in the slot vector — the pre-retirement behaviour,
    /// kept byte-identical by `tests/stream_equivalence.rs`.
    pub fn set_retirement(&mut self, on: bool) {
        self.retire = on;
    }

    /// Records a decided tag and advances the contiguous decided-prefix
    /// frontier past it if possible.
    fn note_decided(&mut self, tag: u64) {
        self.pending_decided.insert(tag);
        while self.pending_decided.remove(&self.frontier) {
            self.frontier += 1;
        }
    }

    /// Moves every terminated slot out of the scan path into `completed`,
    /// preserving the order of the remaining live slots (wire-traffic
    /// byte-identity depends on slot order, so no swap-remove here).
    fn retire_terminated(&mut self) {
        let mut completed = std::mem::take(&mut self.completed);
        let index = &mut self.completed_index;
        self.slots.retain(|slot| {
            if slot.node.terminated() {
                index.insert(slot.tag, completed.len());
                completed.push(CompletedInstance {
                    tag: slot.tag,
                    start_round: slot.start_round,
                    decided_round: slot.decided_round,
                    output: slot.node.output(),
                });
                false
            } else {
                true
            }
        });
        self.completed = completed;
    }
}

impl<N: Protocol> Protocol for MuxNode<N>
where
    N::Payload: 'static,
{
    type Payload = (u64, N::Payload);
    /// The number of instances that have terminated (present once all have).
    type Output = usize;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: &[Envelope<Self::Payload>],
    ) -> Vec<Outgoing<Self::Payload>> {
        // One pass over the inbox: index envelope positions by instance tag
        // (positions, so arrival order inside each instance is preserved).
        let mut index: HashMap<u64, Vec<usize>, FastState> = HashMap::default();
        for (position, envelope) in inbox.iter().enumerate() {
            index
                .entry(envelope.payload.get().0)
                .or_default()
                .push(position);
        }
        self.work.envelopes_indexed += inbox.len() as u64;

        let mut outgoing = Vec::new();
        let mut newly_decided: Vec<u64> = Vec::new();
        let mut sweep = false;
        for slot in &mut self.slots {
            if ctx.round < slot.start_round {
                // Not started: nobody has sent for this tag yet, so a match
                // here cannot occur on the wire; drop it silently, exactly as
                // the pre-index filter ignored it.
                index.remove(&slot.tag);
                continue;
            }
            if slot.node.terminated() {
                // Reachable only with retirement off, or for a slot that was
                // terminated at build time and awaits its lazy sweep. Consume
                // the tag so the counter matches the retired path exactly.
                if let Some(positions) = index.remove(&slot.tag) {
                    self.work.dropped_retired += positions.len() as u64;
                }
                sweep = true;
                continue;
            }
            // Project each matching envelope's inner payload out of the tagged
            // tuple — a borrow of the same allocation, not a clone.
            let inner_inbox: Vec<Envelope<N::Payload>> = index
                .remove(&slot.tag)
                .unwrap_or_default()
                .into_iter()
                .map(|position| {
                    let envelope = &inbox[position];
                    Envelope::new(envelope.from, envelope.payload.project_second())
                })
                .collect();
            self.work.slot_steps += 1;
            let local = RoundContext::new(ctx.round - slot.start_round + 1);
            for sent in slot.node.step(&local, &inner_inbox) {
                outgoing.push(Outgoing {
                    dest: sent.dest,
                    payload: (slot.tag, sent.payload),
                });
            }
            if slot.node.terminated() && slot.decided_round.is_none() {
                slot.decided_round = Some(ctx.round);
                newly_decided.push(slot.tag);
                sweep = true;
            }
        }
        // Whatever is left in the index matched no slot at all: the instance
        // was already retired (or never scheduled). Zero clones were paid.
        for positions in index.into_values() {
            self.work.dropped_retired += positions.len() as u64;
        }
        self.decided += newly_decided.len();
        for tag in newly_decided {
            self.note_decided(tag);
        }
        if self.retire && sweep {
            self.retire_terminated();
        }
        outgoing
    }

    fn output(&self) -> Option<Self::Output> {
        (self.decided == self.total).then_some(self.decided)
    }

    fn terminated(&self) -> bool {
        self.decided == self.total
    }

    fn instance_of(&self, payload: &Self::Payload) -> Option<u64> {
        Some(payload.0)
    }

    fn retired_frontier(&self) -> u64 {
        self.frontier
    }
}

/// How a [`StreamDriver`] renders an inner output into the per-instance
/// agreement digest recorded in the [`StreamSection`]. Two digests are equal
/// iff the instance's decision is (for the oracle's purposes) the same.
pub type OutputDigest<N> = Arc<dyn Fn(&<N as Protocol>::Output) -> String + Send + Sync>;

/// One instance scheduled on a [`StreamDriver`].
pub struct StreamInstance<F> {
    /// Global round in which the instance starts.
    pub start_round: u64,
    /// Number of client requests batched into this instance (recorded only).
    pub batch_size: usize,
    /// The factory building this instance's nodes.
    pub factory: F,
}

/// A [`ProtocolFactory`] running a pipelined stream of inner-protocol
/// instances behind [`MuxNode`]s.
///
/// Each scheduled [`StreamInstance`] gets its own inner factory; `build_nodes`
/// builds every instance's nodes and transposes them into one [`MuxNode`] per
/// participant. Instances start at their scheduled rounds and overlap freely;
/// the run stops when all of them have terminated.
///
/// Restrictions (checked where possible, documented otherwise):
/// * inner factories must not rely on `before_round` input injection — the
///   slots are scattered across mux nodes, so there is no per-instance
///   `&mut [Node]` slice to hand them (consensus-style factories, which take
///   their inputs at construction, stream fine; total-order streams batch
///   through the plan instead and need no mux);
/// * streams are fault-free: every adversary kind maps to the silent strategy.
pub struct StreamDriver<F: ProtocolFactory> {
    name: String,
    instances: Vec<StreamInstance<F>>,
    digest: OutputDigest<F::Node>,
    retirement: bool,
}

impl<F: ProtocolFactory> StreamDriver<F> {
    /// Creates an empty driver. `inner_name` is the inner protocol's name; the
    /// driver reports as `stream(inner_name)`.
    pub fn new(inner_name: &str) -> Self {
        StreamDriver {
            name: format!("stream({inner_name})"),
            instances: Vec::new(),
            digest: Arc::new(|output| format!("{output:?}")),
            retirement: true,
        }
    }

    /// Replaces the agreement digest (default: the output's `Debug` rendering).
    /// Use this when the inner output carries per-node fields (e.g. a decide
    /// round) that must not count as disagreement.
    pub fn digest(mut self, digest: OutputDigest<F::Node>) -> Self {
        self.digest = digest;
        self
    }

    /// Turns instance retirement on or off for the built mux nodes (on by
    /// default; the off path exists for the byte-identity pins).
    pub fn retirement(mut self, on: bool) -> Self {
        self.retirement = on;
        self
    }

    /// Schedules an instance. Tags are assigned in push order, starting at 0.
    pub fn push(mut self, start_round: u64, batch_size: usize, factory: F) -> Self {
        assert!(start_round >= 1, "instance start rounds are 1-based");
        self.instances.push(StreamInstance {
            start_round,
            batch_size,
            factory,
        });
        self
    }

    /// Number of scheduled instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether no instances are scheduled.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

impl<F: ProtocolFactory> ProtocolFactory for StreamDriver<F>
where
    <F::Node as Protocol>::Payload: 'static,
{
    type Node = MuxNode<F::Node>;

    fn protocol_name(&self) -> String {
        self.name.clone()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Self::Node> {
        assert!(
            !self.instances.is_empty(),
            "a stream needs at least one scheduled instance"
        );
        let mut muxes: Vec<Vec<InstanceSlot<F::Node>>> =
            ctx.correct_ids.iter().map(|_| Vec::new()).collect();
        for (tag, instance) in self.instances.iter_mut().enumerate() {
            let nodes = instance.factory.build_nodes(ctx);
            assert_eq!(
                nodes.len(),
                ctx.correct_ids.len(),
                "inner factory built a different node count than the scenario"
            );
            for (participant, node) in nodes.into_iter().enumerate() {
                muxes[participant].push(InstanceSlot {
                    tag: tag as u64,
                    start_round: instance.start_round,
                    node,
                    decided_round: None,
                });
            }
        }
        ctx.correct_ids
            .iter()
            .zip(muxes)
            .map(|(&id, slots)| {
                let mut node = MuxNode::new(id, slots);
                node.set_retirement(self.retirement);
                node
            })
            .collect()
    }

    fn adversary(
        &self,
        _kind: AdversaryKind,
        _ctx: &BuildContext,
    ) -> NamedAdversary<<Self::Node as Protocol>::Payload> {
        // Streams measure the fault-free serving path; see the module docs.
        NamedAdversary::new("silent", SilentAdversary)
    }

    fn record(&self, _ctx: &BuildContext, nodes: &[Self::Node], report: &mut RunReport) {
        let mut instances = Vec::with_capacity(self.instances.len());
        for (tag, instance) in self.instances.iter().enumerate() {
            let mut outputs = Vec::with_capacity(nodes.len());
            let mut decide_rounds = Vec::with_capacity(nodes.len());
            for node in nodes {
                let (output, decided_round) = match node.instance(tag as u64) {
                    Some(InstanceState::Live(slot)) => (
                        slot.node.output().map(|o| (self.digest)(&o)),
                        slot.decided_round,
                    ),
                    Some(InstanceState::Completed(done)) => (
                        done.output.as_ref().map(|o| (self.digest)(o)),
                        done.decided_round,
                    ),
                    None => (None, None),
                };
                outputs.push((node.id(), output));
                decide_rounds.push((node.id(), decided_round));
            }
            let digests: Vec<&String> = outputs.iter().filter_map(|(_, d)| d.as_ref()).collect();
            let agreement = digests.windows(2).all(|pair| pair[0] == pair[1]);
            let decided = outputs.iter().all(|(_, digest)| digest.is_some());
            instances.push(StreamInstanceReport {
                instance: tag as u64,
                start_round: instance.start_round,
                batch_size: instance.batch_size,
                outputs,
                decide_rounds,
                agreement,
                decided,
            });
        }
        let agreement = instances.iter().all(|i| i.agreement);
        let completed = instances.iter().filter(|i| i.decided).count();
        report.stream = Some(StreamSection {
            instances,
            agreement,
            completed,
        });
    }
}

/// Per-instance outcome recorded by a [`StreamDriver`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamInstanceReport {
    /// The instance tag (its position in the stream's total order).
    pub instance: u64,
    /// Global round in which the instance started.
    pub start_round: u64,
    /// Number of client requests batched into the instance.
    pub batch_size: usize,
    /// Per-node agreement digest of the instance output (`None` = undecided).
    pub outputs: Vec<(NodeId, Option<String>)>,
    /// Global round in which each node's instance terminated.
    pub decide_rounds: Vec<(NodeId, Option<u64>)>,
    /// Whether every node that decided produced the same digest.
    pub agreement: bool,
    /// Whether every node decided this instance.
    pub decided: bool,
}

/// Stream-level results recorded into a [`RunReport`] by a [`StreamDriver`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamSection {
    /// One report per scheduled instance, in tag order.
    pub instances: Vec<StreamInstanceReport>,
    /// Whether every instance satisfied per-instance agreement.
    pub agreement: bool,
    /// How many instances every node decided.
    pub completed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Destination;
    use crate::shared::thread_allocations;

    /// A toy protocol: broadcasts its input in round 1, outputs the smallest
    /// value heard in round 2, then terminates.
    #[derive(Clone, Debug)]
    struct MinOnce {
        id: NodeId,
        input: u64,
        output: Option<u64>,
    }

    impl Protocol for MinOnce {
        type Payload = u64;
        type Output = u64;

        fn id(&self) -> NodeId {
            self.id
        }

        fn step(&mut self, ctx: &RoundContext, inbox: &[Envelope<u64>]) -> Vec<Outgoing<u64>> {
            match ctx.round {
                1 => vec![Outgoing::broadcast(self.input)],
                _ => {
                    if self.output.is_none() {
                        let heard = inbox.iter().map(|e| *e.payload.get()).min();
                        self.output = Some(heard.map_or(self.input, |m| m.min(self.input)));
                    }
                    Vec::new()
                }
            }
        }

        fn output(&self) -> Option<u64> {
            self.output
        }
    }

    fn slot(tag: u64, start: u64, id: NodeId, input: u64) -> InstanceSlot<MinOnce> {
        InstanceSlot {
            tag,
            start_round: start,
            node: MinOnce {
                id,
                input,
                output: None,
            },
            decided_round: None,
        }
    }

    fn completed_of(node: &MuxNode<MinOnce>, tag: u64) -> &CompletedInstance<MinOnce> {
        match node.instance(tag) {
            Some(InstanceState::Completed(done)) => done,
            _ => panic!("instance {tag} should be retired"),
        }
    }

    #[test]
    fn the_mux_demuxes_by_tag_and_staggers_starts() {
        let a = NodeId::new(1);
        let mut node = MuxNode::new(a, vec![slot(0, 1, a, 10), slot(1, 3, a, 20)]);

        // Round 1: only instance 0 is live; it broadcasts tagged payloads.
        let out = node.step(&RoundContext::new(1), &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, (0, 10));
        assert!(matches!(out[0].dest, Destination::Broadcast));

        // Round 2: instance 0 hears a tagged 7 (and ignores instance 1 traffic),
        // decides min(10, 7) = 7; instance 1 still has not started.
        let b = NodeId::new(2);
        let inbox = vec![
            Envelope::new(b, (0u64, 7u64)),
            Envelope::new(b, (1u64, 999u64)),
        ];
        let out = node.step(&RoundContext::new(2), &inbox);
        assert!(out.is_empty());
        let done = completed_of(&node, 0);
        assert_eq!(done.output, Some(7));
        assert_eq!(done.decided_round, Some(2));
        assert_eq!(node.slots().len(), 1, "only instance 1 is still live");
        assert!(!node.terminated());
        assert_eq!(node.retired_frontier(), 1, "tag 0 is globally done locally");

        // Round 3: instance 1 starts at its local round 1 and broadcasts.
        let out = node.step(&RoundContext::new(3), &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, (1, 20));

        // Round 4: instance 1 decides on its own input; the mux terminates.
        let out = node.step(&RoundContext::new(4), &[]);
        assert!(out.is_empty());
        assert_eq!(completed_of(&node, 1).output, Some(20));
        assert!(node.terminated());
        assert_eq!(node.output(), Some(2));
        assert_eq!(node.retired_frontier(), 2);
    }

    #[test]
    fn terminated_instances_stop_stepping() {
        let a = NodeId::new(1);
        let mut node = MuxNode::new(a, vec![slot(0, 1, a, 5)]);
        node.set_retirement(false);
        node.step(&RoundContext::new(1), &[]);
        node.step(&RoundContext::new(2), &[]);
        assert!(node.terminated());
        // Further rounds are no-ops and do not disturb the decide round.
        let out = node.step(&RoundContext::new(3), &[]);
        assert!(out.is_empty());
        assert_eq!(node.slots()[0].decided_round, Some(2));
        // Even unretired, the decided slot never steps again.
        assert_eq!(node.work().slot_steps, 2);
    }

    #[test]
    fn demuxing_projects_instead_of_cloning() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut node = MuxNode::new(a, vec![slot(0, 1, a, 10)]);
        node.step(&RoundContext::new(1), &[]);
        let inbox = vec![Envelope::new(b, (0u64, 7u64))];
        let before = thread_allocations();
        node.step(&RoundContext::new(2), &inbox);
        assert_eq!(
            thread_allocations() - before,
            0,
            "demuxing a delivery must not allocate a payload copy"
        );
        assert_eq!(completed_of(&node, 0).output, Some(7));
    }

    #[test]
    fn retired_and_unscheduled_traffic_is_dropped_at_zero_clones() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut node = MuxNode::new(a, vec![slot(0, 1, a, 5), slot(1, 1, a, 6)]);
        // Both instances decide in round 2 and retire.
        node.step(&RoundContext::new(1), &[]);
        node.step(&RoundContext::new(2), &[]);
        assert!(node.terminated());
        assert_eq!(node.slots().len(), 0);
        assert_eq!(node.completed().len(), 2);

        // Late traffic for a retired tag and for a tag never scheduled: both
        // are dropped during indexing, with no payload clone.
        let inbox = vec![
            Envelope::new(b, (0u64, 1u64)),
            Envelope::new(b, (0u64, 2u64)),
            Envelope::new(b, (9u64, 3u64)),
        ];
        let before = thread_allocations();
        let out = node.step(&RoundContext::new(3), &inbox);
        assert!(out.is_empty());
        assert_eq!(thread_allocations() - before, 0, "dropping must not clone");
        assert_eq!(node.work().dropped_retired, 3);
        assert_eq!(node.work().envelopes_indexed, 3);
    }

    #[test]
    fn retirement_on_and_off_produce_identical_wire_traffic() {
        let build = || {
            let a = NodeId::new(1);
            MuxNode::new(
                a,
                vec![slot(0, 1, a, 4), slot(1, 2, a, 8), slot(2, 4, a, 2)],
            )
        };
        let mut retiring = build();
        let mut keeping = build();
        keeping.set_retirement(false);
        let b = NodeId::new(2);
        for round in 1..=6u64 {
            // A little cross-tag traffic, including a tag that retires early.
            let inbox = vec![
                Envelope::new(b, (0u64, 100 + round)),
                Envelope::new(b, (1u64, 200 + round)),
            ];
            let sent_retiring = retiring.step(&RoundContext::new(round), &inbox);
            let sent_keeping = keeping.step(&RoundContext::new(round), &inbox);
            assert_eq!(
                sent_retiring, sent_keeping,
                "round {round}: retirement changed the wire traffic"
            );
            assert_eq!(retiring.output(), keeping.output());
            assert_eq!(retiring.terminated(), keeping.terminated());
        }
        assert!(retiring.terminated());
        assert_eq!(
            retiring.work(),
            keeping.work(),
            "the work counters must agree: the kept decided slots consume \
             their tags exactly like the leftover-index accounting"
        );
        assert!(retiring.slots().is_empty());
        assert_eq!(keeping.slots().len(), 3);
    }

    #[test]
    fn the_frontier_advances_over_the_decided_prefix_only() {
        let a = NodeId::new(1);
        // Instance 1 decides before instance 0 (it starts earlier).
        let mut node = MuxNode::new(a, vec![slot(0, 4, a, 5), slot(1, 1, a, 6)]);
        node.step(&RoundContext::new(1), &[]);
        node.step(&RoundContext::new(2), &[]);
        assert_eq!(node.completed().len(), 1, "instance 1 has retired");
        assert_eq!(
            node.retired_frontier(),
            0,
            "tag 0 is still live, so nothing below it is retired"
        );
        node.step(&RoundContext::new(4), &[]);
        node.step(&RoundContext::new(5), &[]);
        assert!(node.terminated());
        assert_eq!(node.retired_frontier(), 2, "the prefix closed in one jump");
    }
}
