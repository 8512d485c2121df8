//! The benchmark-owned [`ProtocolFactory`] wrapper that times the protocol
//! layer from outside.
//!
//! [`Timed`] forwards every factory hook to the factory it wraps and builds
//! [`TimedNode`]s, which forward every [`Protocol`] method to the node they
//! wrap. `Protocol::step` runs inside a span named after the wrapper's layer;
//! a top-level step the recovery subsystem replays (its round lies behind the
//! engine's) is recorded as `recovery.replay` instead. Snapshotter calls run
//! inside `wal.snapshot` spans and are counted even while tracing is off.
//! Payload and output types are unchanged, so a run's `RunReport` is the same
//! with or without the wrapper (the tests pin this).

use uba_simnet::attack::AttackBehavior;
use uba_simnet::sim::{
    AdversaryKind, BuildContext, NamedAdversary, ProtocolFactory, RunReport, StopCondition,
};
use uba_simnet::wal::Snapshotter;
use uba_simnet::{Envelope, NodeId, Outgoing, PayloadVocab, Protocol, RoundContext};

use crate::trace;

/// Span name of a protocol step (`Protocol::step` of a one-shot node or of an
/// instance inside a mux node).
pub const CORE: &str = "core.step";
/// Span name of a mux node's step.
pub const MUX: &str = "mux.step";
/// Span name of a top-level step replayed from the write-ahead log.
pub const REPLAY: &str = "recovery.replay";
/// Span name of a snapshotter call.
pub const SNAPSHOT: &str = "wal.snapshot";

/// A node whose `step` is timed. `repr(transparent)` over the node, so a
/// slice of wrappers can be viewed as a slice of nodes (see [`inner`]).
#[repr(transparent)]
#[derive(Clone, Debug)]
pub struct TimedNode<N, const MUXED: bool>(pub N);

/// The wrapped nodes, viewed in place.
pub fn inner<N, const MUXED: bool>(nodes: &[TimedNode<N, MUXED>]) -> &[N] {
    // SAFETY: `TimedNode` is `repr(transparent)` over `N`, so the two slice
    // element types have identical size, alignment and layout; the length
    // and the borrow's lifetime are carried over unchanged.
    unsafe { std::slice::from_raw_parts(nodes.as_ptr().cast::<N>(), nodes.len()) }
}

fn inner_mut<N, const MUXED: bool>(nodes: &mut [TimedNode<N, MUXED>]) -> &mut [N] {
    // SAFETY: as in `inner`; the exclusive borrow of the wrappers becomes the
    // exclusive borrow of the nodes, so no alias is created.
    unsafe { std::slice::from_raw_parts_mut(nodes.as_mut_ptr().cast::<N>(), nodes.len()) }
}

impl<N: Protocol, const MUXED: bool> Protocol for TimedNode<N, MUXED> {
    type Payload = N::Payload;
    type Output = N::Output;

    fn id(&self) -> NodeId {
        self.0.id()
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: &[Envelope<Self::Payload>],
    ) -> Vec<Outgoing<Self::Payload>> {
        if !trace::enabled() {
            return self.0.step(ctx, inbox);
        }
        let name = if MUXED {
            MUX
        } else if trace::directly_under_round() && ctx.round < trace::current_round() {
            REPLAY
        } else {
            CORE
        };
        trace::span(name, || self.0.step(ctx, inbox))
    }

    fn output(&self) -> Option<Self::Output> {
        self.0.output()
    }

    fn terminated(&self) -> bool {
        self.0.terminated()
    }

    fn instance_of(&self, payload: &Self::Payload) -> Option<u64> {
        self.0.instance_of(payload)
    }

    fn retired_frontier(&self) -> u64 {
        self.0.retired_frontier()
    }
}

/// Wraps a factory so its nodes are [`TimedNode`]s. `MUXED` names the
/// wrapped layer: `true` for a `StreamDriver`'s mux nodes, `false` for
/// protocol nodes.
pub struct Timed<F, const MUXED: bool>(pub F);

impl<F: ProtocolFactory, const MUXED: bool> ProtocolFactory for Timed<F, MUXED> {
    type Node = TimedNode<F::Node, MUXED>;

    fn protocol_name(&self) -> String {
        self.0.protocol_name()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Self::Node> {
        self.0.build_nodes(ctx).into_iter().map(TimedNode).collect()
    }

    fn adversary(
        &self,
        kind: AdversaryKind,
        ctx: &BuildContext,
    ) -> NamedAdversary<<Self::Node as Protocol>::Payload> {
        self.0.adversary(kind, ctx)
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<<Self::Node as Protocol>::Payload> {
        self.0.attack_behavior(behavior, ctx)
    }

    fn payload_vocab(
        &self,
        ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<<Self::Node as Protocol>::Payload>>> {
        self.0.payload_vocab(ctx)
    }

    fn stop_condition(&self) -> StopCondition {
        self.0.stop_condition()
    }

    fn joiner(&self, ctx: &BuildContext) -> Box<dyn FnMut(NodeId) -> Self::Node> {
        let mut join = self.0.joiner(ctx);
        Box::new(move |id| TimedNode(join(id)))
    }

    fn snapshotter(&self) -> Option<Snapshotter<Self::Node>> {
        let snapshot = self.0.snapshotter()?;
        Some(Box::new(move |node: &Self::Node| {
            trace::count_snapshot();
            TimedNode(trace::span(SNAPSHOT, || snapshot(&node.0)))
        }))
    }

    fn before_round(&mut self, round: u64, nodes: &mut [Self::Node]) {
        self.0.before_round(round, inner_mut(nodes));
    }

    fn record(&self, ctx: &BuildContext, nodes: &[Self::Node], report: &mut RunReport) {
        self.0.record(ctx, inner(nodes), report);
    }
}
