//! The synchronous, lock-step round engine.
//!
//! [`SyncEngine`] owns the correct nodes (any [`Protocol`] implementation) and one
//! [`Adversary`]. Each call to [`SyncEngine::run_round`] performs one synchronous
//! round of the id-only model, with the following phases and per-round costs (for
//! `n` nodes, `m` compact traffic items produced this round, and `d` point-to-point
//! deliveries to correct nodes):
//!
//! 1. **Produce — O(n + m).** Every live correct node is handed the inbox
//!    accumulated for it in the previous round and produces its outgoing messages.
//!    Broadcasts are *not* expanded: a broadcast is stored once as a compact
//!    [`TrafficItem`](crate::traffic::TrafficItem) in the round's
//!    [`RoundTraffic`], and its payload is wrapped into a [`Shared`] handle —
//!    **the only payload allocation it will ever cost**, with the dedup digest
//!    computed right there; inbox buffers are recycled across rounds instead of
//!    reallocated. Once the node count reaches
//!    [`EngineConfig::parallel_node_threshold`] (64 by default) and more than one
//!    core is available, the stepping fans out over `std::thread::scope` workers,
//!    merging per-worker traffic in node order so executions stay bit-for-bit
//!    deterministic ([`SyncEngine::set_parallel_node_threshold`] moves the
//!    threshold; `usize::MAX` pins a run serial).
//! 2. **Adversary — O(1) + whatever the strategy reads.** The rushing adversary
//!    observes the full point-to-point expansion of the round's correct traffic
//!    through the lazy [`AdversaryView`] iterators (nothing is allocated by the
//!    engine) and injects arbitrary directed messages — forwarded honest traffic
//!    rides on cloned handles, only fabricated payloads allocate; sender
//!    identities are verified against an O(1) membership index.
//! 3. **Deliver — O(b·n + u + z + d) expected, zero-copy.** The compact traffic
//!    (`b` broadcasts, `u` unicasts, `z` Byzantine messages) is expanded *only
//!    towards correct recipients* (messages to Byzantine identities never
//!    materialise — the adversary already saw everything via its view), grouped
//!    into next-round inboxes, and deduplicated per `(sender, payload)` pair
//!    through a per-inbox `(sender, digest)` set. A delivery is a
//!    reference-count bump plus a set insert of the payload's **cached** digest:
//!    no payload clone and no payload hash, regardless of fan-out. Delivery is
//!    **recipient-major**: unicasts and Byzantine messages are bucketed by
//!    recipient once, then each inbox is filled in one pass, so the writes stay
//!    in one inbox's dedup set and vector at a time. Each inbox receives exactly
//!    the envelopes, in exactly the order, of an item-by-item walk.
//!
//! The wall-clock cost of each phase is accumulated in [`PhaseTimings`]
//! (`produce` / `adversary` / `deliver` / `step`, where *step* is the bookkeeping
//! around the phases: churn, inbox staging and recycling, metrics); the scaling
//! benchmark records the split so "delivery no longer dominates" is a measured
//! statement.
//!
//! The engine supports **dynamic membership** (nodes joining and leaving between
//! rounds), which Section XI of the paper relies on, via [`SyncEngine::add_node`],
//! [`SyncEngine::remove_node`], [`SyncEngine::add_byzantine_id`] and
//! [`SyncEngine::remove_byzantine_id`]; the membership indices are maintained
//! incrementally, so none of these paths rescans the node vectors.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use crate::adversary::{Adversary, AdversaryView};
use crate::dynamic::{ChurnEvent, ChurnSchedule};
use crate::error::SimError;
use crate::id::NodeId;
use crate::message::{Destination, Directed, Envelope};
use crate::metrics::{Metrics, RoundMetrics};
use crate::node::{Protocol, RoundContext};
use crate::shared::Shared;
use crate::trace::{TraceEvent, TraceLog};
use crate::traffic::{RoundTraffic, TrafficItem};
use crate::wal::{RecoveryManager, RestartPolicy, RestartRecord, Snapshotter, WalConfig};

/// Knobs controlling an engine run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Hard cap on the number of rounds executed by the `run_until*` helpers; a run
    /// that reaches the cap stops with [`RunOutcome::MaxRoundsExceeded`]. This
    /// protects experiments against livelock caused by a bug or by a too-strong
    /// adversary.
    pub max_rounds: u64,
    /// Whether to keep a [`TraceLog`] of every delivery (memory-heavy; off by default).
    pub trace: bool,
    /// Capacity of the trace log when tracing is enabled.
    pub trace_capacity: usize,
    /// Minimum node count from which phase 1 steps nodes on parallel workers
    /// (when more than one core is available); below it stepping stays serial,
    /// as the fan-out overhead would dominate. `usize::MAX` keeps every round
    /// serial.
    pub parallel_node_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 10_000,
            trace: false,
            trace_capacity: 1 << 20,
            parallel_node_threshold: 64,
        }
    }
}

/// Why a `run_until*` helper stopped.
///
/// Cap exhaustion is part of the *outcome*, not an error: outside the `n > 3f`
/// resiliency bound a protocol may legitimately never meet its stop condition, and
/// experiments record that as a result rather than aborting. Engine errors
/// ([`SimError`]) remain reserved for genuine rule violations such as forged sender
/// identities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "check whether the run completed or exhausted its round cap"]
pub enum RunOutcome {
    /// The stop condition was satisfied after the recorded number of rounds.
    Completed {
        /// Rounds executed in total when the condition became true.
        rounds: u64,
    },
    /// The configured round cap was reached before the stop condition was met.
    MaxRoundsExceeded {
        /// The cap that was hit (also the number of rounds executed).
        limit: u64,
    },
}

impl RunOutcome {
    /// Whether the stop condition was met before the round cap.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }

    /// Rounds executed when the run stopped, regardless of why it stopped.
    pub fn rounds(&self) -> u64 {
        match *self {
            RunOutcome::Completed { rounds } => rounds,
            RunOutcome::MaxRoundsExceeded { limit } => limit,
        }
    }

    /// Converts cap exhaustion into [`SimError::MaxRoundsExceeded`] for callers that
    /// treat an unfinished run as a hard failure (the pre-redesign behaviour).
    pub fn expect_completed(self) -> Result<u64, SimError> {
        match self {
            RunOutcome::Completed { rounds } => Ok(rounds),
            RunOutcome::MaxRoundsExceeded { limit } => Err(SimError::MaxRoundsExceeded { limit }),
        }
    }
}

/// A churn plan bound to a node constructor, applied by the engine between rounds.
///
/// The schedule says *who* joins or leaves and *when*; the `joiner` callback says how
/// to construct a correct node for a joining identifier (the engine cannot know how
/// to initialise protocol state). Registered with [`SyncEngine::set_churn`].
pub(crate) struct ChurnDriver<N> {
    pub(crate) schedule: ChurnSchedule,
    pub(crate) joiner: Box<dyn FnMut(NodeId) -> N>,
    /// Highest round whose events have been (at least partially) applied. Guards a
    /// retried `run_round` after a failed event from re-applying the round's earlier
    /// events (which would turn one inapplicable event into spurious DuplicateId
    /// errors for the events that did apply).
    pub(crate) applied_upto: u64,
}

/// A deterministic, multiply-rotate hasher for the engine's *internal* maps
/// (inbox registry, dedup sets, delivery slot index). These maps are hot — the
/// dedup set is touched once per delivery — and never observed through their
/// iteration order, so the default SipHash's DoS resistance buys nothing here.
/// Collisions are harmless for correctness: the maps store full keys, and a
/// payload-digest collision still falls back to the exact scan in [`deliver`].
#[derive(Clone, Copy, Default)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so the high bits (hashbrown's control bytes) carry
        // entropy from every mixed word.
        let mut hash = self.0;
        hash ^= hash >> 32;
        hash = hash.wrapping_mul(0xd6e8_feb8_6659_fd93);
        hash ^= hash >> 32;
        hash
    }
}

pub(crate) type FastState = BuildHasherDefault<FastHasher>;

/// A recipient's accumulating inbox: the delivered envelopes plus the
/// `(sender, payload digest)` pairs already seen, for O(1)-expected
/// deduplication. Buffers are recycled through the engine's spare pool rather
/// than reallocated.
#[derive(Debug)]
pub(crate) struct Inbox<P> {
    pub(crate) messages: Vec<Envelope<P>>,
    pub(crate) seen: HashSet<(NodeId, u64), FastState>,
}

impl<P> Default for Inbox<P> {
    fn default() -> Self {
        Inbox {
            messages: Vec::new(),
            seen: HashSet::default(),
        }
    }
}

impl<P> Inbox<P> {
    pub(crate) fn recycle(&mut self) {
        self.messages.clear();
        self.seen.clear();
    }
}

/// Wall-clock time accumulated per named phase of an engine's round loop, in
/// nanoseconds. The phase set is engine-specific: [`SyncEngine`] accumulates
/// `produce` (phase 1, nodes consuming inboxes and producing traffic),
/// `adversary` (phase 2), `deliver` (phase 3) and `step` (the per-round
/// bookkeeping around them: churn application, inbox staging and recycling,
/// membership maintenance, metrics); the event engine additionally reports
/// `schedule` (clock advance plus delay-model expansion into the delivery
/// queue) and `dispatch` (popping due deliveries into inboxes). Timings are
/// measurement-only: they never influence execution, and reports never contain
/// them, so runs stay bit-for-bit reproducible.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// `(phase name, accumulated nanoseconds)`, in first-recorded order.
    slots: Vec<(&'static str, u64)>,
}

impl PhaseTimings {
    /// An empty record (no phase measured yet).
    pub fn new() -> Self {
        PhaseTimings::default()
    }

    /// Adds `ns` nanoseconds to a named phase, creating the slot on first use.
    pub fn add(&mut self, phase: &'static str, ns: u64) {
        match self.slots.iter_mut().find(|(name, _)| *name == phase) {
            Some(slot) => slot.1 += ns,
            None => self.slots.push((phase, ns)),
        }
    }

    /// Accumulated nanoseconds of a named phase (0 if never recorded).
    pub fn get(&self, phase: &str) -> u64 {
        self.slots
            .iter()
            .find(|(name, _)| *name == phase)
            .map_or(0, |(_, ns)| *ns)
    }

    /// The recorded `(phase, nanoseconds)` slots, in first-recorded order.
    pub fn phases(&self) -> &[(&'static str, u64)] {
        &self.slots
    }

    /// Total time spent across all phases.
    pub fn total_ns(&self) -> u64 {
        self.slots.iter().map(|(_, ns)| ns).sum()
    }

    /// Name of the phase with the largest accumulated time (`"idle"` if nothing
    /// was recorded yet).
    pub fn dominant(&self) -> &'static str {
        self.slots
            .iter()
            .max_by_key(|(_, ns)| *ns)
            .map(|(name, _)| *name)
            .unwrap_or("idle")
    }
}

pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Delivers one point-to-point message into a recipient's next-round inbox,
/// deduplicating identical `(sender, payload)` pairs as the model prescribes.
///
/// Zero-copy and zero-hash: the payload handle is cloned (a reference-count
/// bump) and its **cached** digest keys the dedup set — neither a payload clone
/// nor a payload hash happens here. The caller already resolved the recipient's
/// inbox to a per-round slot, so the common path is one fast-hashed set insert
/// plus a vector push, regardless of payload size or fan-out.
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver<P: PartialEq>(
    inbox: &mut Inbox<P>,
    trace: &mut Option<TraceLog<P>>,
    byzantine_index: &HashSet<NodeId>,
    delivery_round: u64,
    from: NodeId,
    to: NodeId,
    payload: &Shared<P>,
    deliveries: &mut u64,
) {
    if !inbox.seen.insert((from, payload.digest())) {
        // The digest pair was already present: either a true duplicate (drop it)
        // or a 64-bit collision between distinct payloads (deliver anyway). The
        // exact check runs only on digest hits, so the common path stays O(1).
        if inbox
            .messages
            .iter()
            .any(|e| e.from == from && e.payload == *payload)
        {
            return;
        }
    }
    *deliveries += 1;
    if let Some(trace) = trace {
        trace.record(TraceEvent {
            round: delivery_round,
            from,
            to,
            byzantine: byzantine_index.contains(&from),
            payload: payload.clone(),
        });
    }
    inbox.messages.push(Envelope::new(from, payload.clone()));
}

/// Cores the parallel stepper may use, read once per process (the query is a
/// handful of syscalls, and the answer does not change under a run).
fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Steps a contiguous run of nodes, each on its aligned inbox slot, handing
/// every produced message to `push` in node order; returns the live-node
/// count. A broadcast's payload is wrapped into its one [`Shared`] handle here.
fn step_chunk<N: Protocol>(
    nodes: &mut [N],
    ctx: &RoundContext,
    inboxes: &[Option<Inbox<N::Payload>>],
    mut push: impl FnMut(TrafficItem<N::Payload>),
) -> u64 {
    let mut live = 0u64;
    for (node, slot) in nodes.iter_mut().zip(inboxes) {
        if node.terminated() {
            continue;
        }
        live += 1;
        let id = node.id();
        let empty: &[Envelope<N::Payload>] = &[];
        let inbox = slot.as_ref().map_or(empty, |b| b.messages.as_slice());
        for message in node.step(ctx, inbox) {
            push(match message.dest {
                Destination::Broadcast => TrafficItem::Broadcast {
                    from: id,
                    payload: Shared::new(message.payload),
                },
                Destination::Unicast(to) => {
                    TrafficItem::Unicast(Directed::new(id, to, message.payload))
                }
            });
        }
    }
    live
}

/// The phase-1 node stepper shared by both engines: steps every live node on
/// its extracted inbox (`inboxes` is aligned with `nodes`) and appends the
/// produced traffic, returning the live-node count.
///
/// From `threshold` nodes on, and when more than one core is available, the
/// `step` calls fan out over `std::thread::scope` workers, one contiguous chunk
/// each. Joining the workers in spawn order merges their traffic in node
/// order, so the round's traffic — and with it every report — is identical to
/// the serial walk: protocols are independent deterministic state machines.
pub(crate) fn step_nodes<N: Protocol>(
    nodes: &mut [N],
    ctx: &RoundContext,
    inboxes: &[Option<Inbox<N::Payload>>],
    traffic: &mut RoundTraffic<N::Payload>,
    threshold: usize,
) -> u64 {
    let workers = if nodes.len() >= threshold {
        available_cores().min(nodes.len())
    } else {
        1
    };
    if workers <= 1 {
        return step_chunk(nodes, ctx, inboxes, |item| traffic.push(item));
    }
    let chunk = nodes.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .chunks_mut(chunk)
            .zip(inboxes.chunks(chunk))
            .map(|(node_chunk, inbox_chunk)| {
                scope.spawn(move || {
                    let mut items = Vec::new();
                    let live = step_chunk(node_chunk, ctx, inbox_chunk, |item| items.push(item));
                    (live, items)
                })
            })
            .collect();
        let mut live = 0u64;
        for handle in handles {
            let (chunk_live, items) = handle.join().expect("node-step worker panicked");
            live += chunk_live;
            traffic.extend_items(items);
        }
        live
    })
}

/// Engine-owned index of one round's deliveries, bucketed by recipient slot so
/// phase 3 can fill one inbox at a time (see [`SyncEngine::run_round`]). The
/// buffers keep their capacity across rounds.
#[derive(Debug, Default)]
struct DeliveryPlan {
    /// Indices of the round's broadcast items, in production order.
    broadcasts: Vec<usize>,
    /// Per slot: indices of the unicast items addressed to it, in production
    /// order.
    unicasts: Vec<Vec<usize>>,
    /// Per slot: indices of the Byzantine messages addressed to it, in
    /// adversary order.
    byzantine: Vec<Vec<usize>>,
}

impl DeliveryPlan {
    /// Buckets the round's traffic by recipient slot, with one `slot_index`
    /// lookup per unicast and per Byzantine message. Messages to identities
    /// without a slot (Byzantine or departed ones) are left out.
    fn build<P>(
        &mut self,
        slots: usize,
        slot_index: &HashMap<NodeId, usize, FastState>,
        items: &[TrafficItem<P>],
        byzantine: &[Directed<P>],
    ) {
        self.broadcasts.clear();
        for buckets in [&mut self.unicasts, &mut self.byzantine] {
            if buckets.len() < slots {
                buckets.resize_with(slots, Vec::new);
            }
            buckets[..slots].iter_mut().for_each(Vec::clear);
        }
        for (index, item) in items.iter().enumerate() {
            match item {
                TrafficItem::Broadcast { .. } => self.broadcasts.push(index),
                TrafficItem::Unicast(message) => {
                    if let Some(&slot) = slot_index.get(&message.to) {
                        self.unicasts[slot].push(index);
                    }
                }
            }
        }
        for (index, message) in byzantine.iter().enumerate() {
            if let Some(&slot) = slot_index.get(&message.to) {
                self.byzantine[slot].push(index);
            }
        }
    }
}

/// The synchronous round engine (see module docs).
pub struct SyncEngine<N: Protocol, A: Adversary<N::Payload>> {
    nodes: Vec<N>,
    adversary: A,
    byzantine_ids: Vec<NodeId>,
    /// O(1) membership index mirroring `nodes` (by id).
    correct_index: HashSet<NodeId>,
    /// O(1) membership index mirroring `byzantine_ids`.
    byzantine_index: HashSet<NodeId>,
    inboxes: HashMap<NodeId, Inbox<N::Payload>, FastState>,
    /// Recycled inbox buffers, reused instead of reallocating every round.
    spare_inboxes: Vec<Inbox<N::Payload>>,
    /// Reusable per-node inbox slots for the step phase (aligned with `nodes`).
    step_inboxes: Vec<Option<Inbox<N::Payload>>>,
    /// Reusable delivery slots (aligned with the round's correct recipients), so
    /// a broadcast's fan-out indexes straight into its targets instead of paying
    /// a map lookup per delivery.
    delivery_slots: Vec<Inbox<N::Payload>>,
    /// Reusable `NodeId → delivery slot` index, rebuilt each round (one hash op
    /// per *member* per round instead of one per *delivery*).
    slot_index: HashMap<NodeId, usize, FastState>,
    /// Reusable per-recipient index of the round's deliveries.
    plan: DeliveryPlan,
    /// Reusable compact traffic buffer for the current round.
    traffic: RoundTraffic<N::Payload>,
    round: u64,
    metrics: Metrics,
    timings: PhaseTimings,
    trace: Option<TraceLog<N::Payload>>,
    config: EngineConfig,
    churn: Option<ChurnDriver<N>>,
    /// The crash-recovery subsystem; `None` until [`SyncEngine::enable_recovery`].
    recovery: Option<RecoveryManager<N>>,
    /// Retired-traffic GC; off until [`SyncEngine::enable_traffic_gc`].
    traffic_gc: bool,
}

impl<N: Protocol, A: Adversary<N::Payload>> SyncEngine<N, A> {
    /// Creates an engine with the default [`EngineConfig`].
    ///
    /// `byzantine_ids` are the identities controlled by `adversary`; they may overlap
    /// with nothing (a purely silent adversary may control zero identities).
    pub fn new(nodes: Vec<N>, adversary: A, byzantine_ids: Vec<NodeId>) -> Self {
        Self::with_config(nodes, adversary, byzantine_ids, EngineConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(
        nodes: Vec<N>,
        adversary: A,
        byzantine_ids: Vec<NodeId>,
        config: EngineConfig,
    ) -> Self {
        let trace = config
            .trace
            .then(|| TraceLog::with_capacity(config.trace_capacity));
        let correct_index = nodes.iter().map(|n| n.id()).collect();
        let byzantine_index = byzantine_ids.iter().copied().collect();
        SyncEngine {
            nodes,
            adversary,
            byzantine_ids,
            correct_index,
            byzantine_index,
            inboxes: HashMap::default(),
            spare_inboxes: Vec::new(),
            step_inboxes: Vec::new(),
            delivery_slots: Vec::new(),
            slot_index: HashMap::default(),
            plan: DeliveryPlan::default(),
            traffic: RoundTraffic::new(),
            round: 0,
            metrics: Metrics::new(),
            timings: PhaseTimings::default(),
            trace,
            config,
            churn: None,
            recovery: None,
            traffic_gc: false,
        }
    }

    /// Registers a churn plan that the engine applies itself: before executing round
    /// `r`, every [`ChurnEvent`] scheduled for `r` takes effect — correct joiners are
    /// constructed through `joiner`, leavers are removed, and Byzantine identities
    /// are handed to (or taken from) the adversary. This replaces the older pattern
    /// of drivers interleaving `add_node` / `remove_node` calls with `run_rounds`.
    pub fn set_churn(
        &mut self,
        schedule: ChurnSchedule,
        joiner: impl FnMut(NodeId) -> N + 'static,
    ) {
        self.churn = Some(ChurnDriver {
            schedule,
            joiner: Box::new(joiner),
            applied_upto: 0,
        });
    }

    /// Applies the churn events scheduled to take effect before `round`. Each round's
    /// events are applied at most once, even if an error made the caller retry
    /// `run_round`; the error surfaces once and a retry proceeds with whatever did
    /// apply.
    fn apply_churn(&mut self, round: u64) -> Result<(), SimError> {
        let Some(mut driver) = self.churn.take() else {
            return Ok(());
        };
        if round <= driver.applied_upto {
            self.churn = Some(driver);
            return Ok(());
        }
        driver.applied_upto = round;
        let mut result = Ok(());
        for event in driver.schedule.events_before_round(round) {
            let applied = match event {
                ChurnEvent::JoinCorrect(id) => self.add_node((driver.joiner)(id)),
                ChurnEvent::LeaveCorrect(id) => self.remove_node(id).map(|_| ()),
                ChurnEvent::JoinByzantine(id) => self.add_byzantine_id(id),
                ChurnEvent::LeaveByzantine(id) => self.remove_byzantine_id(id),
                ChurnEvent::Crash(id) => self.crash_node(id, round),
                ChurnEvent::Restart { id, policy } => self.restart_node(id, policy, round),
            };
            if let Err(error) = applied {
                result = Err(error);
                break;
            }
        }
        self.churn = Some(driver);
        result
    }

    /// Crashes a node before `round` executes: a Byzantine identity is handed
    /// back by the adversary (only bookkeeping — its "state" is the
    /// adversary's); a correct node is removed and its volatile state dropped,
    /// leaving the base snapshot plus write-ahead log as the only survivors.
    fn crash_node(&mut self, id: NodeId, round: u64) -> Result<(), SimError> {
        if self.recovery.is_none() {
            return Err(SimError::RecoveryDisabled(id));
        }
        if self.byzantine_index.contains(&id) {
            self.remove_byzantine_id(id)?;
            self.recovery
                .as_mut()
                .expect("checked above")
                .crash_byzantine(id);
            return Ok(());
        }
        let node = self.remove_node(id)?;
        self.recovery
            .as_mut()
            .expect("checked above")
            .crash(node, round);
        Ok(())
    }

    /// Restarts a crashed node before `round` executes: replays its log per
    /// the policy and re-admits it through the ordinary membership path (so it
    /// re-announces exactly like a churn joiner).
    fn restart_node(
        &mut self,
        id: NodeId,
        policy: RestartPolicy,
        round: u64,
    ) -> Result<(), SimError> {
        let Some(recovery) = self.recovery.as_mut() else {
            return Err(SimError::RecoveryDisabled(id));
        };
        if recovery.take_crashed_byzantine(id) {
            return self.add_byzantine_id(id);
        }
        let node = recovery.restart(id, policy, round)?;
        self.add_node(node)
    }

    /// Validates that no identifier is used twice across correct and Byzantine nodes.
    pub fn validate_ids(&self) -> Result<(), SimError> {
        let mut seen = HashSet::new();
        for id in self
            .nodes
            .iter()
            .map(|n| n.id())
            .chain(self.byzantine_ids.iter().copied())
        {
            if !seen.insert(id) {
                return Err(SimError::DuplicateId(id));
            }
        }
        Ok(())
    }

    /// The number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The correct nodes, in insertion order.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Mutable access to the correct nodes (used by dynamic-network drivers that need
    /// to feed external inputs, e.g. events to order, between rounds).
    pub fn nodes_mut(&mut self) -> &mut [N] {
        &mut self.nodes
    }

    /// Looks up a correct node by identifier.
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.iter().find(|n| n.id() == id)
    }

    /// Identifiers of the correct nodes currently in the system.
    pub fn correct_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id()).collect()
    }

    /// Identifiers currently controlled by the adversary.
    pub fn byzantine_ids(&self) -> &[NodeId] {
        &self.byzantine_ids
    }

    /// Whether `id` is currently a correct node (O(1)).
    pub fn is_correct(&self, id: NodeId) -> bool {
        self.correct_index.contains(&id)
    }

    /// Whether `id` is currently controlled by the adversary (O(1)).
    pub fn is_byzantine(&self, id: NodeId) -> bool {
        self.byzantine_index.contains(&id)
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Wall-clock time accumulated per round phase since the engine was created
    /// (see [`PhaseTimings`]). Measurement-only; never part of a report.
    pub fn phase_timings(&self) -> PhaseTimings {
        self.timings.clone()
    }

    /// Overrides the node count at which phase 1 steps nodes in parallel (see
    /// [`EngineConfig::parallel_node_threshold`]): `1` forces the parallel path
    /// at any size, `usize::MAX` keeps every round serial — the two ends the
    /// serial ≡ parallel equivalence suites compare.
    pub fn set_parallel_node_threshold(&mut self, threshold: usize) {
        self.config.parallel_node_threshold = threshold;
    }

    /// The trace log, if tracing was enabled in the configuration.
    pub fn trace(&self) -> Option<&TraceLog<N::Payload>> {
        self.trace.as_ref()
    }

    /// Enables crash recovery with the default [`WalConfig`]: every correct
    /// node's rounds are write-ahead logged (inbox consumed, message digests
    /// sent, round committed) so [`ChurnEvent::Crash`] / [`ChurnEvent::Restart`]
    /// events become applicable. `snapshot` clones protocol state (for a
    /// [`Recoverable`](crate::node::Recoverable) node, `|n| n.snapshot()`).
    /// On a crash-free run the logging is observationally silent: reports,
    /// metrics and traces are byte-identical to a run without recovery.
    pub fn enable_recovery(&mut self, snapshot: Snapshotter<N>) {
        self.enable_recovery_with(snapshot, WalConfig::default());
    }

    /// Enables crash recovery with an explicit log configuration (tests use a
    /// `sync_every > 1` cadence to open an unsynced suffix for fault injection).
    pub fn enable_recovery_with(&mut self, snapshot: Snapshotter<N>, config: WalConfig) {
        self.recovery = Some(RecoveryManager::with_config(snapshot, config));
    }

    /// Whether crash recovery is enabled.
    pub fn recovery_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// Enables retired-traffic garbage collection. After each round's delivery
    /// the engine computes the minimum [`Protocol::retired_frontier`] over the
    /// live nodes and prunes queued envelopes whose
    /// [`Protocol::instance_of`] tag lies below it — traffic no node will ever
    /// read again (a decided instance neither sends nor consumes).
    ///
    /// GC is observationally silent on reports: deliveries are counted when a
    /// message enters an inbox, and a pruned message is by construction one
    /// its recipient would have dropped unread. The one contract it relies on
    /// is that correct nodes never *resend* a payload for a globally retired
    /// instance (pruning also forgets the message from the exact-match dedup
    /// fallback, so such a resend could double-deliver) — true for every
    /// stream protocol here, which stops sending at decide time.
    pub fn enable_traffic_gc(&mut self) {
        self.traffic_gc = true;
    }

    /// Whether retired-traffic GC is enabled.
    pub fn traffic_gc_enabled(&self) -> bool {
        self.traffic_gc
    }

    /// Every restart performed so far (empty if recovery is disabled or no
    /// crash/restart cycle has completed yet).
    pub fn recovery_restarts(&self) -> &[RestartRecord] {
        self.recovery.as_ref().map_or(&[], |r| r.restarts())
    }

    /// Envelopes currently queued across all accumulated inboxes — one
    /// component of the soak driver's memory proxy.
    pub fn queued_envelopes(&self) -> usize {
        self.inboxes
            .values()
            .map(|inbox| inbox.messages.len())
            .sum()
    }

    /// Records currently held across all write-ahead logs (0 if recovery is
    /// disabled) — the other component of the soak memory proxy.
    pub fn wal_entries(&self) -> usize {
        self.recovery.as_ref().map_or(0, |r| r.wal_entries())
    }

    /// Adds a correct node between rounds (dynamic join). The node starts executing
    /// from its own round 1 in the next engine round; its inbox starts empty.
    pub fn add_node(&mut self, node: N) -> Result<(), SimError> {
        let id = node.id();
        if self.correct_index.contains(&id) || self.byzantine_index.contains(&id) {
            return Err(SimError::DuplicateId(id));
        }
        self.correct_index.insert(id);
        self.nodes.push(node);
        Ok(())
    }

    /// Removes a correct node between rounds (dynamic leave). Pending messages to the
    /// node are dropped. Returns the removed node.
    pub fn remove_node(&mut self, id: NodeId) -> Result<N, SimError> {
        let idx = self
            .nodes
            .iter()
            .position(|n| n.id() == id)
            .ok_or(SimError::UnknownNode(id))?;
        self.correct_index.remove(&id);
        if let Some(mut inbox) = self.inboxes.remove(&id) {
            inbox.recycle();
            self.spare_inboxes.push(inbox);
        }
        Ok(self.nodes.remove(idx))
    }

    /// Registers an additional Byzantine identity (dynamic join of a faulty node).
    pub fn add_byzantine_id(&mut self, id: NodeId) -> Result<(), SimError> {
        if self.correct_index.contains(&id) || self.byzantine_index.contains(&id) {
            return Err(SimError::DuplicateId(id));
        }
        self.byzantine_index.insert(id);
        self.byzantine_ids.push(id);
        Ok(())
    }

    /// Removes a Byzantine identity (dynamic leave of a faulty node).
    pub fn remove_byzantine_id(&mut self, id: NodeId) -> Result<(), SimError> {
        let idx = self
            .byzantine_ids
            .iter()
            .position(|&b| b == id)
            .ok_or(SimError::UnknownNode(id))?;
        self.byzantine_index.remove(&id);
        self.byzantine_ids.remove(idx);
        Ok(())
    }

    /// Executes one synchronous round. Returns an error only if the adversary tried
    /// to forge a sender identity or a registered churn event was inapplicable.
    pub fn run_round(&mut self) -> Result<(), SimError> {
        let step_started = Instant::now();
        self.apply_churn(self.round + 1)?;
        self.round += 1;
        let ctx = RoundContext::new(self.round);
        let correct_ids = self.correct_ids();

        // Phase 1 (produce): correct nodes consume their inboxes and produce
        // outgoing messages, kept compact (broadcasts unexpanded, payloads
        // allocated once into shared handles) in the round traffic.
        self.traffic.begin_round(
            correct_ids
                .iter()
                .copied()
                .chain(self.byzantine_ids.iter().copied()),
        );
        self.step_inboxes.clear();
        for node in &self.nodes {
            self.step_inboxes.push(if node.terminated() {
                None
            } else {
                self.inboxes.remove(&node.id())
            });
        }
        // Write-ahead: the inbox a node is about to consume is logged before
        // the node steps, so a crash mid-round loses the step, never tears it.
        if let Some(recovery) = &mut self.recovery {
            for (node, slot) in self.nodes.iter().zip(&self.step_inboxes) {
                if node.terminated() {
                    continue;
                }
                let empty: &[Envelope<N::Payload>] = &[];
                let inbox = slot.as_ref().map_or(empty, |b| b.messages.as_slice());
                recovery.begin_step(node, self.round, inbox);
            }
        }
        self.timings.add("step", elapsed_ns(step_started));
        let produce_started = Instant::now();
        let live = step_nodes(
            &mut self.nodes,
            &ctx,
            &self.step_inboxes,
            &mut self.traffic,
            self.config.parallel_node_threshold,
        );
        self.timings.add("produce", elapsed_ns(produce_started));
        let step_started = Instant::now();
        for mut inbox in self.step_inboxes.drain(..).flatten() {
            inbox.recycle();
            self.spare_inboxes.push(inbox);
        }

        // Inboxes left unconsumed belong to terminated nodes, whose dedup state
        // must persist; any entry whose id is no longer a correct node is dropped
        // (O(1) membership check per entry).
        let correct_index = &self.correct_index;
        self.inboxes.retain(|id, _| correct_index.contains(id));
        // Log the digests of every produced message and commit the round —
        // *before* the adversary phase: a send becomes network-visible only
        // once it is durable in its sender's log.
        if let Some(recovery) = &mut self.recovery {
            for item in self.traffic.items() {
                match item {
                    TrafficItem::Broadcast { from, payload } => {
                        recovery.log_sent(*from, payload.digest())
                    }
                    TrafficItem::Unicast(message) => {
                        recovery.log_sent(message.from, message.payload.digest())
                    }
                }
            }
            for node in &self.nodes {
                recovery.commit_step(node);
            }
        }
        self.timings.add("step", elapsed_ns(step_started));

        // Phase 2 (adversary): the rushing adversary observes the round's traffic
        // (lazily expanded) and injects its own directed messages.
        let adversary_started = Instant::now();
        let view = AdversaryView {
            round: self.round,
            correct_ids: &correct_ids,
            byzantine_ids: &self.byzantine_ids,
            correct_traffic: &self.traffic,
        };
        let byzantine_traffic = self.adversary.step(&view);
        for msg in &byzantine_traffic {
            if !self.byzantine_index.contains(&msg.from) {
                return Err(SimError::ForgedSender { claimed: msg.from });
            }
        }
        self.timings.add("adversary", elapsed_ns(adversary_started));

        // Phase 3 (deliver): build next-round inboxes. A broadcast reaches each
        // *correct* recipient as a reference-count bump of its one shared payload
        // allocation — messages to Byzantine identities are "delivered" to the
        // adversary, which already saw everything via the rushing view, so
        // nothing is stored (or cloned) for them.
        let deliver_started = Instant::now();
        let correct_count = self.traffic.point_to_point_count();
        let byz_count = byzantine_traffic.len() as u64;
        let delivery_round = self.round + 1;
        let mut deliveries = 0u64;
        let do_gc = self.traffic_gc;
        let SyncEngine {
            nodes,
            traffic,
            inboxes,
            spare_inboxes,
            delivery_slots,
            slot_index,
            plan,
            trace,
            byzantine_index,
            ..
        } = self;
        // Stage the correct recipients' inboxes into index-aligned slots (the
        // round's recipient list leads with the correct nodes, in this exact
        // order), and bucket the unicasts and Byzantine messages by slot — one
        // fast-map lookup each, no per-delivery hashing of recipient ids.
        slot_index.clear();
        delivery_slots.clear();
        for &id in &correct_ids {
            let inbox = inboxes
                .remove(&id)
                .unwrap_or_else(|| spare_inboxes.pop().unwrap_or_default());
            slot_index.insert(id, delivery_slots.len());
            delivery_slots.push(inbox);
        }
        let items = traffic.items();
        plan.build(delivery_slots.len(), slot_index, items, &byzantine_traffic);
        // Recipient-major: fill one inbox at a time, so the writes of a pass
        // stay in one `seen` set and one `messages` vector instead of
        // spreading every broadcast over all of them. Per recipient the offers
        // arrive in the item-major order — items in production order (its
        // unicasts merged between the broadcasts by item index), then its
        // Byzantine messages in adversary order — so every inbox, and with it
        // first-occurrence dedup, is exactly what an item-by-item walk builds.
        for (slot, (inbox, &to)) in delivery_slots.iter_mut().zip(&correct_ids).enumerate() {
            let mut offer = |index: usize| {
                let (from, payload) = match &items[index] {
                    TrafficItem::Broadcast { from, payload } => (*from, payload),
                    TrafficItem::Unicast(message) => (message.from, &message.payload),
                };
                deliver(
                    inbox,
                    trace,
                    byzantine_index,
                    delivery_round,
                    from,
                    to,
                    payload,
                    &mut deliveries,
                );
            };
            let mut unicasts = plan.unicasts[slot].iter().copied().peekable();
            for &broadcast in &plan.broadcasts {
                while let Some(unicast) = unicasts.next_if(|&unicast| unicast < broadcast) {
                    offer(unicast);
                }
                offer(broadcast);
            }
            unicasts.for_each(&mut offer);
            for &index in &plan.byzantine[slot] {
                let message = &byzantine_traffic[index];
                deliver(
                    inbox,
                    trace,
                    byzantine_index,
                    delivery_round,
                    message.from,
                    to,
                    &message.payload,
                    &mut deliveries,
                );
            }
        }
        // Unstage: inboxes that accumulated state go back into the registry;
        // untouched ones return to the spare pool (matching the old lazy
        // behaviour, which materialised an inbox only on first delivery).
        for (&id, inbox) in correct_ids.iter().zip(delivery_slots.drain(..)) {
            if inbox.messages.is_empty() && inbox.seen.is_empty() {
                spare_inboxes.push(inbox);
            } else {
                inboxes.insert(id, inbox);
            }
        }

        // Retired-traffic GC (see [`SyncEngine::enable_traffic_gc`]): prune
        // queued envelopes for instances below every live node's retired
        // frontier. Payload classification is payload-only, so any node can
        // serve as the probe; the `seen` dedup sets are deliberately left
        // alone (dedup state persists exactly as for terminated nodes).
        if do_gc {
            let frontier = nodes
                .iter()
                .map(|node| node.retired_frontier())
                .min()
                .unwrap_or(0);
            if frontier > 0 {
                if let Some(probe) = nodes.first() {
                    for inbox in inboxes.values_mut() {
                        inbox.messages.retain(|envelope| {
                            match probe.instance_of(envelope.payload.get()) {
                                Some(tag) => tag >= frontier,
                                None => true,
                            }
                        });
                    }
                }
            }
        }

        self.timings.add("deliver", elapsed_ns(deliver_started));

        let step_started = Instant::now();
        self.metrics.record_round(RoundMetrics {
            round: self.round,
            correct_messages: correct_count,
            byzantine_messages: byz_count,
            deliveries,
            live_correct_nodes: live,
        });
        self.timings.add("step", elapsed_ns(step_started));
        Ok(())
    }

    /// Runs rounds until `stop` returns true (checked after every round) or the
    /// configured round limit is hit.
    ///
    /// Cap exhaustion is reported as [`RunOutcome::MaxRoundsExceeded`], not as an
    /// error — use [`RunOutcome::expect_completed`] where an unfinished run should be
    /// treated as a failure.
    pub fn run_until<F>(&mut self, mut stop: F) -> Result<RunOutcome, SimError>
    where
        F: FnMut(&Self) -> bool,
    {
        if stop(self) {
            return Ok(RunOutcome::Completed { rounds: self.round });
        }
        while self.round < self.config.max_rounds {
            self.run_round()?;
            if stop(self) {
                return Ok(RunOutcome::Completed { rounds: self.round });
            }
        }
        Ok(RunOutcome::MaxRoundsExceeded {
            limit: self.config.max_rounds,
        })
    }

    /// Runs rounds until every correct node has terminated, or at most `max_rounds`.
    pub fn run_until_all_terminated(&mut self, max_rounds: u64) -> Result<RunOutcome, SimError> {
        let previous = self.config.max_rounds;
        self.config.max_rounds = max_rounds;
        let result = self.run_until(|engine| engine.nodes.iter().all(|n| n.terminated()));
        self.config.max_rounds = previous;
        result
    }

    /// Runs rounds until every correct node has produced an output, or at most
    /// `max_rounds`. Useful for primitives (like reliable broadcast) that produce an
    /// output without terminating.
    pub fn run_until_all_output(&mut self, max_rounds: u64) -> Result<RunOutcome, SimError> {
        let previous = self.config.max_rounds;
        self.config.max_rounds = max_rounds;
        let result = self.run_until(|engine| engine.nodes.iter().all(|n| n.output().is_some()));
        self.config.max_rounds = previous;
        result
    }

    /// Runs until every correct node has terminated, treating cap exhaustion as
    /// [`SimError::MaxRoundsExceeded`]; returns the rounds executed. Convenience for
    /// callers (mostly tests) for which an unfinished run *is* a failure.
    pub fn run_to_termination(&mut self, max_rounds: u64) -> Result<u64, SimError> {
        self.run_until_all_terminated(max_rounds)?
            .expect_completed()
    }

    /// Runs until every correct node has produced an output, treating cap exhaustion
    /// as [`SimError::MaxRoundsExceeded`]; returns the rounds executed.
    pub fn run_to_output(&mut self, max_rounds: u64) -> Result<u64, SimError> {
        self.run_until_all_output(max_rounds)?.expect_completed()
    }

    /// Runs exactly `rounds` additional rounds.
    pub fn run_rounds(&mut self, rounds: u64) -> Result<(), SimError> {
        for _ in 0..rounds {
            self.run_round()?;
        }
        Ok(())
    }

    /// The `(id, output)` pairs of all correct nodes, in insertion order.
    pub fn outputs(&self) -> Vec<(NodeId, Option<N::Output>)> {
        self.nodes.iter().map(|n| (n.id(), n.output())).collect()
    }

    /// Consumes the engine and returns its parts (nodes, adversary, metrics) — used by
    /// drivers that want to inspect adversary state after a run.
    pub fn into_parts(self) -> (Vec<N>, A, Metrics) {
        (self.nodes, self.adversary, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FnAdversary, SilentAdversary};
    use crate::message::Outgoing;

    /// A node that broadcasts its id's parity in round 1 and from round 2 on outputs
    /// the number of distinct senders it has heard from.
    #[derive(Clone, Debug)]
    struct Counter {
        id: NodeId,
        senders: std::collections::HashSet<NodeId>,
        decided: Option<usize>,
        decide_round: u64,
    }

    impl Counter {
        fn new(id: NodeId, decide_round: u64) -> Self {
            Counter {
                id,
                senders: Default::default(),
                decided: None,
                decide_round,
            }
        }
    }

    impl Protocol for Counter {
        type Payload = u64;
        type Output = usize;

        fn id(&self) -> NodeId {
            self.id
        }

        fn step(&mut self, ctx: &RoundContext, inbox: &[Envelope<u64>]) -> Vec<Outgoing<u64>> {
            self.senders.extend(inbox.iter().map(|e| e.from));
            if ctx.round >= self.decide_round {
                self.decided = Some(self.senders.len());
                vec![]
            } else {
                vec![Outgoing::broadcast(self.id.raw())]
            }
        }

        fn output(&self) -> Option<usize> {
            self.decided
        }
    }

    fn nodes(n: usize) -> Vec<Counter> {
        (0..n)
            .map(|i| Counter::new(NodeId::new(10 + 3 * i as u64), 3))
            .collect()
    }

    #[test]
    fn all_nodes_hear_everyone_without_adversary() {
        let mut engine = SyncEngine::new(nodes(5), SilentAdversary, vec![]);
        engine.validate_ids().unwrap();
        let outcome = engine.run_until_all_terminated(10).unwrap();
        assert_eq!(outcome, RunOutcome::Completed { rounds: 3 });
        for (_, out) in engine.outputs() {
            assert_eq!(out, Some(5));
        }
    }

    #[test]
    fn byzantine_messages_reach_correct_nodes() {
        let byz = NodeId::new(999);
        let adv = FnAdversary::new(move |v: &AdversaryView<'_, u64>| {
            v.correct_ids
                .iter()
                .map(|&to| Directed::new(byz, to, 4242))
                .collect()
        });
        let mut engine = SyncEngine::new(nodes(4), adv, vec![byz]);
        engine.run_to_termination(10).unwrap();
        for (_, out) in engine.outputs() {
            assert_eq!(out, Some(5)); // 4 correct + 1 byzantine sender seen
        }
        assert!(engine.metrics().byzantine_messages > 0);
    }

    #[test]
    fn forged_sender_is_rejected() {
        let adv = FnAdversary::new(|v: &AdversaryView<'_, u64>| {
            // Claim to be a correct node — must be rejected.
            vec![Directed::new(v.correct_ids[0], v.correct_ids[1], 1)]
        });
        let mut engine = SyncEngine::new(nodes(3), adv, vec![NodeId::new(999)]);
        let err = engine.run_rounds(1).unwrap_err();
        assert!(matches!(err, SimError::ForgedSender { .. }));
    }

    #[test]
    fn duplicate_payload_from_same_sender_is_deduplicated() {
        let byz = NodeId::new(777);
        let adv = FnAdversary::new(move |v: &AdversaryView<'_, u64>| {
            // Send the same payload to the first correct node 5 times.
            vec![Directed::new(byz, v.correct_ids[0], 1); 5]
        });
        let mut engine = SyncEngine::new(nodes(3), adv, vec![byz]);
        engine.run_rounds(1).unwrap();
        // 3 broadcasts × 4 recipients (3 correct + 1 byz) = 12 correct messages;
        // deliveries to correct nodes: each correct node gets 3 correct messages,
        // plus exactly ONE deduplicated byzantine delivery to the first node.
        let m = engine.metrics();
        assert_eq!(m.correct_messages, 12);
        assert_eq!(m.byzantine_messages, 5);
        assert_eq!(m.deliveries, 9 + 1);
    }

    #[test]
    fn dedup_state_persists_for_terminated_nodes() {
        // Every correct node decides in round 1 (decide_round 1 → no broadcasts);
        // the adversary keeps sending the identical (sender, payload) pair. The
        // accumulated inbox of a terminated node is never consumed, so the pair
        // must be delivered exactly once across all rounds — the behaviour the
        // linear-scan dedup of the eager engine had.
        let byz = NodeId::new(777);
        let adv = FnAdversary::new(move |v: &AdversaryView<'_, u64>| {
            vec![Directed::new(byz, v.correct_ids[0], 42)]
        });
        let ns: Vec<Counter> = (0..2).map(|i| Counter::new(NodeId::new(i), 1)).collect();
        let mut engine = SyncEngine::new(ns, adv, vec![byz]);
        engine.run_rounds(4).unwrap();
        assert_eq!(engine.metrics().byzantine_messages, 4);
        assert_eq!(
            engine.metrics().deliveries,
            1,
            "cross-round duplicate dropped"
        );
    }

    #[test]
    fn membership_queries_are_maintained_incrementally() {
        let mut engine = SyncEngine::new(nodes(3), SilentAdversary, vec![NodeId::new(900)]);
        assert!(engine.is_correct(NodeId::new(10)));
        assert!(!engine.is_byzantine(NodeId::new(10)));
        assert!(engine.is_byzantine(NodeId::new(900)));
        engine.remove_node(NodeId::new(10)).unwrap();
        assert!(!engine.is_correct(NodeId::new(10)));
        engine.add_node(Counter::new(NodeId::new(10), 3)).unwrap();
        assert!(engine.is_correct(NodeId::new(10)));
        engine.remove_byzantine_id(NodeId::new(900)).unwrap();
        assert!(!engine.is_byzantine(NodeId::new(900)));
    }

    #[test]
    fn parallel_stepping_matches_serial_execution() {
        let run = |parallel: bool| {
            let byz = NodeId::new(999);
            let adv = FnAdversary::new(move |v: &AdversaryView<'_, u64>| {
                v.correct_ids
                    .iter()
                    .map(|&to| Directed::new(byz, to, v.round))
                    .collect()
            });
            let config = EngineConfig {
                parallel_node_threshold: if parallel { 1 } else { usize::MAX },
                trace: true,
                trace_capacity: 1 << 16,
                ..Default::default()
            };
            let ns: Vec<Counter> = (0..33)
                .map(|i| Counter::new(NodeId::new(10 + 3 * i as u64), 4))
                .collect();
            let mut engine = SyncEngine::with_config(ns, adv, vec![byz], config);
            engine.run_to_termination(10).unwrap();
            (
                engine.metrics().clone(),
                engine.outputs(),
                engine.trace().unwrap().events().to_vec(),
            )
        };
        let (serial_metrics, serial_outputs, serial_trace) = run(false);
        let (parallel_metrics, parallel_outputs, parallel_trace) = run(true);
        assert_eq!(serial_metrics, parallel_metrics);
        assert_eq!(
            serial_outputs
                .iter()
                .map(|(id, out)| (*id, *out))
                .collect::<Vec<_>>(),
            parallel_outputs
                .iter()
                .map(|(id, out)| (*id, *out))
                .collect::<Vec<_>>(),
        );
        assert_eq!(serial_trace, parallel_trace, "delivery order is identical");
    }

    /// Plays a fixed script — `script[r - 1]` is sent in round `r` — and
    /// records every inbox it consumes as `(sender, payload)` pairs. A node
    /// built `terminated` never steps, so its inbox accumulates.
    #[derive(Clone, Debug)]
    struct Scripted {
        id: NodeId,
        script: Vec<Vec<Outgoing<u64>>>,
        consumed: Vec<Vec<(u64, u64)>>,
        terminated: bool,
    }

    impl Protocol for Scripted {
        type Payload = u64;
        type Output = usize;

        fn id(&self) -> NodeId {
            self.id
        }

        fn step(&mut self, ctx: &RoundContext, inbox: &[Envelope<u64>]) -> Vec<Outgoing<u64>> {
            self.consumed
                .push(inbox.iter().map(|e| (e.from.raw(), *e.payload())).collect());
            self.script
                .get(ctx.round as usize - 1)
                .cloned()
                .unwrap_or_default()
        }

        fn output(&self) -> Option<usize> {
            None
        }

        fn terminated(&self) -> bool {
            self.terminated
        }
    }

    /// The queued next-round inbox of a correct node, as `(sender, payload)`.
    fn queued<A: Adversary<u64>>(engine: &SyncEngine<Scripted, A>, raw: u64) -> Vec<(u64, u64)> {
        engine
            .inboxes
            .get(&NodeId::new(raw))
            .map_or_else(Vec::new, |inbox| {
                inbox
                    .messages
                    .iter()
                    .map(|e| (e.from.raw(), *e.payload()))
                    .collect()
            })
    }

    #[test]
    fn every_inbox_receives_its_envelopes_in_item_order() {
        // Correct nodes 1..=4 (node 4 terminated from the start) and the
        // Byzantine identity 9. Each inbox must hold its offers in production
        // order — broadcasts and the unicasts addressed to it interleaved as
        // they were produced — then its Byzantine messages in adversary order,
        // with first-occurrence dedup per (sender, payload).
        let id = NodeId::new;
        let node = |raw: u64, script: Vec<Vec<Outgoing<u64>>>| Scripted {
            id: id(raw),
            terminated: script.is_empty(),
            script,
            consumed: Vec::new(),
        };
        let nodes = vec![
            node(
                1,
                vec![
                    // A unicast ahead of the broadcast, a unicast repeating the
                    // broadcast's payload to the same recipient, one more unicast.
                    vec![
                        Outgoing::unicast(id(2), 12),
                        Outgoing::broadcast(10),
                        Outgoing::unicast(id(2), 10),
                        Outgoing::unicast(id(3), 11),
                    ],
                    vec![Outgoing::broadcast(10)],
                ],
            ),
            // Unicasts to a subset, one of them to the Byzantine identity.
            node(
                2,
                vec![vec![
                    Outgoing::unicast(id(1), 20),
                    Outgoing::unicast(id(4), 20),
                    Outgoing::unicast(id(9), 21),
                ]],
            ),
            node(
                3,
                vec![
                    vec![Outgoing::broadcast(30)],
                    vec![Outgoing::unicast(id(4), 31)],
                ],
            ),
            node(4, vec![]),
        ];
        let adversary = FnAdversary::new(move |v: &AdversaryView<'_, u64>| {
            let byz = |to: u64, payload: u64| Directed::new(id(9), id(to), payload);
            if v.round == 1 {
                vec![byz(1, 90), byz(1, 90), byz(4, 91), byz(3, 92), byz(4, 91)]
            } else {
                vec![byz(4, 91), byz(1, 90)]
            }
        });
        let mut engine = SyncEngine::new(nodes, adversary, vec![id(9)]);

        engine.run_rounds(1).unwrap();
        let round_one = [
            (1, vec![(1, 10), (2, 20), (3, 30), (9, 90)]),
            (2, vec![(1, 12), (1, 10), (3, 30)]),
            (3, vec![(1, 10), (1, 11), (3, 30), (9, 92)]),
            (4, vec![(1, 10), (2, 20), (3, 30), (9, 91)]),
        ];
        for (raw, expected) in &round_one {
            assert_eq!(&queued(&engine, *raw), expected, "round-1 inbox of {raw}");
        }
        assert_eq!(engine.metrics().per_round[0].deliveries, 15);

        engine.run_rounds(1).unwrap();
        for (raw, expected) in &round_one[..3] {
            let consumed = &engine.node(id(*raw)).unwrap().consumed;
            assert_eq!(&consumed[1], expected, "node {raw} consumed its inbox");
        }
        assert_eq!(queued(&engine, 1), [(1, 10), (9, 90)]);
        assert_eq!(queued(&engine, 2), [(1, 10)]);
        assert_eq!(queued(&engine, 3), [(1, 10)]);
        // The terminated node keeps its dedup state: the repeated broadcast
        // and Byzantine message are dropped, only the new unicast lands.
        assert_eq!(
            queued(&engine, 4),
            [(1, 10), (2, 20), (3, 30), (9, 91), (3, 31)]
        );
        assert!(engine.node(id(4)).unwrap().consumed.is_empty());
        assert_eq!(engine.metrics().per_round[1].deliveries, 5);
        assert_eq!(engine.metrics().deliveries, 20);
    }

    /// Records the thread each `step` ran on.
    #[derive(Debug)]
    struct ThreadProbe {
        id: NodeId,
        threads: Vec<std::thread::ThreadId>,
    }

    impl Protocol for ThreadProbe {
        type Payload = u64;
        type Output = usize;

        fn id(&self) -> NodeId {
            self.id
        }

        fn step(&mut self, _ctx: &RoundContext, _inbox: &[Envelope<u64>]) -> Vec<Outgoing<u64>> {
            self.threads.push(std::thread::current().id());
            vec![Outgoing::broadcast(self.id.raw())]
        }

        fn output(&self) -> Option<usize> {
            None
        }
    }

    #[test]
    fn nodes_step_on_workers_from_the_threshold_on_in_both_engines() {
        use crate::event::{EventEngine, EventTiming};
        use std::thread::ThreadId;

        let threshold = EngineConfig::default().parallel_node_threshold;
        let caller = HashSet::from([std::thread::current().id()]);
        let probes = |n: u64| -> Vec<ThreadProbe> {
            (0..n)
                .map(|i| ThreadProbe {
                    id: NodeId::new(i),
                    threads: Vec::new(),
                })
                .collect()
        };
        let threads = |nodes: &[ThreadProbe]| -> HashSet<ThreadId> {
            nodes
                .iter()
                .flat_map(|n| n.threads.iter().copied())
                .collect()
        };
        // Two rounds of `n` nodes with an optional threshold override, on the
        // sync engine or the zero-jitter event engine.
        let run = |event: bool, n: u64, pinned: Option<usize>| -> HashSet<ThreadId> {
            if event {
                let mut engine = EventEngine::new(
                    probes(n),
                    SilentAdversary,
                    vec![],
                    EventTiming::synchronous(),
                );
                if let Some(threshold) = pinned {
                    engine.set_parallel_node_threshold(threshold);
                }
                engine.run_rounds(2).unwrap();
                threads(engine.nodes())
            } else {
                let mut engine = SyncEngine::new(probes(n), SilentAdversary, vec![]);
                if let Some(threshold) = pinned {
                    engine.set_parallel_node_threshold(threshold);
                }
                engine.run_rounds(2).unwrap();
                threads(engine.nodes())
            }
        };
        let multicore = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        for event in [false, true] {
            let at_threshold = run(event, threshold as u64, None);
            if multicore {
                assert!(
                    at_threshold.len() > 1,
                    "event = {event}: {threshold} nodes stepped on one thread by default"
                );
            } else {
                assert_eq!(
                    at_threshold, caller,
                    "event = {event}: one core steps serially"
                );
            }
            assert_eq!(
                run(event, threshold as u64 - 1, None),
                caller,
                "event = {event}: below the threshold every step runs on the caller"
            );
            assert_eq!(
                run(event, threshold as u64, Some(usize::MAX)),
                caller,
                "event = {event}: a usize::MAX threshold pins stepping serial"
            );
        }
    }

    #[test]
    fn phase_timings_accumulate_and_name_a_dominant_phase() {
        let mut engine = SyncEngine::new(nodes(5), SilentAdversary, vec![]);
        assert_eq!(engine.phase_timings(), PhaseTimings::default());
        engine.run_rounds(3).unwrap();
        let timings = engine.phase_timings();
        assert!(timings.total_ns() > 0, "rounds take measurable time");
        assert!(
            timings.total_ns()
                >= timings
                    .get("produce")
                    .max(timings.get("adversary"))
                    .max(timings.get("deliver")),
            "the total covers every phase"
        );
        assert!(["produce", "adversary", "deliver", "step"].contains(&timings.dominant()));
    }

    #[test]
    fn duplicate_ids_are_detected() {
        let mut ns = nodes(3);
        ns.push(Counter::new(NodeId::new(10), 3));
        let engine = SyncEngine::new(ns, SilentAdversary, vec![]);
        assert_eq!(
            engine.validate_ids().unwrap_err(),
            SimError::DuplicateId(NodeId::new(10))
        );
    }

    #[test]
    fn run_until_respects_max_rounds() {
        // Nodes decide at round 100, cap at 5 rounds.
        let ns: Vec<Counter> = (0..3).map(|i| Counter::new(NodeId::new(i), 100)).collect();
        let mut engine = SyncEngine::new(ns, SilentAdversary, vec![]);
        let outcome = engine.run_until_all_terminated(5).unwrap();
        assert_eq!(outcome, RunOutcome::MaxRoundsExceeded { limit: 5 });
        assert!(!outcome.is_completed());
        assert_eq!(outcome.rounds(), 5);
        assert_eq!(
            outcome.expect_completed().unwrap_err(),
            SimError::MaxRoundsExceeded { limit: 5 }
        );
        assert_eq!(engine.round(), 5);
    }

    #[test]
    fn completed_outcome_reports_rounds() {
        let mut engine = SyncEngine::new(nodes(3), SilentAdversary, vec![]);
        let outcome = engine.run_until_all_terminated(10).unwrap();
        assert!(outcome.is_completed());
        assert_eq!(outcome.rounds(), 3);
        assert_eq!(outcome.expect_completed().unwrap(), 3);
    }

    #[test]
    fn engine_applies_registered_churn() {
        let mut engine = SyncEngine::new(nodes(3), SilentAdversary, vec![]);
        let schedule = ChurnSchedule::empty()
            .with(2, ChurnEvent::JoinCorrect(NodeId::new(500)))
            .with(2, ChurnEvent::JoinByzantine(NodeId::new(600)))
            .with(3, ChurnEvent::LeaveCorrect(NodeId::new(500)))
            .with(3, ChurnEvent::LeaveByzantine(NodeId::new(600)));
        engine.set_churn(schedule, |id| Counter::new(id, 100));
        engine.run_rounds(1).unwrap();
        assert_eq!(engine.correct_ids().len(), 3);
        engine.run_rounds(1).unwrap();
        assert_eq!(
            engine.correct_ids().len(),
            4,
            "joiner arrives before round 2"
        );
        assert_eq!(engine.byzantine_ids().len(), 1);
        engine.run_rounds(1).unwrap();
        assert_eq!(
            engine.correct_ids().len(),
            3,
            "leaver departs before round 3"
        );
        assert!(engine.byzantine_ids().is_empty());
    }

    #[test]
    fn inapplicable_churn_event_is_an_error() {
        let mut engine = SyncEngine::new(nodes(3), SilentAdversary, vec![]);
        let schedule =
            ChurnSchedule::empty().with(1, ChurnEvent::LeaveCorrect(NodeId::new(424_242)));
        engine.set_churn(schedule, |id| Counter::new(id, 100));
        assert_eq!(
            engine.run_rounds(1).unwrap_err(),
            SimError::UnknownNode(NodeId::new(424_242))
        );
    }

    #[test]
    fn dynamic_join_and_leave() {
        let mut engine = SyncEngine::new(nodes(3), SilentAdversary, vec![]);
        engine.run_rounds(1).unwrap();
        engine.add_node(Counter::new(NodeId::new(500), 4)).unwrap();
        assert_eq!(engine.correct_ids().len(), 4);
        // Duplicate join is rejected.
        assert!(engine.add_node(Counter::new(NodeId::new(500), 4)).is_err());
        let removed = engine.remove_node(NodeId::new(500)).unwrap();
        assert_eq!(removed.id(), NodeId::new(500));
        assert!(engine.remove_node(NodeId::new(500)).is_err());
        // Byzantine identity management.
        engine.add_byzantine_id(NodeId::new(600)).unwrap();
        assert!(engine.add_byzantine_id(NodeId::new(600)).is_err());
        engine.remove_byzantine_id(NodeId::new(600)).unwrap();
        assert!(engine.remove_byzantine_id(NodeId::new(600)).is_err());
    }

    #[test]
    fn crash_without_recovery_is_an_error() {
        let mut engine = SyncEngine::new(nodes(3), SilentAdversary, vec![]);
        let schedule = ChurnSchedule::empty().with(1, ChurnEvent::Crash(NodeId::new(10)));
        engine.set_churn(schedule, |id| Counter::new(id, 100));
        assert_eq!(
            engine.run_rounds(1).unwrap_err(),
            SimError::RecoveryDisabled(NodeId::new(10))
        );
    }

    #[test]
    fn crash_and_restart_recover_a_correct_node_through_the_wal() {
        let crashed = NodeId::new(10);
        let mut engine = SyncEngine::new(nodes(4), SilentAdversary, vec![]);
        engine.enable_recovery(Box::new(Counter::clone));
        let schedule = ChurnSchedule::empty()
            .with(2, ChurnEvent::Crash(crashed))
            .with(
                3,
                ChurnEvent::Restart {
                    id: crashed,
                    policy: RestartPolicy::Clean,
                },
            );
        engine.set_churn(schedule, |id| Counter::new(id, 3));
        engine.run_rounds(3).unwrap();
        // Round 2 ran without the crashed node.
        assert_eq!(engine.metrics().per_round[1].live_correct_nodes, 3);
        // The restart replayed the one committed pre-crash round faithfully.
        let restarts = engine.recovery_restarts();
        assert_eq!(restarts.len(), 1);
        assert_eq!(restarts[0].node, crashed);
        assert_eq!(restarts[0].crash_round, 2);
        assert_eq!(restarts[0].restart_round, 3);
        assert_eq!(restarts[0].recovered_rounds, 1);
        assert_eq!(restarts[0].replayed_rounds, 1);
        assert_eq!(restarts[0].send_conflicts, 0);
        assert!(restarts[0].consumed_monotone);
        // The survivors heard all four senders; the crashed node lost the
        // deliveries addressed to it while it was down but still decided.
        for (id, out) in engine.outputs() {
            if id == crashed {
                assert_eq!(out, Some(0), "inboxes queued while down are dropped");
            } else {
                assert_eq!(out, Some(4));
            }
        }
    }

    #[test]
    fn byzantine_crash_cycle_moves_the_identity_out_and_back() {
        let byz = NodeId::new(900);
        let mut engine = SyncEngine::new(nodes(3), SilentAdversary, vec![byz]);
        engine.enable_recovery(Box::new(Counter::clone));
        let schedule = ChurnSchedule::empty().with(1, ChurnEvent::Crash(byz)).with(
            2,
            ChurnEvent::Restart {
                id: byz,
                policy: RestartPolicy::Clean,
            },
        );
        engine.set_churn(schedule, |id| Counter::new(id, 100));
        engine.run_rounds(1).unwrap();
        assert!(engine.byzantine_ids().is_empty(), "crashed before round 1");
        engine.run_rounds(1).unwrap();
        assert_eq!(engine.byzantine_ids(), &[byz], "restored before round 2");
        assert!(
            engine.recovery_restarts().is_empty(),
            "a Byzantine cycle is membership bookkeeping, not a WAL replay"
        );
    }

    #[test]
    fn restart_of_a_never_crashed_node_is_unknown() {
        let mut engine = SyncEngine::new(nodes(3), SilentAdversary, vec![]);
        engine.enable_recovery(Box::new(Counter::clone));
        let schedule = ChurnSchedule::empty().with(
            1,
            ChurnEvent::Restart {
                id: NodeId::new(77),
                policy: RestartPolicy::Clean,
            },
        );
        engine.set_churn(schedule, |id| Counter::new(id, 100));
        assert_eq!(
            engine.run_rounds(1).unwrap_err(),
            SimError::UnknownNode(NodeId::new(77))
        );
    }

    #[test]
    fn recovery_on_a_crash_free_run_is_observationally_silent() {
        let run = |recover: bool| {
            let mut engine = SyncEngine::new(nodes(5), SilentAdversary, vec![]);
            if recover {
                engine.enable_recovery(Box::new(Counter::clone));
            }
            engine.run_to_termination(10).unwrap();
            (engine.metrics().clone(), engine.outputs())
        };
        let (plain_metrics, plain_outputs) = run(false);
        let (recovery_metrics, recovery_outputs) = run(true);
        assert_eq!(plain_metrics, recovery_metrics);
        assert_eq!(plain_outputs.len(), recovery_outputs.len());
        for ((id_a, out_a), (id_b, out_b)) in plain_outputs.iter().zip(&recovery_outputs) {
            assert_eq!(id_a, id_b);
            assert_eq!(out_a, out_b);
        }
    }

    #[test]
    fn trace_records_deliveries_when_enabled() {
        let config = EngineConfig {
            trace: true,
            trace_capacity: 1000,
            ..Default::default()
        };
        let mut engine = SyncEngine::with_config(nodes(3), SilentAdversary, vec![], config);
        engine.run_rounds(2).unwrap();
        let trace = engine.trace().expect("tracing enabled");
        assert!(!trace.events().is_empty());
        // All traced events are from correct nodes here.
        assert!(trace.events().iter().all(|e| !e.byzantine));
    }

    #[test]
    fn terminated_nodes_stop_sending() {
        let mut engine = SyncEngine::new(nodes(3), SilentAdversary, vec![]);
        engine.run_to_termination(10).unwrap();
        let msgs_after_done = {
            let before = engine.metrics().correct_messages;
            engine.run_rounds(2).unwrap();
            engine.metrics().correct_messages - before
        };
        assert_eq!(msgs_after_done, 0);
    }
}
