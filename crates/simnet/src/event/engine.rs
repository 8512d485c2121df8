//! The discrete-event engine.
//!
//! [`EventEngine`] drives the same [`Protocol`] state machines and [`Adversary`]
//! strategies as the synchronous engine, but replaces the global round barrier
//! with a [`VirtualClock`], per-node round timers ([`NodeTimers`]) and a
//! deterministic [`DeliveryQueue`] of timestamped message flights. Each call to
//! [`EventEngine::run_round`] executes one *batch*:
//!
//! 1. **schedule (clock)** — advance the virtual clock to the earliest due
//!    timer;
//! 2. **step** — apply churn, then hand every node whose timer fired its
//!    accumulated inbox (when all timers fire together — the zero-skew case —
//!    this reuses the synchronous engine's stepper verbatim, parallel from
//!    [`EngineConfig::parallel_node_threshold`] nodes on, so executions are
//!    bit-for-bit identical to [`SyncEngine`]);
//! 3. **adversary** — the rushing adversary observes the batch's correct
//!    traffic and injects its own messages, exactly as in the sync engine;
//! 4. **schedule (expand)** — every point-to-point message is assigned an
//!    arrival time by the [`LinkDelay`] model and pushed into the queue as a
//!    [`Flight`] (a `None` arrival drops the message — the asynchronous
//!    omission case);
//! 5. **dispatch** — every flight due before the next timer batch is popped in
//!    deterministic `(arrival, reorder key, sequence)` order and delivered into
//!    the recipient's inbox through the same dedup path the sync engine uses.
//!
//! With [`EventTiming::synchronous`] — constant one-round delays, zero skew, no
//! reordering — step 5 pops exactly the messages sent in step 4, in scheduling
//! order, so the engine produces **byte-identical** metrics and reports to
//! [`SyncEngine`] (pinned by `tests/event_equivalence.rs`), and every inbox
//! holds the same envelopes in the same order. Only the global order of trace
//! events within a round differs: this engine records in dispatch order, the
//! sync engine recipient-major. Every other timing opens scenario space the
//! round barrier cannot express: per-link jitter, partitions, and GST partial
//! synchrony where pre-GST messages stall until stabilisation.
//!
//! [`SyncEngine`]: crate::SyncEngine

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use crate::adversary::{Adversary, AdversaryView};
use crate::dynamic::{ChurnEvent, ChurnSchedule};
use crate::engine::{
    deliver, elapsed_ns, step_nodes, ChurnDriver, EngineConfig, FastState, Inbox, PhaseTimings,
    RunOutcome,
};
use crate::error::SimError;
use crate::id::NodeId;
use crate::message::{Destination, Directed, Envelope};
use crate::metrics::{Metrics, RoundMetrics};
use crate::node::{Protocol, RoundContext};
use crate::rng::derive_seed;
use crate::trace::TraceLog;
use crate::traffic::{RoundTraffic, TrafficItem};
use crate::wal::{RecoveryManager, RestartPolicy, RestartRecord, Snapshotter, WalConfig};

use super::clock::{NodeTimers, VirtualClock};
use super::delay::{EventTiming, LinkDelay};
use super::queue::{DeliveryQueue, Flight};

/// The discrete-event engine (see module docs).
pub struct EventEngine<N: Protocol, A: Adversary<N::Payload>> {
    nodes: Vec<N>,
    adversary: A,
    byzantine_ids: Vec<NodeId>,
    correct_index: HashSet<NodeId>,
    byzantine_index: HashSet<NodeId>,
    inboxes: HashMap<NodeId, Inbox<N::Payload>, FastState>,
    spare_inboxes: Vec<Inbox<N::Payload>>,
    step_inboxes: Vec<Option<Inbox<N::Payload>>>,
    traffic: RoundTraffic<N::Payload>,
    queue: DeliveryQueue<N::Payload>,
    clock: VirtualClock,
    timers: NodeTimers,
    delay: LinkDelay,
    reorder_seed: Option<u64>,
    /// Global scheduling sequence number — the last deterministic tie-break of
    /// the delivery queue and the stream index of the reorder key.
    seq: u64,
    round: u64,
    metrics: Metrics,
    timings: PhaseTimings,
    trace: Option<TraceLog<N::Payload>>,
    config: EngineConfig,
    churn: Option<ChurnDriver<N>>,
    /// The crash-recovery subsystem; `None` until [`EventEngine::enable_recovery`].
    recovery: Option<RecoveryManager<N>>,
    /// Retired-traffic GC; off until [`EventEngine::enable_traffic_gc`].
    traffic_gc: bool,
}

impl<N: Protocol, A: Adversary<N::Payload>> EventEngine<N, A> {
    /// Creates an event engine with the default [`EngineConfig`].
    pub fn new(
        nodes: Vec<N>,
        adversary: A,
        byzantine_ids: Vec<NodeId>,
        timing: EventTiming,
    ) -> Self {
        Self::with_config(
            nodes,
            adversary,
            byzantine_ids,
            timing,
            EngineConfig::default(),
        )
    }

    /// Creates an event engine with an explicit configuration.
    pub fn with_config(
        nodes: Vec<N>,
        adversary: A,
        byzantine_ids: Vec<NodeId>,
        timing: EventTiming,
        config: EngineConfig,
    ) -> Self {
        let trace = config
            .trace
            .then(|| TraceLog::with_capacity(config.trace_capacity));
        let correct_index: HashSet<NodeId> = nodes.iter().map(|n| n.id()).collect();
        let byzantine_index = byzantine_ids.iter().copied().collect();
        let mut timers = NodeTimers::new(timing.round_units, timing.max_skew, timing.skew_seed);
        for node in &nodes {
            timers.register(node.id());
        }
        EventEngine {
            nodes,
            adversary,
            byzantine_ids,
            correct_index,
            byzantine_index,
            inboxes: HashMap::default(),
            spare_inboxes: Vec::new(),
            step_inboxes: Vec::new(),
            traffic: RoundTraffic::new(),
            queue: DeliveryQueue::new(),
            clock: VirtualClock::new(),
            timers,
            delay: timing.delay,
            reorder_seed: timing.reorder_seed,
            seq: 0,
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

    /// Registers a churn plan, applied before each batch exactly as the sync
    /// engine applies it before each round (see [`SyncEngine::set_churn`]).
    ///
    /// [`SyncEngine::set_churn`]: crate::SyncEngine::set_churn
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

    /// Crashes a node before the batch for `round` executes (see
    /// [`SyncEngine::set_churn`] for the crash semantics — identical here).
    ///
    /// [`SyncEngine::set_churn`]: crate::SyncEngine::set_churn
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

    /// Restarts a crashed node before the batch for `round` executes: replays
    /// its log per the policy and re-admits it through the ordinary membership
    /// path, which arms its timer for the batch that admitted it.
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

    /// The number of batches executed so far (the engine-level round count).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current virtual time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Number of messages still in flight (scheduled, not yet delivered).
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// The correct nodes, in insertion order.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Mutable access to the correct nodes.
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

    /// Wall-clock time accumulated per phase (`schedule` / `step` / `produce` /
    /// `adversary` / `dispatch`); measurement-only.
    pub fn phase_timings(&self) -> PhaseTimings {
        self.timings.clone()
    }

    /// Overrides the node count at which a full batch steps its nodes in
    /// parallel (see [`EngineConfig::parallel_node_threshold`]).
    pub fn set_parallel_node_threshold(&mut self, threshold: usize) {
        self.config.parallel_node_threshold = threshold;
    }

    /// The trace log, if tracing was enabled in the configuration.
    pub fn trace(&self) -> Option<&TraceLog<N::Payload>> {
        self.trace.as_ref()
    }

    /// Enables crash recovery with the default [`WalConfig`] (see
    /// [`SyncEngine::enable_recovery`] — the semantics are identical, with the
    /// write-ahead hooks running per batch on the due nodes).
    ///
    /// [`SyncEngine::enable_recovery`]: crate::SyncEngine::enable_recovery
    pub fn enable_recovery(&mut self, snapshot: Snapshotter<N>) {
        self.enable_recovery_with(snapshot, WalConfig::default());
    }

    /// Enables crash recovery with an explicit log configuration.
    pub fn enable_recovery_with(&mut self, snapshot: Snapshotter<N>, config: WalConfig) {
        self.recovery = Some(RecoveryManager::with_config(snapshot, config));
    }

    /// Whether crash recovery is enabled.
    pub fn recovery_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// Enables retired-traffic garbage collection: after each batch's dispatch
    /// the engine prunes queued *inbox* envelopes whose
    /// [`Protocol::instance_of`] tag lies below the minimum
    /// [`Protocol::retired_frontier`] over the live nodes. In-flight messages
    /// (the delivery queue) are never pruned — deliveries are counted when a
    /// flight lands in an inbox, so dropping a flight would change the
    /// metrics; an inbox entry's delivery is already on the books. Same
    /// observational-silence contract as `SyncEngine::enable_traffic_gc`.
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

    /// Adds a correct node. Before the first batch the node joins the initial
    /// timer schedule; mid-run (churn) its timer is armed at the current
    /// virtual time, so it steps together with the batch that admitted it —
    /// matching the sync engine, where a joiner participates in the round its
    /// churn event precedes.
    pub fn add_node(&mut self, node: N) -> Result<(), SimError> {
        let id = node.id();
        if self.correct_index.contains(&id) || self.byzantine_index.contains(&id) {
            return Err(SimError::DuplicateId(id));
        }
        if self.round == 0 {
            self.timers.register(id);
        } else {
            self.timers.register_at(id, self.clock.now());
        }
        self.correct_index.insert(id);
        self.nodes.push(node);
        Ok(())
    }

    /// Removes a correct node. Pending inbox contents are dropped; flights
    /// still addressed to it are discarded when they come due.
    pub fn remove_node(&mut self, id: NodeId) -> Result<N, SimError> {
        let idx = self
            .nodes
            .iter()
            .position(|n| n.id() == id)
            .ok_or(SimError::UnknownNode(id))?;
        self.correct_index.remove(&id);
        self.timers.remove(id);
        if let Some(mut inbox) = self.inboxes.remove(&id) {
            inbox.recycle();
            self.spare_inboxes.push(inbox);
        }
        Ok(self.nodes.remove(idx))
    }

    /// Registers an additional Byzantine identity.
    pub fn add_byzantine_id(&mut self, id: NodeId) -> Result<(), SimError> {
        if self.correct_index.contains(&id) || self.byzantine_index.contains(&id) {
            return Err(SimError::DuplicateId(id));
        }
        self.byzantine_index.insert(id);
        self.byzantine_ids.push(id);
        Ok(())
    }

    /// Removes a Byzantine identity.
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

    /// Executes one batch (see module docs). Returns an error only if the
    /// adversary forged a sender identity or a churn event was inapplicable.
    pub fn run_round(&mut self) -> Result<(), SimError> {
        // Phase 0 (schedule): advance the virtual clock to the earliest due
        // timer. With no timers left (every correct node gone) time still
        // moves by one period so the run cap is eventually reached.
        let schedule_started = Instant::now();
        let target = self
            .timers
            .next_due()
            .unwrap_or_else(|| self.clock.now() + self.timers.period());
        self.clock.advance_to(target);
        self.timings.add("schedule", elapsed_ns(schedule_started));

        let step_started = Instant::now();
        self.apply_churn(self.round + 1)?;
        self.round += 1;
        let now = self.clock.now();
        let correct_ids = self.correct_ids();

        // Phase 1 (step/produce): hand every due, live node its accumulated
        // inbox. When every timer fired (the zero-skew case, and any batch
        // where skews happen to align) the sync engine's steppers run
        // unchanged; a partial batch steps the due subset with their local
        // round numbers.
        self.traffic.begin_round(
            correct_ids
                .iter()
                .copied()
                .chain(self.byzantine_ids.iter().copied()),
        );
        let due: Vec<bool> = self
            .nodes
            .iter()
            .map(|n| self.timers.due_at(n.id(), now))
            .collect();
        let batch_full = due.iter().all(|&d| d);
        self.step_inboxes.clear();
        for (node, &is_due) in self.nodes.iter().zip(&due) {
            self.step_inboxes.push(if is_due && !node.terminated() {
                self.inboxes.remove(&node.id())
            } else {
                None
            });
        }
        // Write-ahead: log each due node's inbox under the round number its
        // step context will carry (the batch round when every timer fired, the
        // node's local round in a skewed partial batch) before it steps.
        if let Some(recovery) = &mut self.recovery {
            for (index, node) in self.nodes.iter().enumerate() {
                if !due[index] || node.terminated() {
                    continue;
                }
                let node_round = if batch_full {
                    self.round
                } else {
                    self.timers.fires(node.id()) + 1
                };
                let empty: &[Envelope<N::Payload>] = &[];
                let inbox = self.step_inboxes[index]
                    .as_ref()
                    .map_or(empty, |b| b.messages.as_slice());
                recovery.begin_step(node, node_round, inbox);
            }
        }
        self.timings.add("step", elapsed_ns(step_started));

        let produce_started = Instant::now();
        let live = if batch_full {
            step_nodes(
                &mut self.nodes,
                &RoundContext::new(self.round),
                &self.step_inboxes,
                &mut self.traffic,
                self.config.parallel_node_threshold,
            )
        } else {
            let mut live = 0u64;
            for (index, node) in self.nodes.iter_mut().enumerate() {
                if !due[index] || node.terminated() {
                    continue;
                }
                live += 1;
                let id = node.id();
                // A skewed node's round number is local: how many times its own
                // timer has fired, not the engine's batch count.
                let ctx = RoundContext::new(self.timers.fires(id) + 1);
                let empty: &[Envelope<N::Payload>] = &[];
                let inbox = self.step_inboxes[index]
                    .as_ref()
                    .map_or(empty, |b| b.messages.as_slice());
                for message in node.step(&ctx, inbox) {
                    match message.dest {
                        Destination::Broadcast => self.traffic.push_broadcast(id, message.payload),
                        Destination::Unicast(to) => {
                            self.traffic
                                .push_unicast(Directed::new(id, to, message.payload))
                        }
                    }
                }
            }
            live
        };
        self.timings.add("produce", elapsed_ns(produce_started));

        let step_started = Instant::now();
        // Re-arm every fired timer — including terminated nodes', so the batch
        // cadence continues while non-terminating peers are still running.
        for (node, &is_due) in self.nodes.iter().zip(&due) {
            if is_due {
                self.timers.fire(node.id());
            }
        }
        for mut inbox in self.step_inboxes.drain(..).flatten() {
            inbox.recycle();
            self.spare_inboxes.push(inbox);
        }
        let correct_index = &self.correct_index;
        self.inboxes.retain(|id, _| correct_index.contains(id));
        // Log the digests of every produced message and commit the batch's open
        // rounds — *before* the adversary phase: a send becomes network-visible
        // only once it is durable in its sender's log.
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

        // Phase 2 (adversary): identical to the sync engine — the rushing view
        // exposes the batch's correct traffic.
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

        // Phase 3 (schedule): expand the compact traffic towards correct
        // recipients and assign each point-to-point message an arrival time.
        // The expansion is item-major (items in production order, broadcasts
        // fanned over the correct nodes in membership order, Byzantine traffic
        // last), so with equal arrival times and no reorder key each inbox
        // receives its envelopes in the order the sync engine's
        // recipient-major pass delivers them.
        let schedule_started = Instant::now();
        let correct_count = self.traffic.point_to_point_count();
        let byz_count = byzantine_traffic.len() as u64;
        {
            let EventEngine {
                traffic,
                queue,
                delay,
                reorder_seed,
                seq,
                correct_index,
                round,
                ..
            } = self;
            let mut schedule =
                |from: NodeId, to: NodeId, payload: &crate::shared::Shared<N::Payload>| {
                    *seq += 1;
                    if let Some(when) = delay.arrival(from, to, now, *seq) {
                        let key = reorder_seed.map_or(0, |s| derive_seed(s, *seq));
                        queue.push(Flight {
                            when,
                            key,
                            seq: *seq,
                            sent_round: *round,
                            from,
                            to,
                            payload: payload.clone(),
                        });
                    }
                };
            for item in traffic.items() {
                match item {
                    TrafficItem::Broadcast { from, payload } => {
                        for &to in &correct_ids {
                            schedule(*from, to, payload);
                        }
                    }
                    TrafficItem::Unicast(message) => {
                        if correct_index.contains(&message.to) {
                            schedule(message.from, message.to, &message.payload);
                        }
                    }
                }
            }
            for message in &byzantine_traffic {
                if correct_index.contains(&message.to) {
                    schedule(message.from, message.to, &message.payload);
                }
            }
        }
        self.metrics.record_round(RoundMetrics {
            round: self.round,
            correct_messages: correct_count,
            byzantine_messages: byz_count,
            deliveries: 0,
            live_correct_nodes: live,
        });
        self.timings.add("schedule", elapsed_ns(schedule_started));

        // Phase 4 (dispatch): pop every flight due before the next timer batch
        // into its recipient's inbox. Popping at the end of the sending batch
        // is safe for any delay model — no node steps again before the horizon
        // — and it is what makes the zero-jitter case byte-identical to the
        // sync engine, whose final round also delivers messages nobody will
        // ever consume. Deliveries are attributed to the *sending* batch's
        // metrics row, matching the sync engine's accounting.
        let dispatch_started = Instant::now();
        let horizon = self
            .timers
            .next_due()
            .unwrap_or_else(|| self.clock.now() + self.timers.period());
        while let Some(flight) = self.queue.pop_due(horizon) {
            if !self.correct_index.contains(&flight.to) {
                continue;
            }
            let mut inbox = self
                .inboxes
                .remove(&flight.to)
                .unwrap_or_else(|| self.spare_inboxes.pop().unwrap_or_default());
            let mut delivered = 0u64;
            deliver(
                &mut inbox,
                &mut self.trace,
                &self.byzantine_index,
                self.round + 1,
                flight.from,
                flight.to,
                &flight.payload,
                &mut delivered,
            );
            if delivered > 0 {
                self.metrics.deliveries += delivered;
                if let Some(row) = self
                    .metrics
                    .per_round
                    .get_mut(flight.sent_round.saturating_sub(1) as usize)
                {
                    row.deliveries += delivered;
                }
            }
            self.inboxes.insert(flight.to, inbox);
        }

        // Retired-traffic GC (see [`EventEngine::enable_traffic_gc`]): prune
        // inbox envelopes for instances below every live node's retired
        // frontier. Flights stay untouched; `seen` dedup sets stay untouched.
        if self.traffic_gc {
            let frontier = self
                .nodes
                .iter()
                .map(|node| node.retired_frontier())
                .min()
                .unwrap_or(0);
            if frontier > 0 {
                let nodes = &self.nodes;
                if let Some(probe) = nodes.first() {
                    for inbox in self.inboxes.values_mut() {
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
        self.timings.add("dispatch", elapsed_ns(dispatch_started));
        Ok(())
    }

    /// Runs batches until `stop` returns true (checked after every batch) or
    /// the configured round cap is hit.
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

    /// Runs batches until every correct node has terminated, or at most
    /// `max_rounds`.
    pub fn run_until_all_terminated(&mut self, max_rounds: u64) -> Result<RunOutcome, SimError> {
        let previous = self.config.max_rounds;
        self.config.max_rounds = max_rounds;
        let result = self.run_until(|engine| engine.nodes.iter().all(|n| n.terminated()));
        self.config.max_rounds = previous;
        result
    }

    /// Runs batches until every correct node has produced an output, or at
    /// most `max_rounds`.
    pub fn run_until_all_output(&mut self, max_rounds: u64) -> Result<RunOutcome, SimError> {
        let previous = self.config.max_rounds;
        self.config.max_rounds = max_rounds;
        let result = self.run_until(|engine| engine.nodes.iter().all(|n| n.output().is_some()));
        self.config.max_rounds = previous;
        result
    }

    /// Runs exactly `rounds` additional batches.
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

    /// Consumes the engine and returns its parts (nodes, adversary, metrics).
    pub fn into_parts(self) -> (Vec<N>, A, Metrics) {
        (self.nodes, self.adversary, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::SilentAdversary;
    use crate::engine::SyncEngine;
    use crate::event::delay::{DelaySpec, TimingSpec};
    use crate::message::Outgoing;

    /// Broadcasts its id's parity in round 1; from `decide_round` on, outputs
    /// the number of distinct senders heard so far.
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

    fn counters(n: u64) -> Vec<Counter> {
        (0..n)
            .map(|i| Counter::new(NodeId::new(10 + i), 3))
            .collect()
    }

    fn event_engine(n: u64, timing: EventTiming) -> EventEngine<Counter, SilentAdversary> {
        EventEngine::new(counters(n), SilentAdversary, vec![], timing)
    }

    #[test]
    fn zero_jitter_batches_match_the_sync_engine_exactly() {
        let mut sync = SyncEngine::new(counters(5), SilentAdversary, vec![]);
        let mut event = event_engine(5, EventTiming::synchronous());
        assert!(sync.run_until_all_terminated(10).unwrap().is_completed());
        assert!(event.run_until_all_terminated(10).unwrap().is_completed());
        assert_eq!(sync.round(), event.round());
        assert_eq!(sync.metrics(), event.metrics());
        let sync_outputs: Vec<_> = sync.outputs();
        let event_outputs: Vec<_> = event.outputs();
        assert_eq!(sync_outputs.len(), event_outputs.len());
        for ((id_a, out_a), (id_b, out_b)) in sync_outputs.iter().zip(&event_outputs) {
            assert_eq!(id_a, id_b);
            assert_eq!(out_a, out_b);
        }
    }

    #[test]
    fn constant_delay_postpones_hearing_from_peers() {
        // With a 3-unit link delay and 1-unit rounds, round-1 broadcasts arrive
        // for the round-4 step — after everyone decided in round 3 having heard
        // nobody.
        let timing = EventTiming {
            delay: LinkDelay::Constant(3),
            ..EventTiming::synchronous()
        };
        let mut engine = event_engine(4, timing);
        assert!(engine.run_until_all_terminated(10).unwrap().is_completed());
        for (_, output) in engine.outputs() {
            assert_eq!(output, Some(0), "messages arrived only after deciding");
        }
    }

    #[test]
    fn gst_stalls_deliveries_until_stabilisation() {
        let timing = EventTiming {
            delay: LinkDelay::Gst { gst: 50, bound: 1 },
            ..EventTiming::synchronous()
        };
        let mut engine = event_engine(3, EventTiming::synchronous());
        engine.run_rounds(2).unwrap();
        assert_eq!(
            engine.in_flight(),
            0,
            "synchronous flights land immediately"
        );

        let mut engine = event_engine(3, timing);
        engine.run_rounds(2).unwrap();
        // Two broadcast rounds before deciding, 3 × 3 flights each.
        assert_eq!(
            engine.in_flight(),
            2 * 3 * 3,
            "pre-GST broadcasts stay queued"
        );
        // Long after GST the flights have landed.
        engine.run_rounds(60).unwrap();
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn skewed_timers_still_terminate_and_stay_deterministic() {
        let run = || {
            let timing =
                EventTiming::from_spec(&TimingSpec::synchronous().units(4).skew(3), 99, &[]);
            let mut engine = event_engine(6, timing);
            assert!(engine.run_until_all_terminated(50).unwrap().is_completed());
            (engine.round(), engine.metrics().clone(), engine.outputs())
        };
        let (rounds_a, metrics_a, outputs_a) = run();
        let (rounds_b, metrics_b, outputs_b) = run();
        assert_eq!(rounds_a, rounds_b);
        assert_eq!(metrics_a, metrics_b);
        assert_eq!(outputs_a.len(), outputs_b.len());
        for ((id_a, out_a), (id_b, out_b)) in outputs_a.iter().zip(&outputs_b) {
            assert_eq!(id_a, id_b);
            assert_eq!(out_a, out_b);
        }
    }

    #[test]
    fn reordering_is_seeded_and_reproducible() {
        let run = |seed: u64| {
            let timing = EventTiming {
                reorder_seed: Some(seed),
                ..EventTiming::synchronous()
            };
            let mut engine = event_engine(5, timing);
            assert!(engine.run_until_all_terminated(10).unwrap().is_completed());
            engine.metrics().clone()
        };
        assert_eq!(run(7), run(7), "same seed, same execution");
    }

    #[test]
    fn crash_restart_cycles_match_the_sync_engine_exactly() {
        use crate::dynamic::ChurnSchedule;
        use crate::wal::RestartPolicy;
        let crashed = NodeId::new(11);
        let schedule = || {
            ChurnSchedule::empty()
                .with(2, ChurnEvent::Crash(crashed))
                .with(
                    3,
                    ChurnEvent::Restart {
                        id: crashed,
                        policy: RestartPolicy::Clean,
                    },
                )
        };
        let mut sync = SyncEngine::new(counters(4), SilentAdversary, vec![]);
        sync.enable_recovery(Box::new(Counter::clone));
        sync.set_churn(schedule(), |id| Counter::new(id, 3));
        sync.run_rounds(3).unwrap();

        let mut event = event_engine(4, EventTiming::synchronous());
        event.enable_recovery(Box::new(Counter::clone));
        event.set_churn(schedule(), |id| Counter::new(id, 3));
        event.run_rounds(3).unwrap();

        assert_eq!(sync.recovery_restarts(), event.recovery_restarts());
        assert_eq!(event.recovery_restarts().len(), 1);
        assert_eq!(event.recovery_restarts()[0].send_conflicts, 0);
        assert_eq!(sync.metrics(), event.metrics());
        let sync_outputs = sync.outputs();
        let event_outputs = event.outputs();
        assert_eq!(sync_outputs.len(), event_outputs.len());
        for ((id_a, out_a), (id_b, out_b)) in sync_outputs.iter().zip(&event_outputs) {
            assert_eq!(id_a, id_b);
            assert_eq!(out_a, out_b);
        }
    }

    #[test]
    fn delay_spec_none_cross_drops_messages_for_good() {
        let ids: Vec<NodeId> = (0..4).map(|i| NodeId::new(10 + i)).collect();
        let timing = EventTiming::from_spec(
            &TimingSpec::synchronous().with_delay(DelaySpec::PartitionHalves { cross: None }),
            0,
            &ids,
        );
        let mut engine = event_engine(4, timing);
        assert!(engine.run_until_all_terminated(10).unwrap().is_completed());
        for (_, output) in engine.outputs() {
            assert_eq!(output, Some(2), "each half hears only its own two members");
        }
        assert_eq!(engine.in_flight(), 0, "dropped flights are never queued");
    }
}
