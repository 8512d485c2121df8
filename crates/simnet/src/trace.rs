//! Execution tracing.
//!
//! A [`TraceLog`] records every delivered message. It is disabled by default (tracing
//! every message of a large sweep would dominate memory), and enabled by the tests
//! and by the experiment runner when a detailed view of an execution is needed — for
//! instance to verify the *relay* property of reliable broadcast, which is a statement
//! about the rounds in which different correct nodes accept.
//!
//! Events hold their payload behind the same [`Shared`] handle the inboxes use, so
//! tracing a broadcast-heavy run costs one payload allocation per *message*, not per
//! delivery — and the handle tokens let consumers (see `uba_checker`'s trace
//! attribution) verify that a delivery fan-out really shared its payload instead of
//! silently re-materialising it.

use std::hash::Hash;

use serde::{Deserialize, Error, Serialize, Value};

use crate::id::NodeId;
use crate::shared::Shared;

/// A single delivered message.
#[derive(Debug)]
pub struct TraceEvent<P> {
    /// Round at the beginning of which the message was delivered.
    pub round: u64,
    /// True sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Whether the sender was controlled by the adversary.
    pub byzantine: bool,
    /// Payload as delivered (a handle shared with the recipient's inbox).
    pub payload: Shared<P>,
}

impl<P> TraceEvent<P> {
    /// The payload value (method shadowing the field, for ergonomic matching).
    pub fn payload(&self) -> &P {
        &self.payload
    }
}

impl<P> Clone for TraceEvent<P> {
    /// A handle clone — no payload copy, regardless of `P`.
    fn clone(&self) -> Self {
        TraceEvent {
            round: self.round,
            from: self.from,
            to: self.to,
            byzantine: self.byzantine,
            payload: self.payload.clone(),
        }
    }
}

impl<P: PartialEq> PartialEq for TraceEvent<P> {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.from == other.from
            && self.to == other.to
            && self.byzantine == other.byzantine
            && self.payload == other.payload
    }
}

impl<P: Eq> Eq for TraceEvent<P> {}

impl<P: Serialize> Serialize for TraceEvent<P> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("round".to_string(), self.round.to_value()),
            ("from".to_string(), self.from.to_value()),
            ("to".to_string(), self.to.to_value()),
            ("byzantine".to_string(), self.byzantine.to_value()),
            ("payload".to_string(), self.payload.to_value()),
        ])
    }
}

impl<P: Deserialize + Hash> Deserialize for TraceEvent<P> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(TraceEvent {
            round: field(value, "round")?,
            from: field(value, "from")?,
            to: field(value, "to")?,
            byzantine: field(value, "byzantine")?,
            payload: field(value, "payload")?,
        })
    }
}

/// A bounded log of delivered messages.
///
/// Events are recorded in delivery order. Within a round the synchronous
/// engine delivers **recipient-major** — all of one recipient's messages, then
/// the next recipient's, in the round's correct-node order — so a recipient's
/// events appear in exactly the order its inbox holds them, while the
/// interleaving *across* recipients is an engine detail (the event engine
/// records in dispatch order instead). Consumers should read the log per
/// recipient ([`TraceLog::to_node`]) or as a multiset, never rely on the
/// global order within a round. The capacity bound keeps the first events in
/// that order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog<P> {
    events: Vec<TraceEvent<P>>,
    capacity: usize,
    dropped: u64,
}

impl<P: Eq> Eq for TraceLog<P> {}

impl<P> TraceLog<P> {
    /// Creates a trace log that keeps at most `capacity` events; further events are
    /// counted but not stored.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event, respecting the capacity bound.
    pub fn record(&mut self, event: TraceEvent<P>) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in delivery order (recipient-major within a
    /// synchronous round; see the type docs).
    pub fn events(&self) -> &[TraceEvent<P>] {
        &self.events
    }

    /// Number of events that exceeded the capacity and were dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events delivered in a specific round.
    pub fn in_round(&self, round: u64) -> impl Iterator<Item = &TraceEvent<P>> {
        self.events.iter().filter(move |e| e.round == round)
    }

    /// Events delivered to a specific node.
    pub fn to_node(&self, to: NodeId) -> impl Iterator<Item = &TraceEvent<P>> {
        self.events.iter().filter(move |e| e.to == to)
    }
}

impl<P: Serialize> Serialize for TraceLog<P> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("events".to_string(), self.events.to_value()),
            ("capacity".to_string(), self.capacity.to_value()),
            ("dropped".to_string(), self.dropped.to_value()),
        ])
    }
}

impl<P: Deserialize + Hash> Deserialize for TraceLog<P> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(TraceLog {
            events: field(value, "events")?,
            capacity: field(value, "capacity")?,
            dropped: field(value, "dropped")?,
        })
    }
}

/// Deserialises one named field of an object [`Value`] (the impls above are
/// hand-written because the shared payload field needs a `P: Hash` bound the
/// derive does not know to add).
fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, Error> {
    T::from_value(value.field(name)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64, from: u64, to: u64, byz: bool) -> TraceEvent<u32> {
        TraceEvent {
            round,
            from: NodeId::new(from),
            to: NodeId::new(to),
            byzantine: byz,
            payload: Shared::new(0),
        }
    }

    #[test]
    fn records_up_to_capacity_and_counts_drops() {
        let mut log = TraceLog::with_capacity(2);
        log.record(ev(1, 1, 2, false));
        log.record(ev(1, 2, 1, false));
        log.record(ev(2, 1, 2, true));
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn filters_by_round_and_recipient() {
        let mut log = TraceLog::with_capacity(16);
        log.record(ev(1, 1, 2, false));
        log.record(ev(2, 2, 3, false));
        log.record(ev(2, 3, 2, true));
        assert_eq!(log.in_round(2).count(), 2);
        assert_eq!(log.to_node(NodeId::new(2)).count(), 2);
        assert_eq!(log.to_node(NodeId::new(9)).count(), 0);
    }

    #[test]
    fn serde_round_trips_events_and_logs() {
        let mut log = TraceLog::with_capacity(4);
        log.record(ev(1, 1, 2, false));
        log.record(ev(2, 3, 1, true));
        let back: TraceLog<u32> = Deserialize::from_value(&Serialize::to_value(&log)).unwrap();
        assert_eq!(back, log);
    }
}
