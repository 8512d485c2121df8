//! Broadcast-aware, shared-payload round traffic.
//!
//! The engine used to expand every broadcast into `n` cloned [`Directed`] messages
//! the moment a node produced it, which made each round cost O(messages × n) in
//! allocation alone. [`RoundTraffic`] keeps a round's correct traffic in its compact
//! form instead — one [`TrafficItem::Broadcast`] entry per broadcast, holding a
//! single [`Shared`] payload handle — and only materialises point-to-point messages
//! where someone actually consumes them:
//!
//! * the engine walks the items once at delivery time; a broadcast's payload is
//!   allocated (and digest-hashed) **exactly once**, in [`RoundTraffic::push_broadcast`],
//!   and every correct recipient's envelope is a reference-count bump of that one
//!   allocation (messages to Byzantine identities never exist as values; the
//!   adversary already saw everything through its view);
//! * a rushing adversary observes the full point-to-point expansion through the
//!   lazy [`RoundTraffic::iter`] / [`RoundTraffic::to`] iterators, which yield
//!   borrowed [`SentRef`]s without allocating, and forwards whatever it wants to
//!   replay by cloning the handle — not the payload.
//!
//! The expansion order is fixed — items in production order, broadcast recipients
//! in the engine's recipient order (correct nodes first, then Byzantine
//! identities) — so executions are bit-for-bit identical to the old eager engine.

use crate::id::NodeId;
use crate::message::Directed;
use crate::shared::Shared;

/// One message-production event of a round, in its compact form.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficItem<P> {
    /// A broadcast to every current member (including the sender); the payload is
    /// allocated once, not once per recipient.
    Broadcast {
        /// The broadcasting node.
        from: NodeId,
        /// The payload every member receives (one allocation, shared handles).
        payload: Shared<P>,
    },
    /// A point-to-point message.
    Unicast(Directed<P>),
}

impl<P: Eq> Eq for TrafficItem<P> {}

/// A borrowed view of one point-to-point message in the round's expansion.
///
/// This is what the lazy iterators yield: sender, recipient and a reference to the
/// shared payload handle. Adversaries that forward a message call
/// [`SentRef::to_directed`], which clones the handle — never the payload.
#[derive(Debug)]
pub struct SentRef<'a, P> {
    /// The sending correct node.
    pub from: NodeId,
    /// The recipient.
    pub to: NodeId,
    /// The payload handle (shared across all recipients of a broadcast).
    pub payload: &'a Shared<P>,
}

impl<'a, P> SentRef<'a, P> {
    /// The payload value, borrowed for the traffic's full lifetime (method
    /// shadowing the field, for ergonomic matching).
    pub fn payload(&self) -> &'a P {
        self.payload.get()
    }

    /// Materialises the message as an owned [`Directed`] value by forwarding the
    /// payload handle (a reference-count bump, not a payload clone).
    pub fn to_directed(&self) -> Directed<P> {
        Directed::new(self.from, self.to, self.payload.clone())
    }
}

impl<P> Clone for SentRef<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for SentRef<'_, P> {}

/// A round's correct traffic in compact, broadcast-aware form.
///
/// Built by the engine during the node-step phase; read by the adversary (lazily
/// expanded) and by the delivery phase (expanded only towards correct recipients).
/// The buffers are reused across rounds via [`RoundTraffic::begin_round`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundTraffic<P> {
    items: Vec<TrafficItem<P>>,
    recipients: Vec<NodeId>,
    broadcasts: usize,
}

impl<P> RoundTraffic<P> {
    /// An empty traffic set with no broadcast recipients (broadcasts added to it
    /// expand to nobody). Mostly useful for tests and adversary unit fixtures.
    pub fn new() -> Self {
        RoundTraffic {
            items: Vec::new(),
            recipients: Vec::new(),
            broadcasts: 0,
        }
    }

    /// Wraps a list of explicit point-to-point messages — the shape of the old
    /// eager engine — as a traffic set. Used by tests and adversary fixtures that
    /// want to describe traffic per recipient.
    pub fn from_directed(messages: Vec<Directed<P>>) -> Self {
        RoundTraffic {
            items: messages.into_iter().map(TrafficItem::Unicast).collect(),
            recipients: Vec::new(),
            broadcasts: 0,
        }
    }

    /// Clears the buffers and installs the round's broadcast recipient set (every
    /// current member, correct first, then Byzantine — the engine's delivery
    /// order). Reuses the allocations of the previous round.
    pub fn begin_round(&mut self, recipients: impl IntoIterator<Item = NodeId>) {
        self.items.clear();
        self.recipients.clear();
        self.recipients.extend(recipients);
        self.broadcasts = 0;
    }

    /// Records a broadcast: the one place its payload is allocated, regardless of
    /// how many recipients the expansion reaches. Accepts an owned payload or an
    /// existing handle.
    pub fn push_broadcast(&mut self, from: NodeId, payload: impl Into<Shared<P>>) {
        self.push(TrafficItem::Broadcast {
            from,
            payload: payload.into(),
        });
    }

    /// Records a unicast.
    pub fn push_unicast(&mut self, message: Directed<P>) {
        self.push(TrafficItem::Unicast(message));
    }

    /// Records a pre-built item.
    pub fn push(&mut self, item: TrafficItem<P>) {
        if matches!(item, TrafficItem::Broadcast { .. }) {
            self.broadcasts += 1;
        }
        self.items.push(item);
    }

    /// Appends pre-built items (used when merging per-thread buffers in node
    /// order).
    pub fn extend_items(&mut self, items: impl IntoIterator<Item = TrafficItem<P>>) {
        for item in items {
            self.push(item);
        }
    }

    /// The compact items, in production order.
    pub fn items(&self) -> &[TrafficItem<P>] {
        &self.items
    }

    /// The round's broadcast recipient set, in delivery order.
    pub fn recipients(&self) -> &[NodeId] {
        &self.recipients
    }

    /// Number of point-to-point messages in the expansion (what the old engine
    /// would have allocated): `broadcasts × |recipients| + unicasts`.
    pub fn point_to_point_count(&self) -> u64 {
        let unicasts = (self.items.len() - self.broadcasts) as u64;
        self.broadcasts as u64 * self.recipients.len() as u64 + unicasts
    }

    /// Whether the round produced no traffic at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Lazily iterates the full point-to-point expansion, in the exact order the
    /// old eager engine produced it: items in production order, broadcast
    /// recipients in recipient order. Nothing is allocated.
    pub fn iter(&self) -> TrafficIter<'_, P> {
        TrafficIter {
            items: self.items.iter(),
            recipients: &self.recipients,
            pending: None,
        }
    }

    /// Lazily iterates the messages addressed to one recipient. A broadcast
    /// contributes one message iff `to` is in the recipient set; the membership
    /// test is hoisted out of the loop, so a full pass costs O(items), not
    /// O(items × recipients).
    pub fn to<'a>(&'a self, to: NodeId) -> impl Iterator<Item = SentRef<'a, P>> + 'a {
        let broadcast_reaches = self.recipients.contains(&to);
        self.items.iter().filter_map(move |item| match item {
            TrafficItem::Broadcast { from, payload } if broadcast_reaches => Some(SentRef {
                from: *from,
                to,
                payload,
            }),
            TrafficItem::Unicast(message) if message.to == to => Some(SentRef {
                from: message.from,
                to,
                payload: &message.payload,
            }),
            _ => None,
        })
    }

    /// Number of payload allocations the compact form holds — one per item. The
    /// zero-copy invariant asserted by tests: this never depends on the recipient
    /// count.
    pub fn payload_allocations(&self) -> u64 {
        self.items.len() as u64
    }
}

impl<'a, P> IntoIterator for &'a RoundTraffic<P> {
    type Item = SentRef<'a, P>;
    type IntoIter = TrafficIter<'a, P>;

    fn into_iter(self) -> TrafficIter<'a, P> {
        self.iter()
    }
}

/// Lazy point-to-point expansion of a [`RoundTraffic`] (see [`RoundTraffic::iter`]).
#[derive(Clone, Debug)]
pub struct TrafficIter<'a, P> {
    items: std::slice::Iter<'a, TrafficItem<P>>,
    recipients: &'a [NodeId],
    /// A broadcast mid-expansion: sender, payload, index of the next recipient.
    pending: Option<(NodeId, &'a Shared<P>, usize)>,
}

impl<'a, P> Iterator for TrafficIter<'a, P> {
    type Item = SentRef<'a, P>;

    fn next(&mut self) -> Option<SentRef<'a, P>> {
        loop {
            if let Some((from, payload, index)) = self.pending {
                if let Some(&to) = self.recipients.get(index) {
                    self.pending = Some((from, payload, index + 1));
                    return Some(SentRef { from, to, payload });
                }
                self.pending = None;
            }
            match self.items.next()? {
                TrafficItem::Broadcast { from, payload } => {
                    self.pending = Some((*from, payload, 0));
                }
                TrafficItem::Unicast(message) => {
                    return Some(SentRef {
                        from: message.from,
                        to: message.to,
                        payload: &message.payload,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::Shared;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn sample() -> RoundTraffic<u32> {
        let mut traffic = RoundTraffic::new();
        traffic.begin_round([n(1), n(2), n(9)]);
        traffic.push_broadcast(n(1), 100);
        traffic.push_unicast(Directed::new(n(2), n(1), 200));
        traffic.push_broadcast(n(2), 300);
        traffic
    }

    #[test]
    fn expansion_matches_the_eager_order() {
        let traffic = sample();
        let expanded: Vec<Directed<u32>> = traffic.iter().map(|m| m.to_directed()).collect();
        assert_eq!(
            expanded,
            vec![
                Directed::new(n(1), n(1), 100),
                Directed::new(n(1), n(2), 100),
                Directed::new(n(1), n(9), 100),
                Directed::new(n(2), n(1), 200),
                Directed::new(n(2), n(1), 300),
                Directed::new(n(2), n(2), 300),
                Directed::new(n(2), n(9), 300),
            ]
        );
        assert_eq!(traffic.point_to_point_count(), 7);
        assert_eq!(
            traffic.payload_allocations(),
            3,
            "one per item, not per copy"
        );
    }

    #[test]
    fn expansion_shares_one_payload_allocation_per_broadcast() {
        let traffic = sample();
        let tokens: Vec<usize> = traffic
            .iter()
            .filter(|m| m.from == n(1))
            .map(|m| m.payload.token())
            .collect();
        assert_eq!(tokens.len(), 3);
        assert!(
            tokens.windows(2).all(|w| w[0] == w[1]),
            "all recipients see the same allocation"
        );
        let forwarded = traffic.iter().next().unwrap().to_directed();
        assert_eq!(
            forwarded.payload.token(),
            tokens[0],
            "to_directed forwards the handle"
        );
    }

    #[test]
    fn per_recipient_iteration_filters_and_expands() {
        let traffic = sample();
        let to_1: Vec<u32> = traffic.to(n(1)).map(|m| *m.payload()).collect();
        assert_eq!(to_1, vec![100, 200, 300]);
        let to_9: Vec<u32> = traffic.to(n(9)).map(|m| *m.payload()).collect();
        assert_eq!(to_9, vec![100, 300]);
        // Not a recipient: broadcasts do not reach it, unicasts still would.
        let to_5: Vec<u32> = traffic.to(n(5)).map(|m| *m.payload()).collect();
        assert!(to_5.is_empty());
    }

    #[test]
    fn buffers_are_reusable_across_rounds() {
        let mut traffic = sample();
        traffic.begin_round([n(4)]);
        assert!(traffic.is_empty());
        assert_eq!(traffic.point_to_point_count(), 0);
        traffic.push_broadcast(n(4), 7);
        assert_eq!(traffic.point_to_point_count(), 1);
        assert_eq!(traffic.recipients(), &[n(4)]);
    }

    #[test]
    fn from_directed_wraps_explicit_messages() {
        let traffic = RoundTraffic::from_directed(vec![Directed::new(n(1), n(2), 5u32)]);
        assert_eq!(traffic.point_to_point_count(), 1);
        let all: Vec<Directed<u32>> = traffic.iter().map(|m| m.to_directed()).collect();
        assert_eq!(all, vec![Directed::new(n(1), n(2), 5)]);
        assert_eq!(traffic.to(n(2)).count(), 1);
        assert_eq!(traffic.to(n(1)).count(), 0);
    }

    #[test]
    fn push_broadcast_accepts_existing_handles() {
        let handle = Shared::new(11u32);
        let mut traffic = RoundTraffic::new();
        traffic.begin_round([n(1), n(2)]);
        traffic.push_broadcast(n(1), handle.clone());
        let delivered = traffic.to(n(2)).next().unwrap();
        assert!(Shared::ptr_eq(delivered.payload, &handle));
    }
}
