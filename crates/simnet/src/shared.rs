//! Shared, immutable message payloads.
//!
//! The eager engine cloned every payload once per recipient, so one broadcast at
//! `n = 256` cost 256 payload clones (and 256 dedup hashes) before a single node
//! stepped. [`Shared<P>`] is the zero-copy alternative threaded through the whole
//! message plane: a thin reference-counted handle over an immutable payload that
//!
//! * allocates the payload **exactly once** — [`Shared::new`] is the only place a
//!   payload is ever materialised, and it bumps a process-wide counter
//!   ([`allocations`], which also sees the engines' worker threads) and a
//!   per-thread one ([`thread_allocations`], which unit tests read so that
//!   sibling test threads cannot disturb their counts);
//! * carries a **cached digest** — the same 64-bit value the engine's dedup set
//!   used to recompute per delivery is now computed once per allocation
//!   ([`Shared::digest`]), so delivering a broadcast to `k` recipients hashes the
//!   payload once, not `k` times;
//! * compares and hashes **by value**, so inboxes, dedup fallbacks and recorded
//!   traces behave exactly as if they stored owned payloads;
//! * is **copy-on-write**: forwarding a handle ([`Clone`]) is a reference-count
//!   bump; only a mutation through [`Shared::modify`] pays a payload clone, and
//!   only when the handle is actually shared.
//!
//! The handle is an [`Arc`] rather than an `Rc` because the engines step large
//! systems in parallel by default, moving inboxes (and the traffic produced by
//! worker threads) across `std::thread::scope` threads; the atomic
//! reference-count bump is still orders of magnitude cheaper than the deep
//! clones it replaces.

use std::cell::Cell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Error, Serialize, Value};

/// Process-wide count of payload allocations (see [`Shared::allocations`]).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of payload deallocations (see [`live_allocations`]).
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's count of payload allocations (see [`thread_allocations`]).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The digest the dedup set keys on: identical to hashing the payload through
/// `DefaultHasher` directly, so executions are bit-for-bit identical to the
/// engine that hashed per delivery.
fn digest_of<P: Hash>(value: &P) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The digest a payload *would* carry if wrapped into a [`Shared`] handle —
/// the same `DefaultHasher` stream [`Shared::new`] caches. The WAL replay path
/// uses this to audit re-produced messages against logged `Sent` digests
/// without allocating a handle per replayed message.
pub fn payload_digest<P: Hash>(value: &P) -> u64 {
    digest_of(value)
}

struct SharedInner<P> {
    digest: u64,
    value: P,
}

impl<P> Drop for SharedInner<P> {
    /// Counts the drop of the allocation (the inner value drops when the last
    /// handle goes away), so [`live_allocations`] can report a gauge.
    fn drop(&mut self) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Borrowing-projection support: a source allocation that can lend out a `&P`
/// view of one of its fields. Implemented for tuple allocations, so a handle
/// over `(tag, inner)` can expose a `Shared<Inner>` without cloning `inner` —
/// the stream plane's demux ([`Shared::project_second`]). The projected handle
/// keeps the whole source allocation alive and borrows the field out of it.
///
/// The `Send + Sync` supertraits keep `Shared<P>`'s auto traits intact: a
/// projected handle crosses the same scoped-thread boundaries the owned form
/// does (the engine's parallel step path).
trait ProjectTo<P>: Send + Sync {
    fn projected(&self) -> &P;
}

impl<T, P> ProjectTo<P> for SharedInner<(T, P)>
where
    T: Send + Sync,
    P: Send + Sync,
{
    fn projected(&self) -> &P {
        &self.value.1
    }
}

/// The general projection adapter behind [`Shared::project`]: a source
/// allocation plus a capture-free view function selecting a component of it
/// (e.g. the payload inside an enum variant). One small adapter allocation,
/// never a payload clone — and not a *counted* payload allocation.
struct FieldProjection<P, Q> {
    source: Arc<SharedInner<P>>,
    view: fn(&P) -> &Q,
}

impl<P, Q> ProjectTo<Q> for FieldProjection<P, Q>
where
    P: Send + Sync,
    Q: Send + Sync,
{
    fn projected(&self) -> &Q {
        (self.view)(&self.source.value)
    }
}

/// The two shapes a handle can take: the allocating form, and a borrowing view
/// into another handle's allocation. Projected handles bump neither
/// [`allocations`] nor [`deallocations`] — they are views, not payloads.
enum Repr<P> {
    Owned(Arc<SharedInner<P>>),
    Projected {
        source: Arc<dyn ProjectTo<P>>,
        digest: u64,
    },
}

/// A reference-counted, immutable payload handle (see module docs).
///
/// `Shared<P>` derefs to `P`, compares/hashes by value, and passes through serde
/// transparently, so it can replace `P` in any receive-side position without
/// changing observable behaviour — only the allocation profile.
pub struct Shared<P>(Repr<P>);

impl<P: Hash> Shared<P> {
    /// Wraps a payload, computing its dedup digest once. This is the **only**
    /// constructor — every call is one payload allocation, counted in
    /// [`Shared::allocations`].
    pub fn new(value: P) -> Self {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        THREAD_ALLOCATIONS.with(|count| count.set(count.get() + 1));
        let digest = digest_of(&value);
        Shared(Repr::Owned(Arc::new(SharedInner { digest, value })))
    }
}

impl<T, P> Shared<(T, P)>
where
    T: Send + Sync + 'static,
    P: Hash + Clone + Send + Sync + 'static,
{
    /// A borrowing view of the tuple's second field: `Shared<(T, P)>` →
    /// `Shared<P>` **without cloning `P` and without a payload allocation**.
    /// The view keeps the tuple allocation alive and pays exactly one hash (the
    /// projected digest — the same `DefaultHasher` stream [`Shared::new`] would
    /// cache for the field), so a demux that used to re-wrap every matching
    /// payload now hands out views whose digests, values and comparisons are
    /// indistinguishable from the re-wrapped originals.
    pub fn project_second(&self) -> Shared<P> {
        match &self.0 {
            Repr::Owned(inner) => Shared(Repr::Projected {
                digest: digest_of(&inner.value.1),
                source: Arc::clone(inner) as Arc<dyn ProjectTo<P>>,
            }),
            // Projecting a projection (a doubly-nested mux) has no single
            // source allocation to borrow from: materialise the field instead.
            Repr::Projected { source, .. } => Shared::new(source.projected().1.clone()),
        }
    }
}

impl<P> Shared<P>
where
    P: Send + Sync + 'static,
{
    /// A borrowing view of any component `view` can reach — the general form
    /// of [`Shared::project_second`], for shapes a tuple projection cannot
    /// express (the payload inside an enum variant, a struct field). `view`
    /// must be a plain capture-free `fn` so the view stays `Send + Sync`, and
    /// it must be total for this handle's value: the demux that calls it has
    /// already matched the variant it projects out of.
    ///
    /// Costs one digest hash and one small (uncounted) adapter allocation —
    /// never a clone of `Q`. On an already-projected handle it falls back to
    /// materialising the component.
    pub fn project<Q>(&self, view: fn(&P) -> &Q) -> Shared<Q>
    where
        Q: Hash + Clone + Send + Sync + 'static,
    {
        match &self.0 {
            Repr::Owned(inner) => Shared(Repr::Projected {
                digest: digest_of(view(&inner.value)),
                source: Arc::new(FieldProjection {
                    source: Arc::clone(inner),
                    view,
                }),
            }),
            Repr::Projected { source, .. } => Shared::new(view(source.projected()).clone()),
        }
    }
}

impl<P> Shared<P> {
    /// The wrapped payload.
    pub fn get(&self) -> &P {
        match &self.0 {
            Repr::Owned(inner) => &inner.value,
            Repr::Projected { source, .. } => source.projected(),
        }
    }

    /// The payload's cached 64-bit digest (computed once, at allocation — or at
    /// projection, for a borrowed view).
    pub fn digest(&self) -> u64 {
        match &self.0 {
            Repr::Owned(inner) => inner.digest,
            Repr::Projected { digest, .. } => *digest,
        }
    }

    /// Whether two handles point at the *same* payload in memory — the
    /// zero-copy witness: a forwarded or fan-out-delivered payload keeps its
    /// pointer, and a projected view aliases the field it was projected from.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        std::ptr::eq(a.get(), b.get())
    }

    /// The payload's address, as an opaque token. Distinct live handles with
    /// equal tokens share one payload in memory; tests use this to prove a
    /// delivery fan-out did not silently re-materialise payloads.
    pub fn token(&self) -> usize {
        self.get() as *const P as usize
    }
}

/// Total payloads allocated by this process so far (monotone counter, bumped by
/// every [`Shared::new`]). Subtract two readings to measure the allocations of a
/// code region — the allocation-counting tests assert a broadcast round costs
/// O(#broadcasts), not O(n · #broadcasts).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Payloads allocated by the calling thread so far (monotone counter, bumped
/// with [`allocations`] by every [`Shared::new`] on this thread). A unit test
/// that allocates only on its own thread measures its region with this
/// instead of [`allocations`], which every concurrently running test thread
/// also bumps. Work that steps nodes on engine worker threads needs the
/// process-wide counter.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Total payload allocations already dropped by this process (monotone
/// counter, bumped when the last handle of an allocation goes away).
pub fn deallocations() -> u64 {
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// Payload allocations currently alive: [`allocations`] minus
/// [`deallocations`]. This is the RSS proxy the soak driver samples per round
/// to detect monotone growth — a leak shows up here long before wall-clock
/// memory measurements would notice it.
pub fn live_allocations() -> u64 {
    allocations().saturating_sub(deallocations())
}

impl<P: Hash + Clone> Shared<P> {
    /// Copy-on-write mutation: applies `mutate` to the payload, cloning it first
    /// **only if** the handle is shared, and recomputes the cached digest. This
    /// is the in-place tamper primitive — the
    /// [`TamperAdversary`](crate::faults::TamperAdversary) combinator edits
    /// relayed traffic through it, so an edited forward pays exactly one clone
    /// while honest forwarding stays a reference-count bump. (The scripted
    /// attacks that fabricate whole payloads go through [`Shared::new`]
    /// instead: one allocation per *distinct* fabrication.)
    pub fn modify(&mut self, mutate: impl FnOnce(&mut P)) {
        match &mut self.0 {
            Repr::Owned(arc) => match Arc::get_mut(arc) {
                Some(inner) => {
                    mutate(&mut inner.value);
                    inner.digest = digest_of(&inner.value);
                }
                None => {
                    let mut value = arc.value.clone();
                    mutate(&mut value);
                    *self = Shared::new(value);
                }
            },
            // A projected view never owns its allocation (the source tuple
            // does): a write materialises the field, exactly like the shared
            // copy-on-write case.
            Repr::Projected { source, .. } => {
                let mut value = source.projected().clone();
                mutate(&mut value);
                *self = Shared::new(value);
            }
        }
    }
}

impl<P> Clone for Shared<P> {
    /// A reference-count bump — never a payload clone.
    fn clone(&self) -> Self {
        Shared(match &self.0 {
            Repr::Owned(inner) => Repr::Owned(Arc::clone(inner)),
            Repr::Projected { source, digest } => Repr::Projected {
                source: Arc::clone(source),
                digest: *digest,
            },
        })
    }
}

impl<P> std::ops::Deref for Shared<P> {
    type Target = P;

    fn deref(&self) -> &P {
        self.get()
    }
}

impl<P> AsRef<P> for Shared<P> {
    fn as_ref(&self) -> &P {
        self.get()
    }
}

impl<P: Hash> From<P> for Shared<P> {
    fn from(value: P) -> Self {
        Shared::new(value)
    }
}

impl<P: fmt::Debug> fmt::Debug for Shared<P> {
    /// Transparent: renders exactly like the wrapped payload, so debug output
    /// recorded in reports is unchanged.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl<P: PartialEq> PartialEq for Shared<P> {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl<P: Eq> Eq for Shared<P> {}

/// Compare a handle directly against a payload value (`envelope.payload == X`).
impl<P: PartialEq> PartialEq<P> for Shared<P> {
    fn eq(&self, other: &P) -> bool {
        *self.get() == *other
    }
}

impl<P: Hash> Hash for Shared<P> {
    /// By value, consistent with `Eq` (the cached digest is an engine-internal
    /// fast path, not the `Hash` impl).
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.get().hash(state);
    }
}

impl<P: Serialize> Serialize for Shared<P> {
    fn to_value(&self) -> Value {
        self.get().to_value()
    }
}

impl<P: Deserialize + Hash> Deserialize for Shared<P> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        P::from_value(value).map(Shared::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let before = thread_allocations();
        let a = Shared::new(vec![1u32, 2, 3]);
        let b = a.clone();
        assert_eq!(
            thread_allocations() - before,
            1,
            "one allocation, two handles"
        );
        assert!(Shared::ptr_eq(&a, &b));
        assert_eq!(a.token(), b.token());
        assert_eq!(a, b);
        assert_eq!(*a, vec![1, 2, 3]);
    }

    #[test]
    fn digest_matches_default_hasher() {
        let payload = ("hello", 42u64);
        let shared = Shared::new(payload);
        assert_eq!(shared.digest(), digest_of(&payload));
        // Hash-by-value: a map keyed on Shared behaves like one keyed on P.
        let direct = digest_of(&payload);
        let via_handle = digest_of(&shared);
        assert_eq!(direct, via_handle);
    }

    #[test]
    fn equality_is_by_value_across_allocations() {
        let a = Shared::new(7u64);
        let b = Shared::new(7u64);
        assert_eq!(a, b);
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(a, 7u64, "direct payload comparison");
        assert_ne!(a, Shared::new(8u64));
    }

    #[test]
    fn modify_is_copy_on_write() {
        let before = thread_allocations();
        let mut unique = Shared::new(10u64);
        unique.modify(|v| *v += 1);
        assert_eq!(*unique, 11);
        assert_eq!(
            thread_allocations() - before,
            1,
            "a unique handle mutates in place"
        );
        assert_eq!(
            unique.digest(),
            digest_of(&11u64),
            "digest tracks the value"
        );

        let shared = unique.clone();
        let mut tampered = shared.clone();
        tampered.modify(|v| *v = 99);
        assert_eq!(*shared, 11, "the original is untouched");
        assert_eq!(*tampered, 99);
        assert!(!Shared::ptr_eq(&shared, &tampered));
        assert_eq!(
            thread_allocations() - before,
            2,
            "only the tamper paid a clone"
        );
    }

    #[test]
    fn serde_passes_through_transparently() {
        let shared = Shared::new(vec![1u64, 2, 3]);
        let value = Serialize::to_value(&shared);
        assert_eq!(value, Serialize::to_value(&vec![1u64, 2, 3]));
        let back: Shared<Vec<u64>> = Deserialize::from_value(&value).unwrap();
        assert_eq!(back, shared);
        assert_eq!(back.digest(), shared.digest());
    }

    #[test]
    fn debug_renders_the_payload_only() {
        assert_eq!(format!("{:?}", Shared::new(5u8)), "5");
    }

    #[test]
    fn payload_digest_matches_the_cached_digest() {
        let payload = vec![1u64, 2, 3];
        assert_eq!(payload_digest(&payload), Shared::new(payload).digest());
    }

    #[test]
    fn projection_borrows_without_allocating() {
        let before = thread_allocations();
        let tagged: Shared<(u64, Vec<u32>)> = Shared::new((7, vec![1, 2, 3]));
        let view = tagged.project_second();
        assert_eq!(
            thread_allocations() - before,
            1,
            "the view is not an allocation"
        );
        // The view aliases the field inside the tuple allocation…
        assert_eq!(view.token(), &tagged.get().1 as *const Vec<u32> as usize);
        assert_eq!(*view, vec![1, 2, 3]);
        // …and its digest is exactly what re-wrapping the field would cache.
        assert_eq!(view.digest(), payload_digest(&vec![1u32, 2, 3]));
        assert_eq!(view.digest(), Shared::new(vec![1u32, 2, 3]).digest());
        // Two views of one source alias each other; a re-wrap does not.
        let sibling = tagged.project_second();
        assert!(Shared::ptr_eq(&view, &sibling));
        assert_eq!(view.token(), sibling.token());
        assert!(!Shared::ptr_eq(&view, &Shared::new(vec![1u32, 2, 3])));
    }

    #[test]
    fn projection_keeps_the_source_allocation_alive() {
        let dropped_before = deallocations();
        let view = {
            let tagged: Shared<(u64, u64)> = Shared::new((1, 42));
            tagged.project_second()
        };
        assert_eq!(*view, 42, "the view outlives the original handle");
        drop(view);
        assert!(
            deallocations() > dropped_before,
            "dropping the last view frees the source allocation"
        );
    }

    #[test]
    fn modifying_a_projection_materialises_a_copy() {
        let tagged: Shared<(u64, u64)> = Shared::new((1, 10));
        let mut view = tagged.project_second();
        view.modify(|v| *v += 5);
        assert_eq!(*view, 15);
        assert_eq!(tagged.get().1, 10, "the source tuple is untouched");
        assert_eq!(view.digest(), payload_digest(&15u64));
    }

    #[test]
    fn general_projection_reaches_into_enum_variants() {
        #[derive(Clone, Debug, PartialEq, Hash)]
        enum Wire {
            Tagged(u64, Vec<u32>),
        }
        let message = Shared::new(Wire::Tagged(3, vec![9, 9, 9]));
        let before = thread_allocations();
        let view: Shared<Vec<u32>> = message.project(|m| {
            let Wire::Tagged(_, inner) = m;
            inner
        });
        assert_eq!(
            thread_allocations() - before,
            0,
            "a view is not an allocation"
        );
        assert_eq!(*view, vec![9, 9, 9]);
        let Wire::Tagged(_, inner) = message.get();
        assert!(
            std::ptr::eq(view.get(), inner),
            "the view borrows the field"
        );
        assert_eq!(view.digest(), payload_digest(&vec![9u32, 9, 9]));
        assert_eq!(view.digest(), Shared::new(vec![9u32, 9, 9]).digest());
    }

    #[test]
    fn projecting_a_projection_falls_back_to_a_copy() {
        let nested: Shared<(u8, (u64, u64))> = Shared::new((0, (1, 99)));
        let inner = nested.project_second();
        let twice = inner.project_second();
        assert_eq!(*twice, 99);
        assert_eq!(twice.digest(), payload_digest(&99u64));
    }

    #[test]
    fn dropping_the_last_handle_counts_a_deallocation() {
        // Other tests allocate and drop concurrently, so only lower bounds are
        // assertable against the process-global counters.
        let dropped_before = deallocations();
        let handles: Vec<Shared<u64>> = (0..10).map(Shared::new).collect();
        let clones = handles.clone();
        drop(handles);
        drop(clones);
        assert!(
            deallocations() - dropped_before >= 10,
            "the last handles freed the allocations"
        );
        assert!(allocations() >= deallocations() || live_allocations() == 0);
    }

    /// Seeded property sweeps (the workspace's stand-in for proptest): over
    /// hundreds of arbitrary payloads, a `Shared<P>` must be observably
    /// indistinguishable from the `P` it wraps.
    mod properties {
        use super::*;
        use crate::rng::seeded_rng;
        use rand::RngCore;

        /// An arbitrary structured payload: length, content and value range all
        /// drawn from the stream.
        fn arbitrary_payload(rng: &mut impl RngCore) -> Vec<u64> {
            let len = (rng.next_u64() % 9) as usize;
            (0..len).map(|_| rng.next_u64() % 1000).collect()
        }

        #[test]
        fn eq_and_hash_agree_with_the_underlying_value() {
            let mut rng = seeded_rng(0xEC0);
            for _ in 0..256 {
                let payload = arbitrary_payload(&mut rng);
                let a = Shared::new(payload.clone());
                let b = Shared::new(payload.clone());
                // Value semantics: equal to the payload, equal across distinct
                // allocations of it, and `Hash` consistent with `Eq` (same
                // `DefaultHasher` stream as hashing the payload directly).
                assert_eq!(a, payload);
                assert_eq!(a, b);
                assert!(!Shared::ptr_eq(&a, &b));
                assert_eq!(digest_of(&a), digest_of(&payload));
                assert_eq!(digest_of(&a), digest_of(&b));
                // A perturbed payload disagrees on eq (and, for a digest this
                // wide, on hash).
                let mut other = payload.clone();
                other.push(31_337);
                assert_ne!(a, Shared::new(other.clone()));
                assert_ne!(digest_of(&a), digest_of(&other));
            }
        }

        #[test]
        fn digest_is_stable_across_clones() {
            let mut rng = seeded_rng(0xD16);
            for _ in 0..256 {
                let payload = arbitrary_payload(&mut rng);
                let handle = Shared::new(payload.clone());
                let expected = digest_of(&payload);
                assert_eq!(handle.digest(), expected, "computed once, at allocation");
                let fanned: Vec<Shared<Vec<u64>>> = (0..4).map(|_| handle.clone()).collect();
                for clone in &fanned {
                    assert_eq!(clone.digest(), expected, "clones share the cache");
                    assert!(
                        Shared::ptr_eq(clone, &handle),
                        "…because they share the allocation"
                    );
                }
                drop(handle);
                assert_eq!(fanned[0].digest(), expected, "survives the original handle");
            }
        }

        #[test]
        fn serde_round_trips() {
            let mut rng = seeded_rng(0x5ED);
            for _ in 0..256 {
                let payload = arbitrary_payload(&mut rng);
                let handle = Shared::new(payload.clone());
                let value = Serialize::to_value(&handle);
                assert_eq!(
                    value,
                    Serialize::to_value(&payload),
                    "the wire form is the payload's, not a wrapper's"
                );
                let back: Shared<Vec<u64>> = Deserialize::from_value(&value).unwrap();
                assert_eq!(back, handle);
                assert_eq!(
                    back.digest(),
                    handle.digest(),
                    "the digest is recomputed identically"
                );
            }
        }

        #[test]
        fn modify_on_a_uniquely_owned_handle_does_not_allocate() {
            let mut rng = seeded_rng(0xA110C);
            for _ in 0..256 {
                let payload = arbitrary_payload(&mut rng);
                let mut handle = Shared::new(payload.clone());
                // The allocation's address is the witness: an in-place mutation
                // keeps it, a copy-on-write (or any re-materialisation) changes
                // it. Unlike the process-wide counter, the token cannot be
                // perturbed by concurrently running tests.
                let token = handle.token();
                handle.modify(|v| v.push(7));
                assert_eq!(handle.token(), token, "uniquely owned ⇒ mutated in place");
                let mut expected = payload.clone();
                expected.push(7);
                assert_eq!(handle, expected);
                assert_eq!(
                    handle.digest(),
                    digest_of(&expected),
                    "digest tracks the mutation"
                );
                // The moment the handle is shared, the same call pays exactly
                // one clone instead (and leaves the sibling untouched).
                let sibling = handle.clone();
                handle.modify(|v| v.push(8));
                assert_ne!(handle.token(), sibling.token(), "shared ⇒ copy-on-write");
                assert_eq!(sibling, expected, "the sibling keeps the old value");
            }
        }
    }
}
