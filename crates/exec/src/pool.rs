//! Reusable buffer pool for pipeline payloads.
//!
//! A sustained stream allocates one payload per data set — a matrix, an
//! image, a sample vector — uses it for a few milliseconds, and drops it
//! at the sink. At high rates that alloc/free churn (and the page faults
//! behind it) becomes a measurable fraction of the per-dataset cost. The
//! [`BufferPool`] recycles payloads instead: the source *takes* a
//! [`Lease`] (recycled when available, freshly built otherwise), the
//! lease travels through the pipeline as an ordinary type-erased
//! [`Data`](crate::stage::Data) box, and when the last consumer drops it
//! the payload returns to the pool shelf for the next data set.
//!
//! Leases deref to the payload, so stage functions mutate in place
//! (`|mut m: Lease<Matrix>, t| { fft_rows(&mut m, t); m }`). The pool is
//! type-indexed: one shelf per payload type, each bounded so a burst
//! cannot pin unbounded memory. Takes and returns are counted and
//! published to the observability registry under the
//! [`pipemap_obs::names`] `exec.pool.*` names.
//!
//! # Batching scopes
//!
//! Outside a scope each take and each drop locks the pool's shelves once.
//! On a stream that is two locks per data set, one on the source's core
//! and one on the sink's, and the shelves' cache lines cross between the
//! two with each. A crate-private `Scope` batches both ends of one
//! thread's traffic:
//!
//! * a lease dropped on a thread with an open scope is *held* in a
//!   thread-local list, without a lock;
//! * the first take that finds the scope's read-ahead list empty moves up
//!   to `READ_AHEAD` (32) payloads off the shelf under one lock, and the
//!   takes after it pop from that list;
//! * when the scope closes or cycles, held leases and unused read-ahead
//!   payloads go back to their shelves under one lock per pool, and the
//!   shelf cap and the `returns`/`discarded` counters apply then.
//!
//! The executor's sink opens a scope per received message, and
//! [`run_load`](crate::driver::run_load)'s source cycles one every batch.
//! So a scope strands at most one message's payloads. Worker threads open
//! none: a stage that drops a large payload frees or shelves it at once,
//! instead of holding a whole message's worth until the message ends.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::iter;
use std::marker::PhantomData;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// Default bound on recycled payloads kept per type.
pub const DEFAULT_SHELF_CAP: usize = 64;

/// Payloads a scope's take moves off a shelf under one lock.
const READ_AHEAD: usize = 32;

type Payload = Box<dyn Any + Send>;

/// One shelf per payload type, and how often their lock was taken
/// (counted under it, so the count costs no atomic of its own).
#[derive(Default)]
struct ShelfMap {
    by_type: HashMap<TypeId, Vec<Payload>>,
    locks: u64,
}

struct Shelves {
    shelves: Mutex<ShelfMap>,
    shelf_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discarded: AtomicU64,
}

impl Shelves {
    fn lock(&self) -> MutexGuard<'_, ShelfMap> {
        // Nothing runs user code under this lock, so a poisoned one still
        // holds whole shelves.
        let mut map = self.shelves.lock().unwrap_or_else(PoisonError::into_inner);
        map.locks += 1;
        map
    }

    /// Shelve `items` under one lock, each while its shelf is below the
    /// cap; the rest move to `freed`, which the caller drops after the
    /// lock is released (a payload's own `Drop` may drop a lease of this
    /// pool). Returns `(shelved, freed)` counts.
    fn shelve(
        &self,
        items: impl Iterator<Item = (TypeId, Payload)>,
        freed: &mut Vec<Payload>,
    ) -> (u64, u64) {
        let (mut kept, mut over) = (0, 0);
        let mut items = items.peekable();
        let mut shelves = self.lock();
        while let Some((ty, first)) = items.next() {
            let shelf = shelves.by_type.entry(ty).or_default();
            let same_type = iter::from_fn(|| items.next_if(|(t, _)| *t == ty).map(|(_, b)| b));
            for boxed in iter::once(first).chain(same_type) {
                if shelf.len() < self.shelf_cap {
                    shelf.push(boxed);
                    kept += 1;
                } else {
                    freed.push(boxed);
                    over += 1;
                }
            }
        }
        (kept, over)
    }
}

/// A typed, bounded, thread-safe recycling pool. Cloning is cheap and
/// shares the shelves.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Shelves>,
}

/// Counters describing a pool's effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a shelf (no allocation).
    pub hits: u64,
    /// Takes that had to build a fresh payload.
    pub misses: u64,
    /// Leases returned to a shelf on drop.
    pub returns: u64,
    /// Payloads freed because their shelf was full: dropped leases, and
    /// read-ahead payloads a scope handed back unused.
    pub discarded: u64,
}

impl PoolStats {
    /// Fraction of takes served from a shelf, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new(DEFAULT_SHELF_CAP)
    }
}

impl BufferPool {
    /// A pool keeping at most `shelf_cap` recycled payloads per type.
    pub fn new(shelf_cap: usize) -> Self {
        Self {
            inner: Arc::new(Shelves {
                shelves: Mutex::new(ShelfMap::default()),
                shelf_cap,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                returns: AtomicU64::new(0),
                discarded: AtomicU64::new(0),
            }),
        }
    }

    /// Take a payload of type `T`: a recycled one when the shelf (or the
    /// thread's open scope) has any (the caller must overwrite its
    /// contents — recycled payloads keep their previous values), else a
    /// fresh `init()`.
    pub fn take<T: Send + 'static>(&self, init: impl FnOnce() -> T) -> Lease<T> {
        let ty = TypeId::of::<T>();
        let recycled = take_ahead(&self.inner, ty)
            .unwrap_or_else(|| self.inner.lock().by_type.get_mut(&ty).and_then(Vec::pop));
        let value = match recycled {
            Some(boxed) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                boxed.downcast::<T>().expect("shelf is type-indexed")
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Box::new(init())
            }
        };
        Lease {
            value: Some(value),
            pool: Arc::downgrade(&self.inner),
        }
    }

    /// Number of payloads currently shelved (all types). Payloads held or
    /// read ahead by an open scope are not on a shelf.
    pub fn shelved(&self) -> usize {
        self.inner.lock().by_type.values().map(Vec::len).sum()
    }

    /// Times the shelves' lock was taken, by takes, returns, scope
    /// settles and [`shelved`](Self::shelved) alike.
    pub fn shelf_locks(&self) -> u64 {
        let map = self.inner.shelves.lock();
        map.unwrap_or_else(PoisonError::into_inner).locks
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            returns: self.inner.returns.load(Ordering::Relaxed),
            discarded: self.inner.discarded.load(Ordering::Relaxed),
        }
    }

    /// Publish the counters to the global observability registry as the
    /// `exec.pool.*` gauges (no-op when no registry is installed).
    pub fn publish(&self) {
        let rec = pipemap_obs::global();
        let s = self.stats();
        rec.gauge_set(pipemap_obs::names::EXEC_POOL_HITS, s.hits as f64);
        rec.gauge_set(pipemap_obs::names::EXEC_POOL_MISSES, s.misses as f64);
        rec.gauge_set(pipemap_obs::names::EXEC_POOL_SHELVED, self.shelved() as f64);
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "BufferPool(shelved {}, hits {}, misses {})",
            self.shelved(),
            s.hits,
            s.misses
        )
    }
}

/// One thread's batching scope (see the module docs).
struct ScopeState {
    open: bool,
    /// Leases dropped inside the scope, not yet back on their shelves.
    held: Vec<(Weak<Shelves>, TypeId, Payload)>,
    /// Payloads read ahead for later takes, all from `ahead_from`.
    ahead: Vec<Payload>,
    ahead_from: Option<(Weak<Shelves>, TypeId)>,
}

thread_local! {
    static SCOPE: RefCell<ScopeState> = const {
        RefCell::new(ScopeState {
            open: false,
            held: Vec::new(),
            ahead: Vec::new(),
            ahead_from: None,
        })
    };
}

/// Batches this thread's pool traffic while it lives: dropped leases are
/// held and takes read ahead, and both settle under one lock per pool
/// when the guard drops or [`cycle`](Self::cycle)s. A guard opened inside
/// another is a no-op.
pub(crate) struct Scope {
    outer: bool,
    /// The state is thread-local, so the guard must stay on its thread.
    _thread: PhantomData<*const ()>,
}

impl Scope {
    /// Open a scope on this thread (a no-op guard if one is open).
    pub(crate) fn open() -> Self {
        let outer = SCOPE
            .try_with(|cell| !mem::replace(&mut cell.borrow_mut().open, true))
            .unwrap_or(false);
        Self {
            outer,
            _thread: PhantomData,
        }
    }

    /// Settle what the scope holds now, and keep it open.
    pub(crate) fn cycle(&self) {
        if self.outer {
            settle();
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.outer {
            return;
        }
        // Close first: a payload freed while settling may drop a lease,
        // which then takes the unbatched path instead of the list being
        // settled. A panic in such a `Drop` frees what is left.
        let _ = SCOPE.try_with(|cell| cell.borrow_mut().open = false);
        settle();
    }
}

/// Serve a take from this thread's open scope: `None` when no scope is
/// open or its read-ahead list holds another pool's or type's payloads
/// (the caller then takes under the lock); else the payload, if the
/// shelf had any.
fn take_ahead(pool: &Arc<Shelves>, ty: TypeId) -> Option<Option<Payload>> {
    SCOPE
        .try_with(|cell| {
            let mut s = cell.borrow_mut();
            if !s.open {
                return None;
            }
            let same = s
                .ahead_from
                .as_ref()
                .is_some_and(|(p, t)| *t == ty && p.as_ptr() == Arc::as_ptr(pool));
            if same {
                if let Some(boxed) = s.ahead.pop() {
                    return Some(Some(boxed));
                }
            } else if !s.ahead.is_empty() {
                return None;
            }
            let mut shelves = pool.lock();
            if let Some(shelf) = shelves.by_type.get_mut(&ty) {
                let rest = shelf.len().saturating_sub(READ_AHEAD);
                s.ahead.extend(shelf.drain(rest..));
            }
            drop(shelves);
            if !same && !s.ahead.is_empty() {
                s.ahead_from = Some((Arc::downgrade(pool), ty));
            }
            Some(s.ahead.pop())
        })
        .ok()
        .flatten()
}

/// Hold a dropped lease's payload in this thread's open scope; gives it
/// back when no scope is open.
fn hold(pool: Weak<Shelves>, ty: TypeId, boxed: Payload) -> Option<(Weak<Shelves>, Payload)> {
    let mut entry = Some((pool, ty, boxed));
    let _ = SCOPE.try_with(|cell| {
        let mut s = cell.borrow_mut();
        if s.open {
            s.held.extend(entry.take());
        }
    });
    entry.map(|(pool, _, boxed)| (pool, boxed))
}

/// Hand this thread's held leases and read-ahead payloads back to their
/// shelves. Each list is taken out of the cell first and its payloads
/// are freed with no borrow or lock held, so a payload whose `Drop`
/// drops another lease lands in the cell (or on its shelf) and is
/// settled on the next turn of the loop.
fn settle() {
    loop {
        let taken = SCOPE.try_with(|cell| {
            let mut s = cell.borrow_mut();
            if s.held.is_empty() && s.ahead.is_empty() {
                return None;
            }
            Some((
                mem::take(&mut s.held),
                mem::take(&mut s.ahead),
                s.ahead_from.take(),
            ))
        });
        let Ok(Some((mut held, mut ahead, ahead_from))) = taken else {
            return;
        };
        let mut freed = Vec::new();
        if let Some((pool, ty)) = ahead_from {
            if let Some(pool) = pool.upgrade() {
                let (_, over) = pool.shelve(ahead.drain(..).map(|b| (ty, b)), &mut freed);
                pool.discarded.fetch_add(over, Ordering::Relaxed);
            }
        }
        freed.append(&mut ahead);
        // One lock per pool: group the held leases by pool when they are
        // not grouped already (a stable sort keeps each shelf's order).
        if !held.windows(2).all(|w| Weak::ptr_eq(&w[0].0, &w[1].0)) {
            held.sort_by_key(|(pool, _, _)| pool.as_ptr() as usize);
        }
        let mut drain = held.drain(..).peekable();
        while let Some((pool, ty, first)) = drain.next() {
            let same_pool = iter::from_fn(|| {
                drain
                    .next_if(|(p, _, _)| Weak::ptr_eq(p, &pool))
                    .map(|(_, t, b)| (t, b))
            });
            let group = iter::once((ty, first)).chain(same_pool);
            match pool.upgrade() {
                Some(live) => {
                    let (kept, over) = live.shelve(group, &mut freed);
                    live.returns.fetch_add(kept, Ordering::Relaxed);
                    live.discarded.fetch_add(over, Ordering::Relaxed);
                }
                // The pool is gone: its leases are freed, as unbatched.
                None => freed.extend(group.map(|(_, b)| b)),
            }
        }
        drop(drain);
        drop(freed);
        // Keep the lists' capacity for the scope's next turn.
        let _ = SCOPE.try_with(|cell| {
            let mut s = cell.borrow_mut();
            if s.held.is_empty() {
                mem::swap(&mut s.held, &mut held);
            }
            if s.ahead.is_empty() {
                mem::swap(&mut s.ahead, &mut ahead);
            }
        });
    }
}

/// An exclusive lease on a pooled payload. Derefs to `T`; returning the
/// payload to the pool happens on drop (or is skipped if the pool is
/// gone or the shelf is full — the payload is then simply freed).
pub struct Lease<T: Send + 'static> {
    value: Option<Box<T>>,
    pool: Weak<Shelves>,
}

impl<T: Send + 'static> Lease<T> {
    /// A lease not backed by any pool; dropping it frees the payload.
    /// Useful for code paths that are generic over leased data but run
    /// with pooling disabled.
    pub fn detached(value: T) -> Self {
        Lease {
            value: Some(Box::new(value)),
            pool: Weak::new(),
        }
    }

    /// Take the payload out, detaching it from the pool.
    pub fn into_inner(mut self) -> T {
        *self
            .value
            .take()
            .expect("lease holds a value until dropped")
    }
}

impl<T: Send + 'static> Deref for Lease<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value.as_ref().expect("lease holds a value")
    }
}

impl<T: Send + 'static> DerefMut for Lease<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("lease holds a value")
    }
}

impl<T: Send + 'static> Drop for Lease<T> {
    fn drop(&mut self) {
        let Some(boxed) = self.value.take() else {
            return;
        };
        let pool = mem::take(&mut self.pool);
        if Weak::ptr_eq(&pool, &Weak::new()) {
            return; // detached: never shelved
        }
        let ty = TypeId::of::<T>();
        let Some((pool, boxed)) = hold(pool, ty, boxed) else {
            return; // held by this thread's scope
        };
        let Some(pool) = pool.upgrade() else {
            return;
        };
        let mut shelves = pool.lock();
        let shelf = shelves.by_type.entry(ty).or_default();
        if shelf.len() < pool.shelf_cap {
            shelf.push(boxed);
            drop(shelves);
            pool.returns.fetch_add(1, Ordering::Relaxed);
        } else {
            // Freed after the lock is released: its `Drop` may drop a lease.
            drop(shelves);
            pool.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<T: Send + std::fmt::Debug + 'static> std::fmt::Debug for Lease<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lease({:?})", self.deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_miss_then_hit_recycles_the_same_payload() {
        let pool = BufferPool::new(8);
        let mut a = pool.take(|| vec![0u64; 4]);
        a[0] = 7;
        drop(a);
        assert_eq!(pool.shelved(), 1);
        let b = pool.take(|| vec![0u64; 4]);
        // Recycled payloads keep their previous contents.
        assert_eq!(b[0], 7);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shelves_are_type_indexed_and_bounded() {
        let pool = BufferPool::new(2);
        drop(pool.take(|| 1u32));
        drop(pool.take(|| String::from("x")));
        assert_eq!(pool.shelved(), 2);
        // Fill the u32 shelf beyond its cap.
        let (a, b, c) = (pool.take(|| 2u32), pool.take(|| 3u32), pool.take(|| 4u32));
        drop(a);
        drop(b);
        drop(c);
        let s = pool.stats();
        assert_eq!(s.discarded, 1, "{s:?}");
        // u32 shelf capped at 2, plus the shelved String.
        assert_eq!(pool.shelved(), 3);
    }

    #[test]
    fn lease_outliving_the_pool_is_fine() {
        let pool = BufferPool::new(4);
        let lease = pool.take(|| vec![1u8; 16]);
        drop(pool);
        assert_eq!(lease.len(), 16);
        drop(lease); // frees instead of returning
    }

    #[test]
    fn detached_and_into_inner() {
        let mut d = Lease::detached(vec![1, 2, 3]);
        d.push(4);
        assert_eq!(d.into_inner(), vec![1, 2, 3, 4]);

        let pool = BufferPool::new(4);
        let lease = pool.take(|| 9i64);
        assert_eq!(lease.into_inner(), 9);
        // into_inner detaches: nothing returned to the shelf.
        assert_eq!(pool.shelved(), 0);
    }

    #[test]
    fn pool_is_shared_across_clones_and_threads() {
        let pool = BufferPool::new(16);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = pool.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        let mut l = p.take(|| vec![0u64; 8]);
                        l[0] += 1;
                    }
                });
            }
        });
        let st = pool.stats();
        assert_eq!(st.hits + st.misses, 200);
        assert!(st.hits > 0, "concurrent takes should recycle: {st:?}");
    }

    #[test]
    fn a_scope_holds_drops_and_settles_them_under_one_lock() {
        let pool = BufferPool::new(64);
        let leases: Vec<_> = (0..10).map(|_| pool.take(|| vec![0u8; 8])).collect();
        let before = pool.shelf_locks();
        {
            let _scope = Scope::open();
            drop(leases);
            assert_eq!(pool.shelf_locks(), before, "held drops take no lock");
            assert_eq!(pool.stats().returns, 0);
        }
        assert_eq!(pool.shelf_locks(), before + 1);
        assert_eq!(pool.stats().returns, 10);
        assert_eq!(pool.shelved(), 10);
    }

    #[test]
    fn a_scope_reads_ahead_and_hands_leftovers_back() {
        let pool = BufferPool::new(64);
        drop((0..40).map(|_| pool.take(|| 0u64)).collect::<Vec<_>>());
        let before = pool.shelf_locks();
        {
            let scope = Scope::open();
            let first: Vec<_> = (0..READ_AHEAD).map(|_| pool.take(|| 0u64)).collect();
            assert_eq!(pool.shelf_locks(), before + 1, "one lock per read-ahead");
            let rest: Vec<_> = (0..3).map(|_| pool.take(|| 0u64)).collect();
            assert_eq!(pool.shelf_locks(), before + 2);
            drop(first);
            // Held leases and the 5 unused payloads go back; the scope stays open.
            scope.cycle();
            assert_eq!(pool.shelf_locks(), before + 4);
            assert_eq!(pool.shelved(), 37);
            drop(rest);
        }
        assert_eq!(pool.shelved(), 40);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns, s.discarded), (35, 40, 75, 0));
    }

    #[test]
    fn nested_scopes_are_no_ops() {
        let pool = BufferPool::new(8);
        let (a, b) = (pool.take(|| 1u32), pool.take(|| 2u32));
        let outer = Scope::open();
        let inner = Scope::open();
        drop(a);
        inner.cycle();
        drop(inner);
        // The inner guard neither settled nor closed the outer scope.
        drop(b);
        assert_eq!(pool.stats().returns, 0);
        drop(outer);
        assert_eq!(pool.stats().returns, 2);
        // Closed: a drop now returns at once.
        drop(pool.take(|| 3u32));
        assert_eq!(pool.stats().returns, 3);
    }

    #[test]
    fn a_panic_inside_a_scope_still_returns_every_held_lease() {
        let pool = BufferPool::new(64);
        drop(
            (0..8)
                .map(|_| pool.take(|| vec![0u8; 4]))
                .collect::<Vec<_>>(),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = Scope::open();
            let leases: Vec<_> = (0..12).map(|_| pool.take(|| vec![0u8; 4])).collect();
            let kept = pool.take(|| vec![0u8; 4]);
            drop(leases);
            std::mem::forget(kept);
            panic!("a stage failed");
        }));
        assert!(result.is_err());
        assert_eq!(pool.shelved(), 12);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns), (8, 8 + 5, 8 + 12));
        // The unwound guard closed its scope.
        drop(pool.take(|| vec![0u8; 4]));
        assert_eq!(pool.stats().returns, 8 + 13);
    }

    /// A payload holding a lease of another pool, so freeing it drops a
    /// lease in the middle of a settle.
    struct Nest(Option<Lease<u64>>);

    #[test]
    fn a_payload_dropping_a_lease_settles_without_a_borrow_panic() {
        let inner = BufferPool::new(8);
        // Shelf cap 0: every returned `Nest` is freed at settle.
        let full = BufferPool::new(0);
        let nest = |pool: &BufferPool| {
            let mut n = pool.take(|| Nest(None));
            n.0 = Some(inner.take(|| 5u64));
            n
        };
        {
            let scope = Scope::open();
            drop(nest(&full));
            // Cycling: the freed `Nest` drops its lease into the open
            // scope, and the same settle returns it.
            scope.cycle();
            assert_eq!(full.stats().discarded, 1);
            assert_eq!(inner.stats().returns, 1);
            // Closing: the freed `Nest` drops its lease after the scope
            // closed, so it returns unbatched.
            drop(nest(&full));
        }
        assert_eq!(full.stats().discarded, 2);
        assert_eq!(inner.stats().returns, 2);
        // A `Nest` whose pool is gone is freed, and its lease returns.
        {
            let _scope = Scope::open();
            let gone = BufferPool::new(8);
            let orphan = nest(&gone);
            drop(gone);
            drop(orphan);
        }
        assert_eq!(inner.stats().returns, 3);
        assert_eq!(inner.shelved(), 1);
    }

    #[test]
    fn detached_and_orphaned_leases_are_freed_not_shelved() {
        let token = Arc::new(());
        let pool = BufferPool::new(8);
        let scope = Scope::open();
        drop(Lease::detached(token.clone()));
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "a detached lease is freed at once"
        );
        let orphan = {
            let gone = BufferPool::new(8);
            gone.take(|| token.clone())
        };
        drop(orphan);
        drop(pool.take(|| token.clone()));
        drop(scope);
        // The orphan was freed at settle; only the live pool shelved one.
        assert_eq!(Arc::strong_count(&token), 2);
        assert_eq!(pool.shelved(), 1);
        assert_eq!(pool.stats().returns, 1);
    }

    #[test]
    fn scopes_are_per_thread() {
        let pool = BufferPool::new(64);
        let scope = Scope::open();
        drop(pool.take(|| 1u64));
        std::thread::scope(|s| {
            s.spawn(|| {
                // The main thread's open scope does not cover this one.
                drop(pool.take(|| 2u64));
                assert_eq!(pool.stats().returns, 1);
                let own = Scope::open();
                drop(pool.take(|| 3u64));
                drop(own);
                // Closing this thread's scope settled only its own lease.
                assert_eq!(pool.stats().returns, 2);
            });
        });
        assert_eq!(pool.stats().returns, 2);
        drop(scope);
        assert_eq!(pool.stats().returns, 3);
    }

    #[test]
    fn the_shelf_cap_counts_discards_at_settle() {
        let pool = BufferPool::new(2);
        let leases: Vec<_> = (0..5).map(|_| pool.take(|| 0u32)).collect();
        {
            let _scope = Scope::open();
            drop(leases);
            assert_eq!(pool.stats().discarded, 0);
        }
        let s = pool.stats();
        assert_eq!((s.returns, s.discarded), (2, 3));
        assert_eq!(pool.shelved(), 2);
    }
}
