//! Communication modules: the pluggable method implementations.
//!
//! A communication module implements one low-level communication method
//! behind a standard interface (§3.1). In the C implementation this
//! interface is a *function table* constructed when the module is loaded;
//! the Rust equivalent is the [`CommModule`] trait object. To enable the
//! coexistence of many modules within one executable, the runtime accesses
//! every module through a [`ModuleRegistry`], and modules that were not
//! "compiled in" can still be produced on demand through registered loader
//! hooks (the dynamic-loading path).
//!
//! Each module splits into three runtime roles:
//! * the module itself ([`CommModule`]) — identity, applicability rules,
//!   descriptor construction, connection establishment;
//! * a per-context receive side ([`CommReceiver`]) — created when a context
//!   enables the method; polled by the context's poll engine;
//! * a sender-side connection ([`CommObject`]) — an active connection to a
//!   particular remote context, shared among all startpoints in a context
//!   that target the same context with the same method.

use crate::context::ContextInfo;
use crate::descriptor::{CommDescriptor, MethodId};
use crate::error::{NexusError, Result};
use crate::poll::ReadySignal;
use crate::rsr::{Rsr, WireFrame};
use crate::trace::Trace;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The receive side of a method within one context.
///
/// The poll engine calls [`CommReceiver::poll`] from the unified polling
/// function; modules that support blocking (the paper's AIX 4.1 TCP path)
/// additionally implement [`CommReceiver::recv_timeout`] and report it via
/// [`CommModule::supports_blocking`], allowing a dedicated thread to block
/// instead of polling.
pub trait CommReceiver: Send {
    /// Non-blocking check for one incoming RSR.
    fn poll(&mut self) -> Result<Option<Rsr>>;

    /// Blocking receive with a timeout. The default implementation simply
    /// polls once, which is correct but defeats the purpose; modules that
    /// advertise blocking support override this.
    fn recv_timeout(&mut self, _timeout: Duration) -> Result<Option<Rsr>> {
        self.poll()
    }

    /// Installs a doorbell the transport rings whenever a message becomes
    /// retrievable (ring *after* the enqueue — see [`ReadySignal`] for the
    /// ordering contract). Returning `true` moves this source to the poll
    /// engine's readiness tier; the default declines, keeping the source
    /// in the skip_poll rotation. Modules that accept report it via
    /// [`CommModule::supports_readiness`].
    fn set_ready_signal(&mut self, _signal: ReadySignal) -> bool {
        false
    }

    /// Releases receive-side resources. Called at context shutdown.
    fn close(&mut self) {}
}

/// An active sender-side connection to one remote context.
pub trait CommObject: Send + Sync {
    /// The method this connection uses.
    fn method(&self) -> MethodId;

    /// Transfers one RSR, whose payload is `head ++ rsr.payload`, to the
    /// remote context: the function table's one send.
    ///
    /// `frame` is the message's shared encode-once wire body: the same
    /// `WireFrame` is passed for every link of a multicast and every
    /// failover retry, so a transport that needs wire bytes calls
    /// [`WireFrame::body`] (serialized at most once per message) and
    /// assembles the small per-destination header on the stack. In-process
    /// transports that move the [`Rsr`] directly ignore `frame` entirely —
    /// with an interned handler and a refcounted payload, `rsr.clone()` is
    /// allocation-free.
    ///
    /// `head` is empty except for a stripe or bulk chunk: there it is the
    /// small stack-assembled chunk header, `rsr.payload` is a zero-copy
    /// slice of the original body, and `frame` encodes `rsr` alone. Wire
    /// transports gather head and payload into one write; a transport that
    /// needs one contiguous payload hands a headed send to
    /// [`send_parts_fallback`].
    ///
    /// `stage` is the caller's permission to *stage* the frame — append it
    /// to the connection's staging buffer for a later write — and carries
    /// the trace whose method record counts the writes that carry staged
    /// frames. Frames stay in issue order: every write on the connection
    /// puts what is staged in front of its own bytes. A
    /// [`Staged::NeedsOwner`] answer obliges the caller to
    /// [`CommObject::flush`] the connection later (the context lists it for
    /// its next dispatch round). A transport that cannot stage ignores the
    /// permission and answers [`Staged::Written`].
    fn transfer(
        &self,
        rsr: &Rsr,
        frame: &WireFrame,
        head: &[u8],
        stage: Option<&Trace>,
    ) -> Result<Staged>;

    /// Sets a connection parameter (e.g. `"sockbuf"` for TCP). Modules
    /// reject unknown keys.
    fn set_param(&self, key: &str, _value: &str) -> Result<()> {
        Err(NexusError::BadParam {
            key: key.to_owned(),
            reason: "this communication object has no parameters".to_owned(),
        })
    }

    /// Whether a [`Bytes`](bytes::Bytes) payload handed to
    /// [`CommObject::transfer`] reaches the receiving context as a shared
    /// view of the *same* storage (queue-backed in-process transports:
    /// local, shmem, MPL) rather than a wire copy. The bulk pull engine
    /// answers `#bulk-get` over such a connection with the registered
    /// region itself — a map-in-place borrow, zero copies end-to-end — and
    /// streams chunks over everything else. The default is the honest
    /// answer for any transport that serializes.
    fn supports_region_map(&self) -> bool {
        false
    }

    /// Writes whatever is staged, and releases the owner's claim taken by
    /// a [`Staged::NeedsOwner`] answer. The default has nothing staged.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Releases the connection.
    fn close(&self) {}
}

impl dyn CommObject {
    /// The plain send: `rsr` with no chunk head, written through.
    pub fn send(&self, rsr: &Rsr, frame: &WireFrame) -> Result<()> {
        self.transfer(rsr, frame, &[], None).map(drop)
    }
}

/// What [`CommObject::transfer`] did with one RSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staged {
    /// Written to the connection, behind whatever was staged before it.
    Written,
    /// Appended to the staging buffer; an owner already holds the
    /// connection for flushing.
    Staged,
    /// Appended to the staging buffer, and no owner holds the connection:
    /// the caller must flush it later.
    NeedsOwner,
}

/// The one place a headed send becomes contiguous, for transports that
/// need one payload: builds `head ++ rsr.payload` from the thread-local
/// buffer pool, sends it as a plain RSR, and returns the frame storage to
/// the pool. Generic (rather than taking `&dyn CommObject`) so a
/// transport's `transfer` can call it without coercing `&Self`.
pub fn send_parts_fallback<O: CommObject + ?Sized>(
    obj: &O,
    rsr: &Rsr,
    head: &[u8],
) -> Result<Staged> {
    let mut buf = crate::pool::take(head.len() + rsr.payload.len());
    buf.extend_from_slice(head);
    buf.extend_from_slice(&rsr.payload);
    let combined = Rsr {
        dest: rsr.dest,
        endpoint: rsr.endpoint,
        handler: rsr.handler.clone(),
        ttl: rsr.ttl,
        payload: buf.freeze(),
    };
    let frame = WireFrame::new();
    let out = obj.transfer(&combined, &frame, &[], None);
    // The combined payload is referenced by both `combined` and (if the
    // transport encoded) nothing else once the send returns; drop the RSR
    // first so the body storage can be pooled again.
    frame.reclaim();
    crate::pool::reclaim(combined.payload);
    out
}

/// A communication method implementation (the "function table").
pub trait CommModule: Send + Sync {
    /// Stable wire identifier for this method.
    fn method(&self) -> MethodId;

    /// Human-readable method name (used by the resource database).
    fn name(&self) -> &'static str;

    /// Relative speed rank; lower is faster. The registry sorts default
    /// descriptor tables by this rank, which realizes the paper's
    /// "fastest first" automatic selection policy.
    fn cost_rank(&self) -> u32;

    /// Enables this method for a context: allocates receive-side state and
    /// returns the descriptor other contexts will use to reach it.
    fn open(&self, ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)>;

    /// Whether `local` can use `desc` to communicate. This is where
    /// method-specific criteria live: the MPL module requires both contexts
    /// to be in the same partition, shared memory requires the same node,
    /// and so on (§3.2).
    fn applicable(&self, local: &ContextInfo, desc: &CommDescriptor) -> bool;

    /// Opens a sender-side connection described by `desc`.
    fn connect(&self, local: &ContextInfo, desc: &CommDescriptor) -> Result<Arc<dyn CommObject>>;

    /// Estimated cost of one [`CommReceiver::poll`] call in nanoseconds.
    /// Cheap probes (MPL `mpc_status`: ~15 µs on the SP2) versus expensive
    /// readiness scans (TCP `select`: >100 µs) are what motivate
    /// `skip_poll` (§3.3). Used by enquiry functions and adaptive policies.
    fn poll_cost_ns(&self) -> u64;

    /// Whether receivers support genuine blocking via `recv_timeout`.
    fn supports_blocking(&self) -> bool {
        false
    }

    /// Whether receivers accept a readiness doorbell via
    /// [`CommReceiver::set_ready_signal`]. Contexts arm such methods into
    /// the poll engine's readiness tier at creation, taking them out of
    /// the skip_poll rotation; methods that stay `false` (the MPL probe,
    /// the delay queue) remain in the polled fallback tier.
    fn supports_readiness(&self) -> bool {
        false
    }

    /// Sets a module-wide parameter. Modules reject unknown keys.
    fn set_param(&self, key: &str, _value: &str) -> Result<()> {
        Err(NexusError::BadParam {
            key: key.to_owned(),
            reason: format!("module {:?} has no parameters", self.name()),
        })
    }
}

/// Loader hook used to resolve modules that are not yet registered — the
/// analog of dynamically loading a communication module at runtime.
pub type ModuleLoader = Box<dyn Fn(MethodId) -> Option<Arc<dyn CommModule>> + Send + Sync>;

/// The set of communication modules available to an executable.
///
/// Holds modules in *default priority order* (fastest first unless
/// explicitly overridden), plus loader hooks consulted when an unknown
/// method id must be resolved.
pub struct ModuleRegistry {
    inner: RwLock<RegistryInner>,
}

struct RegistryInner {
    // Ordered: default descriptor-table priority.
    modules: Vec<Arc<dyn CommModule>>,
    by_id: HashMap<MethodId, Arc<dyn CommModule>>,
    loaders: Vec<ModuleLoader>,
}

impl Default for ModuleRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModuleRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModuleRegistry {
            inner: RwLock::new(RegistryInner {
                modules: Vec::new(),
                by_id: HashMap::new(),
                loaders: Vec::new(),
            }),
        }
    }

    /// Registers a module, keeping the list sorted by
    /// [`CommModule::cost_rank`] (stable for equal ranks). Registering a
    /// module whose method id is already present replaces it.
    pub fn register(&self, module: Arc<dyn CommModule>) {
        let mut g = self.inner.write();
        let id = module.method();
        g.modules.retain(|m| m.method() != id);
        g.by_id.insert(id, Arc::clone(&module));
        let rank = module.cost_rank();
        let pos = g
            .modules
            .iter()
            .position(|m| m.cost_rank() > rank)
            .unwrap_or(g.modules.len());
        g.modules.insert(pos, module);
    }

    /// Removes a module from the registry. Existing connections made
    /// through it are unaffected.
    pub fn unregister(&self, method: MethodId) -> bool {
        let mut g = self.inner.write();
        let had = g.by_id.remove(&method).is_some();
        g.modules.retain(|m| m.method() != method);
        had
    }

    /// Adds a loader hook for dynamic module resolution.
    pub fn add_loader(&self, loader: ModuleLoader) {
        self.inner.write().loaders.push(loader);
    }

    /// Looks up a registered module without invoking loaders.
    pub fn get(&self, method: MethodId) -> Option<Arc<dyn CommModule>> {
        self.inner.read().by_id.get(&method).cloned()
    }

    /// Looks up a module, consulting loader hooks (and registering any
    /// module they produce) if it is not already present.
    pub fn resolve(&self, method: MethodId) -> Option<Arc<dyn CommModule>> {
        if let Some(m) = self.get(method) {
            return Some(m);
        }
        // Take loaded candidates outside the lock to avoid re-entrancy.
        let loaded: Option<Arc<dyn CommModule>> = {
            let g = self.inner.read();
            g.loaders.iter().find_map(|l| l(method))
        };
        if let Some(m) = loaded {
            self.register(Arc::clone(&m));
            Some(m)
        } else {
            None
        }
    }

    /// Looks up a module by its resource-database name.
    pub fn get_by_name(&self, name: &str) -> Option<Arc<dyn CommModule>> {
        self.inner
            .read()
            .modules
            .iter()
            .find(|m| m.name() == name)
            .cloned()
    }

    /// The registered modules in default priority order.
    pub fn modules(&self) -> Vec<Arc<dyn CommModule>> {
        self.inner.read().modules.clone()
    }

    /// The default method order (fastest first unless overridden).
    pub fn default_order(&self) -> Vec<MethodId> {
        self.inner
            .read()
            .modules
            .iter()
            .map(|m| m.method())
            .collect()
    }

    /// Overrides the default priority order. Methods named in `order` move
    /// to the front in the given order; others keep their relative order.
    /// Unknown names are an error.
    pub fn set_order(&self, order: &[MethodId]) -> Result<()> {
        let mut g = self.inner.write();
        for m in order {
            if !g.by_id.contains_key(m) {
                return Err(NexusError::UnknownMethod(*m));
            }
        }
        let mut front = Vec::with_capacity(g.modules.len());
        for m in order {
            if let Some(pos) = g.modules.iter().position(|x| x.method() == *m) {
                front.push(g.modules.remove(pos));
            }
        }
        front.append(&mut g.modules);
        g.modules = front;
        Ok(())
    }

    /// Number of registered modules.
    pub fn len(&self) -> usize {
        self.inner.read().modules.len()
    }

    /// True if no modules are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[doc(hidden)]
pub mod test_support {
    //! A trivial in-process queue module used by core unit tests and doc
    //! examples, so they do not depend on the transports crate.

    use super::*;
    use crate::buffer::Buffer;
    use crate::context::ContextId;
    use crossbeam::queue::SegQueue;
    use parking_lot::Mutex;

    /// One context's receive inbox: the message queue plus the doorbell
    /// installed when the poll engine arms the source. Replaceable (not
    /// write-once) so a worker pool can re-arm the source with its own
    /// doorbell after adoption.
    struct TestInbox {
        queue: SegQueue<Rsr>,
        bell: Mutex<Option<ReadySignal>>,
    }

    type Medium = Mutex<HashMap<ContextId, Arc<TestInbox>>>;

    /// An in-process queue transport with a configurable method id, rank,
    /// and applicability predicate (used to emulate partition scoping).
    pub struct TestModule {
        id: MethodId,
        name: &'static str,
        rank: u32,
        poll_cost: u64,
        medium: Arc<Medium>,
        /// Partition restriction: if true, applicable only when descriptor
        /// partition matches the local partition.
        partition_scoped: bool,
        /// Whether receivers accept a readiness doorbell. Off by default
        /// so existing tests keep exercising the polled tier.
        ready: bool,
    }

    impl TestModule {
        pub fn new(id: MethodId, name: &'static str, rank: u32, partition_scoped: bool) -> Self {
            TestModule {
                id,
                name,
                rank,
                poll_cost: 100,
                medium: Arc::new(Mutex::new(HashMap::new())),
                partition_scoped,
                ready: false,
            }
        }

        /// Opts this module into the readiness tier: its receivers accept
        /// a doorbell and its senders ring it after every enqueue.
        pub fn with_readiness(mut self) -> Self {
            self.ready = true;
            self
        }
    }

    struct TestReceiver {
        inbox: Arc<TestInbox>,
        ready: bool,
    }

    impl CommReceiver for TestReceiver {
        fn poll(&mut self) -> Result<Option<Rsr>> {
            Ok(self.inbox.queue.pop())
        }
        fn set_ready_signal(&mut self, signal: ReadySignal) -> bool {
            if !self.ready {
                return false;
            }
            *self.inbox.bell.lock() = Some(signal);
            true
        }
    }

    struct TestObject {
        id: MethodId,
        inbox: Arc<TestInbox>,
    }

    impl CommObject for TestObject {
        fn method(&self) -> MethodId {
            self.id
        }
        fn transfer(
            &self,
            rsr: &Rsr,
            _frame: &WireFrame,
            head: &[u8],
            _stage: Option<&Trace>,
        ) -> Result<Staged> {
            if !head.is_empty() {
                return send_parts_fallback(self, rsr, head);
            }
            self.inbox.queue.push(rsr.clone());
            if let Some(bell) = self.inbox.bell.lock().as_ref() {
                bell.ring();
            }
            Ok(Staged::Written)
        }
    }

    impl CommModule for TestModule {
        fn method(&self) -> MethodId {
            self.id
        }
        fn name(&self) -> &'static str {
            self.name
        }
        fn cost_rank(&self) -> u32 {
            self.rank
        }
        fn open(&self, ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)> {
            let inbox = Arc::new(TestInbox {
                queue: SegQueue::new(),
                bell: Mutex::new(None),
            });
            self.medium.lock().insert(ctx.id, Arc::clone(&inbox));
            let mut b = Buffer::new();
            b.put_u32(ctx.id.0);
            b.put_u32(ctx.partition.0);
            Ok((
                CommDescriptor::new(self.id, b.into_bytes().to_vec()),
                Box::new(TestReceiver {
                    inbox,
                    ready: self.ready,
                }),
            ))
        }
        fn applicable(&self, local: &ContextInfo, desc: &CommDescriptor) -> bool {
            if desc.method != self.id {
                return false;
            }
            let mut b = Buffer::new();
            b.put_raw(&desc.data);
            let _ctx = b.get_u32();
            let part = match b.get_u32() {
                Ok(p) => p,
                Err(_) => return false,
            };
            !self.partition_scoped || part == local.partition.0
        }
        fn connect(
            &self,
            _local: &ContextInfo,
            desc: &CommDescriptor,
        ) -> Result<Arc<dyn CommObject>> {
            let mut b = Buffer::new();
            b.put_raw(&desc.data);
            let ctx = ContextId(b.get_u32()?);
            let inbox = self
                .medium
                .lock()
                .get(&ctx)
                .cloned()
                .ok_or(NexusError::UnknownContext(ctx))?;
            Ok(Arc::new(TestObject { id: self.id, inbox }))
        }
        fn poll_cost_ns(&self) -> u64 {
            self.poll_cost
        }
        fn supports_readiness(&self) -> bool {
            self.ready
        }
    }
}

#[doc(hidden)]
pub mod fault_support {
    //! A module whose connections fail on demand — used to test the
    //! error-failover path ("switch among alternative communication
    //! substrates in the event of error", §1).

    use super::*;
    use crate::buffer::Buffer;
    use crate::context::ContextId;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// A queue-like module whose send path can be broken at runtime.
    pub struct FlakyModule {
        inner: super::test_support::TestModule,
        id: MethodId,
        name: &'static str,
        rank: u32,
        broken: Arc<AtomicBool>,
        /// Sends attempted while broken.
        pub failed_sends: Arc<AtomicU64>,
    }

    impl FlakyModule {
        /// Creates a healthy module; break it with [`FlakyModule::set_broken`].
        pub fn new(id: MethodId, name: &'static str, rank: u32) -> Self {
            FlakyModule {
                inner: super::test_support::TestModule::new(id, name, rank, false),
                id,
                name,
                rank,
                broken: Arc::new(AtomicBool::new(false)),
                failed_sends: Arc::new(AtomicU64::new(0)),
            }
        }

        /// Breaks or repairs every connection made through this module.
        pub fn set_broken(&self, broken: bool) {
            self.broken.store(broken, Ordering::Relaxed);
        }
    }

    struct FlakyObject {
        inner: Arc<dyn CommObject>,
        broken: Arc<AtomicBool>,
        failed_sends: Arc<AtomicU64>,
    }

    impl CommObject for FlakyObject {
        fn method(&self) -> MethodId {
            self.inner.method()
        }
        fn transfer(
            &self,
            rsr: &Rsr,
            frame: &WireFrame,
            head: &[u8],
            _stage: Option<&Trace>,
        ) -> Result<Staged> {
            if self.broken.load(Ordering::Relaxed) {
                self.failed_sends.fetch_add(1, Ordering::Relaxed);
                // Touch the shared body like a real wire transport would
                // before hitting the error, so failover tests observe that
                // retries reuse the already-encoded frame.
                let _ = frame.body(rsr).len();
                return Err(NexusError::ConnectionClosed);
            }
            self.inner.transfer(rsr, frame, head, None)
        }
    }

    impl CommModule for FlakyModule {
        fn method(&self) -> MethodId {
            self.id
        }
        fn name(&self) -> &'static str {
            self.name
        }
        fn cost_rank(&self) -> u32 {
            self.rank
        }
        fn open(&self, ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)> {
            let (desc, rx) = self.inner.open(ctx)?;
            // Rewrap the descriptor under our own method id (TestModule
            // already uses self.id since we constructed it with it).
            let mut b = Buffer::new();
            b.put_raw(&desc.data);
            let _ = ContextId(b.get_u32()?);
            Ok((desc, rx))
        }
        fn applicable(&self, local: &ContextInfo, desc: &CommDescriptor) -> bool {
            self.inner.applicable(local, desc)
        }
        fn connect(
            &self,
            local: &ContextInfo,
            desc: &CommDescriptor,
        ) -> Result<Arc<dyn CommObject>> {
            Ok(Arc::new(FlakyObject {
                inner: self.inner.connect(local, desc)?,
                broken: Arc::clone(&self.broken),
                failed_sends: Arc::clone(&self.failed_sends),
            }))
        }
        fn poll_cost_ns(&self) -> u64 {
            self.inner.poll_cost_ns()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::TestModule;
    use super::*;

    #[test]
    fn register_sorts_by_cost_rank() {
        let reg = ModuleRegistry::new();
        reg.register(Arc::new(TestModule::new(MethodId::TCP, "tcp", 30, false)));
        reg.register(Arc::new(TestModule::new(MethodId::MPL, "mpl", 10, true)));
        reg.register(Arc::new(TestModule::new(
            MethodId::SHMEM,
            "shmem",
            5,
            false,
        )));
        assert_eq!(
            reg.default_order(),
            vec![MethodId::SHMEM, MethodId::MPL, MethodId::TCP]
        );
    }

    #[test]
    fn register_replaces_same_method() {
        let reg = ModuleRegistry::new();
        reg.register(Arc::new(TestModule::new(MethodId::TCP, "tcp", 30, false)));
        reg.register(Arc::new(TestModule::new(MethodId::TCP, "tcp2", 1, false)));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get(MethodId::TCP).unwrap().name(), "tcp2");
    }

    #[test]
    fn set_order_overrides_defaults() {
        let reg = ModuleRegistry::new();
        reg.register(Arc::new(TestModule::new(MethodId::MPL, "mpl", 10, true)));
        reg.register(Arc::new(TestModule::new(MethodId::TCP, "tcp", 30, false)));
        reg.set_order(&[MethodId::TCP]).unwrap();
        assert_eq!(reg.default_order(), vec![MethodId::TCP, MethodId::MPL]);
        assert!(reg.set_order(&[MethodId::UDP]).is_err());
    }

    #[test]
    fn unregister_removes_module() {
        let reg = ModuleRegistry::new();
        reg.register(Arc::new(TestModule::new(MethodId::TCP, "tcp", 30, false)));
        assert!(reg.unregister(MethodId::TCP));
        assert!(!reg.unregister(MethodId::TCP));
        assert!(reg.get(MethodId::TCP).is_none());
    }

    #[test]
    fn loader_hook_resolves_unknown_methods() {
        let reg = ModuleRegistry::new();
        reg.add_loader(Box::new(|m| {
            (m == MethodId::UDP)
                .then(|| Arc::new(TestModule::new(MethodId::UDP, "udp", 40, false)) as _)
        }));
        assert!(reg.get(MethodId::UDP).is_none());
        let m = reg.resolve(MethodId::UDP).expect("loader should fire");
        assert_eq!(m.name(), "udp");
        // Now it is registered for direct lookup too.
        assert!(reg.get(MethodId::UDP).is_some());
        assert!(reg.resolve(MethodId::MCAST).is_none());
    }

    #[test]
    fn get_by_name_finds_modules() {
        let reg = ModuleRegistry::new();
        reg.register(Arc::new(TestModule::new(MethodId::MPL, "mpl", 10, true)));
        assert!(reg.get_by_name("mpl").is_some());
        assert!(reg.get_by_name("nope").is_none());
    }
}
