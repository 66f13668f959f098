//! Contexts (address spaces) and the fabric that connects them.
//!
//! Following the paper's terminology, a *context* is an address space or
//! virtual processor (§3). The [`Fabric`] is the process-wide registry of
//! contexts together with the [`ModuleRegistry`] of communication methods —
//! the stand-in for a metacomputing testbed in which contexts live on
//! different nodes and partitions of one or several parallel computers.
//!
//! Each context owns: a handler table, an endpoint table, its own
//! descriptor table (what it advertises to others), a unified
//! [`PollEngine`] over the receive side of every method it enables, a
//! communication-object cache (objects are shared among startpoints that
//! target the same context with the same method), a selection policy, and
//! statistics for the enquiry functions.

use crate::buffer::Buffer;
use crate::bulk::{self, BulkState};
use crate::descriptor::{DescriptorTable, MethodId};
use crate::endpoint::{Attached, EndpointId};
use crate::error::{NexusError, Result};
use crate::handler::{self, HandlerArgs, HandlerRegistry, Versioned};
use crate::module::{CommObject, CommReceiver, ModuleRegistry, Staged};
use crate::poll::{BlockingPoller, PollEngine, PollOutcome};
use crate::rsr::{Rsr, WireFrame};
use crate::selection::{
    self, ExcludeMethods, FirstApplicable, MethodCostEstimate, ReselectConfig, SelectionPolicy,
};
use crate::startpoint::{Link, SelectedMethod, Startpoint, Target};
use crate::stripe::{self, StripeState};
use crate::trace::{HistogramSummary, LinkMethodTrace, Trace, TraceEventKind};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Identifies a context (address space) within the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u32);

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies a physical node (processor) in the emulated testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

/// Identifies a partition (the SP2 software abstraction: MPL works only
/// within one partition; TCP works everywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PartitionId(pub u32);

/// Immutable placement facts about a context, given to communication
/// modules for applicability checks and descriptor construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextInfo {
    /// The context's id.
    pub id: ContextId,
    /// The node the context runs on.
    pub node: NodeId,
    /// The partition the node belongs to.
    pub partition: PartitionId,
}

/// Route communications for one method through a forwarding node instead of
/// receiving them directly (§3.3's forwarding design: e.g. all external TCP
/// traffic for a partition lands on one node, which re-sends over MPL).
#[derive(Debug, Clone, Copy)]
pub struct ForwardVia {
    /// The method whose traffic is forwarded (typically TCP).
    pub method: MethodId,
    /// The context acting as the forwarder. It must itself enable `method`.
    pub forwarder: ContextId,
}

/// Options for creating a context.
#[derive(Debug, Clone, Default)]
pub struct ContextOpts {
    /// Node placement.
    pub node: NodeId,
    /// Partition placement.
    pub partition: PartitionId,
    /// Methods to enable (None = every registered module). Order is
    /// irrelevant; descriptor-table priority follows the registry order.
    pub methods: Option<Vec<MethodId>>,
    /// Optional forwarding arrangement (see [`ForwardVia`]).
    pub forward_via: Option<ForwardVia>,
}

struct FabricInner {
    registry: Arc<ModuleRegistry>,
    contexts: RwLock<HashMap<ContextId, Arc<Context>>>,
    next_ctx: AtomicU32,
    shutdown: AtomicBool,
}

/// The process-wide collection of contexts and communication modules.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// Creates a fabric with an empty module registry.
    pub fn new() -> Self {
        Self::with_id_base(0)
    }

    /// Creates a fabric whose context ids start at `base`. When several OS
    /// processes cooperate (their startpoints crossing process boundaries
    /// over socket transports), give each process a disjoint id range so
    /// context ids are globally unique — the in-process analog of the
    /// paper's globally unique session identifiers.
    pub fn with_id_base(base: u32) -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                registry: Arc::new(ModuleRegistry::new()),
                contexts: RwLock::new(HashMap::new()),
                next_ctx: AtomicU32::new(base),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// The module registry (register communication modules here before
    /// creating contexts).
    pub fn registry(&self) -> &ModuleRegistry {
        &self.inner.registry
    }

    /// Creates a context with default placement (node 0, partition 0, all
    /// registered methods).
    pub fn create_context(&self) -> Result<Arc<Context>> {
        self.create_context_with(ContextOpts::default())
    }

    /// Creates a context at the given node/partition with all methods.
    pub fn create_context_at(&self, node: NodeId, partition: PartitionId) -> Result<Arc<Context>> {
        self.create_context_with(ContextOpts {
            node,
            partition,
            ..Default::default()
        })
    }

    /// Creates a context with full options.
    pub fn create_context_with(&self, opts: ContextOpts) -> Result<Arc<Context>> {
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return Err(NexusError::ShutDown);
        }
        let id = ContextId(self.inner.next_ctx.fetch_add(1, Ordering::Relaxed));
        let info = ContextInfo {
            id,
            node: opts.node,
            partition: opts.partition,
        };

        // Validate requested methods against the registry.
        if let Some(ms) = &opts.methods {
            for m in ms {
                if self.inner.registry.resolve(*m).is_none() {
                    return Err(NexusError::UnknownMethod(*m));
                }
            }
        }

        let mut table = DescriptorTable::new();
        // The engine's sources record into the context's trace: every
        // probe then notes its measured cost and outcome through cached
        // atomics, without locking.
        let trace = Arc::new(Trace::new());
        let mut engine = PollEngine::with_trace(Arc::clone(&trace));
        let mut ready_methods = Vec::new();

        // Walk modules in registry (priority) order so the context's own
        // descriptor table comes out fastest-first.
        for module in self.inner.registry.modules() {
            let mid = module.method();
            let enabled = opts.methods.as_ref().is_none_or(|ms| ms.contains(&mid));
            let forwarded = opts
                .forward_via
                .is_some_and(|fv| fv.method == mid && !enabled);
            if enabled {
                let (desc, receiver) = module.open(&info)?;
                table.push(desc);
                engine.add_source(mid, receiver);
                if module.supports_readiness() {
                    ready_methods.push(mid);
                }
            } else if forwarded {
                // Advertise the forwarder's descriptor for this method:
                // senders reach the forwarder, which re-sends to us.
                let fv = opts.forward_via.unwrap();
                let fwd = self
                    .context(fv.forwarder)
                    .ok_or(NexusError::UnknownContext(fv.forwarder))?;
                let fdesc = fwd
                    .descriptor_table()
                    .get(mid)
                    .cloned()
                    .ok_or(NexusError::UnknownMethod(mid))?;
                table.push(fdesc);
            }
        }

        // Move readiness-capable sources out of the polled rotation: their
        // transports ring the engine doorbell on enqueue, so the unified
        // polling function only ever visits them when they have traffic.
        for mid in ready_methods {
            engine.arm_ready(mid);
        }

        let ctx = Arc::new(Context {
            info,
            fabric: Arc::downgrade(&self.inner),
            handlers: HandlerRegistry::new(),
            endpoints: Versioned::default(),
            next_endpoint: AtomicU64::new(1),
            table,
            poll: Mutex::new(engine),
            blocking: Mutex::new(Vec::new()),
            blocking_count: AtomicUsize::new(0),
            comm_cache: Mutex::new(HashMap::new()),
            policy: RwLock::new(Arc::new(FirstApplicable)),
            reselect: RwLock::new(None),
            reselect_on: AtomicBool::new(false),
            trace,
            shutdown: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
            transfer_deadline_ns: AtomicU64::new(DEFAULT_TRANSFER_DEADLINE.as_nanos() as u64),
            flush_list: Mutex::new(Vec::new()),
            flush_pending: AtomicBool::new(false),
            workers: Mutex::new(None),
            extensions: Mutex::new(HashMap::new()),
        });
        self.inner.contexts.write().insert(id, Arc::clone(&ctx));
        Ok(ctx)
    }

    /// Looks up a context by id.
    pub fn context(&self, id: ContextId) -> Option<Arc<Context>> {
        self.inner.contexts.read().get(&id).cloned()
    }

    /// All live contexts (unordered).
    pub fn contexts(&self) -> Vec<Arc<Context>> {
        self.inner.contexts.read().values().cloned().collect()
    }

    /// Number of live contexts.
    pub fn len(&self) -> usize {
        self.inner.contexts.read().len()
    }

    /// True if no contexts exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shuts down every context and refuses further creation.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        let ctxs: Vec<_> = self
            .inner
            .contexts
            .write()
            .drain()
            .map(|(_, c)| c)
            .collect();
        for c in ctxs {
            c.shutdown();
        }
    }
}

/// A connection a context promised to flush, with the link identity its
/// failover bookkeeping needs.
struct Listed {
    target: ContextId,
    method: MethodId,
    obj: Arc<dyn CommObject>,
}

/// An address space participating in multimethod communication.
pub struct Context {
    info: ContextInfo,
    fabric: Weak<FabricInner>,
    handlers: HandlerRegistry,
    endpoints: Versioned<EndpointId, Option<Attached>>,
    next_endpoint: AtomicU64,
    table: DescriptorTable,
    poll: Mutex<PollEngine>,
    blocking: Mutex<Vec<BlockingPoller>>,
    // Mirror of `blocking.len()`, maintained under that lock; lets the
    // progress pass skip the lock entirely in the common no-blocking case.
    blocking_count: AtomicUsize,
    comm_cache: Mutex<HashMap<(ContextId, MethodId), Arc<dyn CommObject>>>,
    policy: RwLock<Arc<dyn SelectionPolicy>>,
    reselect: RwLock<Option<ReselectConfig>>,
    /// `reselect.is_some()`, written under its write lock, so a send on a
    /// context that never configured re-selection costs one load. Relaxed:
    /// it publishes nothing (the config is read under the lock), and a
    /// stale value at most misses one send's count.
    reselect_on: AtomicBool,
    trace: Arc<Trace>,
    shutdown: AtomicBool,
    /// Dispatch rounds begun: progress passes and worker token services.
    /// A link that has not seen a new round since its last send may stage
    /// (see [`Context::send_with_failover`]); every 64th progress pass
    /// runs the deadline sweep over stripe assemblies and bulk transfers.
    rounds: AtomicU64,
    /// How long an incomplete transfer may sit, nanoseconds
    /// ([`Context::set_transfer_deadline`]).
    transfer_deadline_ns: AtomicU64,
    /// Connections holding frames this context staged, each listed once
    /// per owner claim (a `Staged::NeedsOwner` answer); flushed by the
    /// next dispatch round. A container lock: an entry is popped before
    /// its connection is flushed, so no guard spans a write.
    flush_list: Mutex<Vec<Listed>>,
    /// Set after a push onto `flush_list`, cleared by the flusher that
    /// drains it — a pass with nothing listed pays one load.
    flush_pending: AtomicBool,
    /// Sharded worker pool servicing this context's readiness tier when
    /// [`Context::start_workers`] is active; `None` means the single
    /// progress thread (or inline `progress` calls) does everything.
    workers: Mutex<Option<crate::shard::WorkerPool>>,
    /// Typed extension storage for protocol layers built on the context
    /// (the stripe assembler, the bulk engine's state).
    extensions: Mutex<HashMap<std::any::TypeId, Arc<dyn std::any::Any + Send + Sync>>>,
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("id", &self.info.id)
            .field("node", &self.info.node)
            .field("partition", &self.info.partition)
            .field("methods", &self.table.methods())
            .finish()
    }
}

impl Context {
    /// The context's id.
    pub fn id(&self) -> ContextId {
        self.info.id
    }

    /// Placement facts (id, node, partition).
    pub fn info(&self) -> ContextInfo {
        self.info
    }

    /// The descriptor table this context advertises (methods usable to
    /// reach it, fastest first).
    pub fn descriptor_table(&self) -> &DescriptorTable {
        &self.table
    }

    fn fabric(&self) -> Result<Arc<FabricInner>> {
        self.fabric.upgrade().ok_or(NexusError::ShutDown)
    }

    /// The module registry backing this context.
    pub fn registry(&self) -> Result<Arc<ModuleRegistry>> {
        Ok(Arc::clone(&self.fabric()?.registry))
    }

    // -- endpoints & handlers ------------------------------------------------

    /// Creates a new endpoint in this context.
    pub fn create_endpoint(&self) -> EndpointId {
        let id = EndpointId(self.next_endpoint.fetch_add(1, Ordering::Relaxed));
        self.endpoints.change(|m| m.insert(id, None));
        id
    }

    /// Attaches a local object to an endpoint, making startpoints bound to
    /// it global names for the object.
    pub fn attach(&self, ep: EndpointId, data: Attached) -> Result<()> {
        let found = self
            .endpoints
            .change(|m| m.get_mut(&ep).map(|a| *a = Some(data)));
        found.ok_or(NexusError::UnknownEndpoint(ep.0))
    }

    /// Destroys an endpoint. In-flight RSRs to it will fail at dispatch.
    pub fn destroy_endpoint(&self, ep: EndpointId) -> bool {
        self.endpoints.change(|m| m.remove(&ep).is_some())
    }

    /// Registers a handler procedure under `name`.
    pub fn register_handler<F>(&self, name: &str, f: F)
    where
        F: Fn(HandlerArgs<'_>) + Send + Sync + 'static,
    {
        self.handlers.register(name, f);
    }

    /// The handler registry (for enquiry and unregistration).
    pub fn handlers(&self) -> &HandlerRegistry {
        &self.handlers
    }

    // -- startpoints -----------------------------------------------------------

    /// Creates a startpoint bound to a local endpoint, carrying this
    /// context's descriptor table.
    pub fn startpoint_to(&self, ep: EndpointId) -> Result<Startpoint> {
        self.make_startpoint(ep, false)
    }

    /// Creates a *lightweight* startpoint bound to a local endpoint: its
    /// wire form omits the descriptor table (the receiver reconstructs it
    /// from the fabric), per the §3.1 optimization for tightly coupled
    /// systems.
    pub fn startpoint_to_lightweight(&self, ep: EndpointId) -> Result<Startpoint> {
        self.make_startpoint(ep, true)
    }

    fn make_startpoint(&self, ep: EndpointId, lightweight: bool) -> Result<Startpoint> {
        if !self.endpoints.read().contains_key(&ep) {
            return Err(NexusError::UnknownEndpoint(ep.0));
        }
        let mut sp = Startpoint::unbound();
        sp.add_link(Link::new(
            Target {
                context: self.info.id,
                endpoint: ep,
            },
            self.table.clone(),
            lightweight,
        ));
        Ok(sp)
    }

    /// Resolves the descriptor table of another context via the fabric —
    /// used when unpacking lightweight startpoints.
    pub fn lookup_descriptor_table(&self, ctx: ContextId) -> Result<DescriptorTable> {
        let fab = self.fabric()?;
        let c = fab
            .contexts
            .read()
            .get(&ctx)
            .cloned()
            .ok_or(NexusError::UnknownContext(ctx))?;
        Ok(c.descriptor_table().clone())
    }

    // -- selection ---------------------------------------------------------------

    /// Replaces the automatic selection policy (default:
    /// [`FirstApplicable`]).
    pub fn set_policy(&self, policy: Arc<dyn SelectionPolicy>) {
        *self.policy.write() = policy;
    }

    /// Name of the active selection policy (enquiry).
    pub fn policy_name(&self) -> &'static str {
        self.policy.read().name()
    }

    /// Enables cost-driven live link re-selection (the paper's §6
    /// "adaptive method selection"): every `check_every` successful sends
    /// on a link, the measured send cost of the current method is compared
    /// against the measured costs of the other applicable methods; after
    /// `consecutive` agreeing checks on the same cheaper method, the link
    /// migrates its communication object in place. `None` disables the
    /// mechanism (the default).
    pub fn set_reselection(&self, cfg: Option<ReselectConfig>) {
        let mut g = self.reselect.write();
        self.reselect_on.store(cfg.is_some(), Ordering::Relaxed);
        *g = cfg;
    }

    /// Current re-selection configuration (enquiry).
    pub fn reselection(&self) -> Option<ReselectConfig> {
        *self.reselect.read()
    }

    /// Enquiry: methods of `sp`'s first link applicable from this context,
    /// in priority order.
    pub fn applicable_methods(&self, sp: &Startpoint) -> Result<Vec<MethodId>> {
        let reg = self.registry()?;
        let link = sp.links().first().ok_or(NexusError::UnboundStartpoint)?;
        Ok(crate::selection::applicable_methods(
            &self.info,
            &link.table(),
            &reg,
        ))
    }

    /// Enquiry: the methods this context has receive sources for.
    pub fn enabled_methods(&self) -> Vec<MethodId> {
        self.poll.lock().methods()
    }

    /// Selects (if necessary) and returns the communication object for a
    /// link. This is where automatic vs manual selection and the
    /// communication-object cache come together.
    fn resolve_link(&self, link: &Link, pinned: Option<MethodId>) -> Result<Arc<SelectedMethod>> {
        {
            let chosen = link.chosen.lock();
            if let Some(sel) = chosen.as_ref() {
                if pinned.is_none_or(|p| p == sel.method) {
                    return Ok(Arc::clone(sel));
                }
            }
        }
        let reg = self.registry()?;
        let table = link.table();
        let method = match pinned {
            Some(p) => {
                let module = reg.resolve(p).ok_or(NexusError::UnknownMethod(p))?;
                let desc = table.get(p).ok_or(NexusError::MethodNotApplicable {
                    method: p,
                    target: link.target.context,
                })?;
                if !module.applicable(&self.info, desc) {
                    return Err(NexusError::MethodNotApplicable {
                        method: p,
                        target: link.target.context,
                    });
                }
                p
            }
            None => self.policy.read().select(&self.info, &table, &reg).ok_or(
                NexusError::NoApplicableMethod {
                    target: link.target.context,
                },
            )?,
        };
        self.select_into_link(link, method, &table)
    }

    /// Connects `method` for a link and installs it as the link's selection.
    fn select_into_link(
        &self,
        link: &Link,
        method: MethodId,
        table: &DescriptorTable,
    ) -> Result<Arc<SelectedMethod>> {
        let obj = self.connect_cached(link.target.context, method, table)?;
        Ok(self.install_selection(link, method, obj))
    }

    /// Stores `obj` as the link's selection for `method` (with its cached
    /// recording handle) and traces the method switch.
    pub(crate) fn install_selection(
        &self,
        link: &Link,
        method: MethodId,
        obj: Arc<dyn CommObject>,
    ) -> Arc<SelectedMethod> {
        let sel = Arc::new(SelectedMethod {
            method,
            obj,
            ltrace: self.trace.link(link.target.context, method),
        });
        let prev = link
            .chosen
            .lock()
            .replace(Arc::clone(&sel))
            .map(|s| s.method);
        if prev != Some(method) {
            self.trace.record_event(TraceEventKind::MethodSwitch {
                target: link.target.context,
                from: prev,
                to: method,
            });
        }
        sel
    }

    /// Returns the (possibly cached) communication object for
    /// (`target`, `method`), connecting if necessary.
    pub(crate) fn connect_cached(
        &self,
        target: ContextId,
        method: MethodId,
        table: &DescriptorTable,
    ) -> Result<Arc<dyn CommObject>> {
        if let Some(obj) = self.comm_cache.lock().get(&(target, method)) {
            return Ok(Arc::clone(obj));
        }
        let reg = self.registry()?;
        let module = reg
            .resolve(method)
            .ok_or(NexusError::UnknownMethod(method))?;
        let desc = table
            .get(method)
            .ok_or(NexusError::MethodNotApplicable { method, target })?;
        let obj = module.connect(&self.info, desc)?;
        self.comm_cache
            .lock()
            .insert((target, method), Arc::clone(&obj));
        Ok(obj)
    }

    /// Enquiry: number of distinct communication objects currently cached.
    pub fn cached_connections(&self) -> usize {
        self.comm_cache.lock().len()
    }

    // -- RSR issue ------------------------------------------------------------

    /// Issues a remote service request on `sp`: for each endpoint linked to
    /// the startpoint, transfers `payload` to the endpoint's context and
    /// invokes `handler` there (asynchronously; this call returns once the
    /// data is handed to each link's communication method).
    ///
    /// `Ok` means *accepted by the connection*. A method that stages (TCP)
    /// may hold the frame in the connection's staging buffer until this
    /// context's next dispatch round, the next write on the connection, or
    /// at most about 2 ms — the same promise as bytes already in a kernel
    /// send buffer: a connection that then fails loses them, and the
    /// failure is reported as a failover by whoever flushed it.
    pub fn rsr(&self, sp: &Startpoint, handler: &str, payload: Buffer) -> Result<()> {
        self.check_request(sp, handler)?;
        // One Rsr and one WireFrame serve every link: only the (Copy)
        // destination fields differ per link, and the frame body — which
        // depends solely on handler and payload — is encoded at most once
        // no matter how many links, methods, or failover retries are
        // involved. The handler name is interned here, once.
        let mut msg = Rsr::new(ContextId(0), EndpointId(0), handler, payload.into_bytes());
        let frame = WireFrame::new();
        for link in sp.links() {
            msg.dest = link.target.context;
            msg.endpoint = link.target.endpoint;
            self.send_with_failover(link, &msg, &frame)?;
        }
        // Hand the frame's storage back to the thread-local pool when no
        // transport kept a reference (the common case).
        frame.reclaim();
        Ok(())
    }

    /// What `rsr`, `rsr_bulk` and `scatter` refuse before sending anything:
    /// a shut-down context, an unbound startpoint, and a reserved (`#`)
    /// handler name.
    pub(crate) fn check_request(&self, sp: &Startpoint, handler: &str) -> Result<()> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(NexusError::ShutDown);
        }
        if sp.is_unbound() {
            return Err(NexusError::UnboundStartpoint);
        }
        if handler.starts_with('#') {
            return Err(NexusError::UnknownHandler(handler.to_owned()));
        }
        Ok(())
    }

    /// Sends one RSR over a link's selected method, failing over to the
    /// next applicable method when the connection errors (§1's "switch
    /// among alternative communication substrates in the event of error").
    /// Pinned links do not fail over — manual selection means the
    /// application took responsibility. Each failed method is excluded
    /// from re-selection and its cached connection is evicted; the chosen
    /// replacement sticks for subsequent sends.
    ///
    /// A send may stage (the permission [`CommObject::transfer`] takes)
    /// only if no dispatch round of this context has begun since the
    /// link's previous send — stage rule (a), the part only the context can
    /// judge: a reply sent from a handler, and the next request after a
    /// reply was awaited, always write through, so request/reply never
    /// waits for a flush. The connection judges the rest (TCP:
    /// `transports::tcp`, § Send). A `NeedsOwner` answer lists the
    /// connection for this context's next dispatch round
    /// ([`Context::flush_listed`]). A send reads the clock only for a
    /// consumer of the reading: re-selection's checks (if configured) or
    /// the `(link, method)` record's sample ([`LinkMethodTrace::sample`]);
    /// else it counts its size.
    pub(crate) fn send_with_failover(
        &self,
        link: &Link,
        msg: &Rsr,
        frame: &WireFrame,
    ) -> Result<()> {
        let wire = msg.wire_len();
        // One pin read serves the send loop, selection, and the
        // re-selection check below.
        let pinned_method = link.pin();
        let pinned = pinned_method.is_some();
        let reselect_on = self.reselect_on.load(Ordering::Relaxed);
        let round = self.rounds.load(Ordering::Relaxed);
        let stage = if link.last_round.load(Ordering::Relaxed) == round {
            Some(&*self.trace)
        } else {
            link.last_round.store(round, Ordering::Relaxed);
            None
        };
        // lint:allow(hot-path-alloc) empty Vec never allocates; it only grows after a send error
        let mut failed: Vec<MethodId> = Vec::new();
        loop {
            let sel = if failed.is_empty() {
                self.resolve_link(link, pinned_method)?
            } else {
                self.reselect_excluding(link, &failed)?
            };
            let start = (reselect_on || sel.ltrace.sample()).then(Instant::now);
            match sel.obj.transfer(msg, frame, &[], stage) {
                Ok(staged) => {
                    // Steady-state recording: atomics only, through the
                    // handle cached on the link's selection.
                    Self::note_send(&sel.ltrace, wire, start);
                    if staged == Staged::NeedsOwner {
                        self.list_for_flush(link.target.context, sel.method, &sel.obj);
                    }
                    if !pinned {
                        self.consider_reselect(link, sel.method);
                    }
                    return Ok(());
                }
                Err(e) => {
                    sel.obj.close();
                    link.invalidate();
                    let first =
                        self.fail_over_connection(link.target.context, sel.method, &sel.obj);
                    if !pinned {
                        failed.push(sel.method);
                    } else if first {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// The failover bookkeeping for a connection that errored on a send or
    /// a flush: evicted from the connection cache, counted, and recorded as
    /// a `Failover` event. A connection fails over once, by the error that
    /// finds it still cached; a later error on it (a send that meets it
    /// after a failed flush, or on another link) only re-selects, and this
    /// returns `false`. A striped object belongs to its link and is never
    /// cached, so each of its errors counts. A flush does not `close` the
    /// connection — that may block, and a flush can run on a worker — the
    /// broken socket is released with its last reference.
    fn fail_over_connection(
        &self,
        target: ContextId,
        method: MethodId,
        obj: &Arc<dyn CommObject>,
    ) -> bool {
        let evicted = {
            let mut cache = self.comm_cache.lock();
            let cached = cache
                .get(&(target, method))
                .is_some_and(|cached| Arc::ptr_eq(cached, obj));
            cached && cache.remove(&(target, method)).is_some()
        };
        if !evicted && method != MethodId::STRIPE {
            return false;
        }
        self.trace
            .method(method)
            .failovers
            .fetch_add(1, Ordering::Relaxed);
        self.trace.record_event(TraceEventKind::Failover {
            target,
            from: method,
        });
        true
    }

    /// Takes the owner's claim on a connection that staged a frame: it is
    /// flushed by this context's next dispatch round.
    fn list_for_flush(&self, target: ContextId, method: MethodId, obj: &Arc<dyn CommObject>) {
        self.flush_list.lock().push(Listed {
            target,
            method,
            obj: Arc::clone(obj),
        });
        // Release pairs with the flusher's Acquire swap: a flusher that
        // sees the flag set also sees the entry.
        self.flush_pending.store(true, Ordering::Release);
    }

    /// Flushes every connection this context has listed — at the start of
    /// each progress pass and after its dispatch loop, and after each
    /// worker token service (shutdown closes them instead, which writes
    /// what they hold). Each entry is popped under the list lock and
    /// flushed with no guard held. A failed flush is a failover of that
    /// connection; the first error is returned, to the pass that flushed.
    /// With nothing listed — every pass of a context that never staged —
    /// this is one inlined load.
    #[inline]
    pub(crate) fn flush_listed(&self) -> Result<()> {
        if !self.flush_pending.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.flush_owned()
    }

    #[cold]
    fn flush_owned(&self) -> Result<()> {
        if !self.flush_pending.swap(false, Ordering::Acquire) {
            return Ok(());
        }
        let mut first_err = None;
        loop {
            let next = self.flush_list.lock().pop();
            let Some(listed) = next else {
                break;
            };
            if let Err(e) = listed.obj.flush() {
                self.fail_over_connection(listed.target, listed.method, &listed.obj);
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Begins a dispatch round (a worker token service; progress passes
    /// count their own).
    pub(crate) fn begin_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed transport send on its `(link, method)`
    /// record — atomics only: its size, and if it was timed from `start`,
    /// its cost.
    fn note_send(ltrace: &LinkMethodTrace, wire: usize, start: Option<Instant>) {
        ltrace.send_bytes.record(wire as u64);
        if let Some(start) = start {
            let cost_ns = start.elapsed().as_nanos() as u64;
            ltrace.send_latency_ns.record(cost_ns);
            ltrace.send_cost_ns.record(cost_ns as f64);
        }
    }

    /// Cost-driven live re-selection (§6's proposed adaptive method
    /// selection, implemented): every `check_every` successful sends,
    /// compare the link's measured send cost against the measured costs
    /// of the other applicable methods; once `consecutive` checks agree
    /// on the same cheaper method, migrate the link's communication
    /// object in place. Unlike failover, the previous object is healthy
    /// and stays cached — this is a policy move, so no connection is torn
    /// down, and a concurrent send that still holds the old object
    /// completes on it (messages on two methods were never ordered).
    fn consider_reselect(&self, link: &Link, current: MethodId) {
        if !self.reselect_on.load(Ordering::Relaxed) {
            return;
        }
        let Some(cfg) = *self.reselect.read() else {
            return;
        };
        {
            let mut st = link.reselect.lock();
            st.sends_since_check += 1;
            if st.sends_since_check < cfg.check_every.max(1) {
                return;
            }
            st.sends_since_check = 0;
        }
        let Ok(reg) = self.registry() else {
            return;
        };
        let table = link.table();
        let cand = selection::reselect_candidate(
            &self.info,
            link.target.context,
            &table,
            &reg,
            &self.trace,
            current,
            &cfg,
        );
        let migrate_to = {
            let mut st = link.reselect.lock();
            match cand {
                Some(c) => {
                    if st.candidate == Some(c.method) {
                        st.streak += 1;
                    } else {
                        st.candidate = Some(c.method);
                        st.streak = 1;
                    }
                    if st.streak >= cfg.consecutive.max(1) {
                        st.candidate = None;
                        st.streak = 0;
                        Some(c.method)
                    } else {
                        None
                    }
                }
                None => {
                    st.candidate = None;
                    st.streak = 0;
                    None
                }
            }
        };
        let Some(to) = migrate_to else {
            return;
        };
        // select_into_link records the MethodSwitch trace event.
        let _ = self.select_into_link(link, to, &table);
    }

    /// Re-runs selection for a link with `excluded` methods removed, and
    /// stores the new choice on the link.
    fn reselect_excluding(
        &self,
        link: &Link,
        excluded: &[MethodId],
    ) -> Result<Arc<SelectedMethod>> {
        let reg = self.registry()?;
        let table = link.table();
        let policy = self.policy.read().clone();
        let wrapper = ExcludeMethods::new(policy, excluded.iter().copied());
        let method =
            wrapper
                .select(&self.info, &table, &reg)
                .ok_or(NexusError::NoApplicableMethod {
                    target: link.target.context,
                })?;
        self.select_into_link(link, method, &table)
    }

    // -- progress / dispatch -----------------------------------------------------

    /// Sets the skip_poll value for `method`: its receiver is probed on
    /// every `k`-th invocation of the unified polling function (§3.3).
    pub fn set_skip_poll(&self, method: MethodId, k: u64) -> bool {
        let (ok, before) = {
            // lint:allow(lock-order) name-link artifact: `eng.skip_poll` is the lock-free PollEngine accessor, not the Context wrapper that re-locks `poll`
            let mut eng = self.poll.lock();
            let before = eng.skip_poll(method);
            (eng.set_skip_poll(method, k), before)
        };
        let to = k.max(1);
        if ok && before != Some(to) {
            self.trace.record_event(TraceEventKind::SkipPollChange {
                method,
                from: before.unwrap_or(0),
                to,
            });
        }
        ok
    }

    /// Current skip_poll value for `method`.
    pub fn skip_poll(&self, method: MethodId) -> Option<u64> {
        self.poll.lock().skip_poll(method)
    }

    /// Enables adaptive skip_poll control for `method`: the skip value
    /// falls when the method carries traffic and grows while it is silent
    /// (the paper's proposed future refinement of §3.3, implemented).
    pub fn set_adaptive_skip_poll(
        &self,
        method: MethodId,
        cfg: crate::poll::AdaptiveSkipPoll,
    ) -> bool {
        self.poll.lock().set_adaptive(method, cfg)
    }

    /// Moves `method` out of the poll rotation into a dedicated blocking
    /// receive thread (the refinement for systems whose transport supports
    /// blocking, §3.3). Fails if the module does not support blocking.
    pub fn start_blocking_poller(&self, method: MethodId) -> Result<()> {
        let reg = self.registry()?;
        let module = reg
            .resolve(method)
            .ok_or(NexusError::UnknownMethod(method))?;
        if !module.supports_blocking() {
            return Err(NexusError::BadParam {
                key: "blocking".to_owned(),
                reason: format!("method {method} does not support blocking receives"),
            });
        }
        let receiver = self
            .poll
            .lock()
            .remove_source(method)
            .ok_or(NexusError::UnknownMethod(method))?;
        let poller = BlockingPoller::spawn(
            method,
            receiver,
            Duration::from_millis(10),
            Arc::clone(&self.trace),
        )?;
        {
            let mut blocking = self.blocking.lock();
            blocking.push(poller);
            self.blocking_count.store(blocking.len(), Ordering::Release);
        }
        Ok(())
    }

    /// Runs one pass of the unified polling function and dispatches every
    /// retrieved RSR (message-driven execution). Returns the number of
    /// messages handled. Handlers run *without* internal locks held, so
    /// they may freely issue RSRs or even call `progress` again.
    pub fn progress(&self) -> Result<usize> {
        thread_local! {
            /// Reused pass outcome: a steady-state progress pass performs
            /// no allocation. Reentrant passes (a handler calling
            /// `progress` while the outer pass still borrows the scratch)
            /// fall back to a fresh outcome.
            static SCRATCH: std::cell::RefCell<PollOutcome> =
                std::cell::RefCell::new(PollOutcome::default());
        }
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut out) => self.progress_with(&mut out),
            Err(_) => self.progress_with(&mut PollOutcome::default()),
        })
    }

    fn progress_with(&self, out: &mut PollOutcome) -> Result<usize> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(NexusError::ShutDown);
        }
        out.clear();
        let round = self.rounds.fetch_add(1, Ordering::Relaxed);
        // A new round: what was staged since the last one leaves first.
        let mut first_err = self.flush_listed().err();
        // Drain blocking pollers first: their thread already paid the
        // wait. The atomic count keeps the (typical) no-poller case free
        // of the lock round trip.
        if self.blocking_count.load(Ordering::Acquire) > 0 {
            let blocking = self.blocking.lock();
            for p in blocking.iter() {
                while let Some(m) = p.try_pop() {
                    out.messages.push((p.method(), m));
                }
            }
        }
        {
            let mut eng = self.poll.lock();
            eng.poll_once_into(out);
        }
        // Per-probe counters and poll-cost EWMAs were recorded lock-free
        // inside the engine, through the handles its sources cache.
        for sc in &out.skip_changes {
            self.trace.record_event(TraceEventKind::SkipPollChange {
                method: sc.method,
                from: sc.from,
                to: sc.to,
            });
        }
        // A transport error from one source must not swallow traffic the
        // pass retrieved: dispatch everything first, then report the
        // earliest error (poll errors before dispatch errors). Errors that
        // lose the race for the return value are still observable: they go
        // into the event ring as `PollError` events, so a pass where two
        // sources fail at once does not hide the second failure.
        for (method, e) in out.errors.drain(..) {
            if first_err.is_none() {
                first_err = Some(e);
            } else {
                self.note_poll_error(method);
            }
        }
        let n = out.messages.len();
        // Recv histograms were already recorded where the message was
        // retrieved (poll engine source or blocking-poller thread),
        // through handles cached there; here we only run the handlers.
        for (method, msg) in out.messages.drain(..) {
            if let Err(e) = self.deliver(method, msg) {
                first_err.get_or_insert(e);
            }
        }
        // What the handlers staged leaves before the pass returns.
        if let Err(e) = self.flush_listed() {
            first_err.get_or_insert(e);
        }
        // Periodic housekeeping rides the progress loop: every 64th pass
        // evicts idle chunk transfers and expires bulk deadlines, so a
        // dead sender costs a bounded amount of memory and a bounded
        // wait — never a hang.
        if round & 63 == 0 {
            self.sweep_deadlines();
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(n),
        }
    }

    /// Calls [`Context::progress`] until `pred()` is true or `timeout`
    /// elapses. Returns whether the predicate was satisfied.
    pub fn progress_until<F: FnMut() -> bool>(&self, mut pred: F, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            match self.progress() {
                Ok(n) if n > 0 => {}
                // A shut-down context can never make progress again;
                // spinning out the rest of the timeout would only burn a
                // core. One last predicate check covers a racing waker.
                Err(NexusError::ShutDown) => return pred(),
                // Any other error may be a single failing source among
                // several; keep waiting — another method can still
                // satisfy the predicate before the deadline.
                _ => std::thread::yield_now(),
            }
        }
    }

    /// Spawns a thread that drives this context's progress until the
    /// returned guard is dropped. Convenience for applications that want
    /// message-driven execution without structuring their own loop; the
    /// thread yields the CPU whenever a pass finds nothing (important on
    /// machines with few hardware threads).
    pub fn spawn_progress_thread(self: &Arc<Self>) -> ProgressGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("nexus-progress-{}", self.info.id))
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    match ctx.progress() {
                        Ok(n) if n > 0 => {}
                        // Shutdown is terminal: exit instead of spinning
                        // until the guard is dropped.
                        Err(NexusError::ShutDown) => break,
                        _ => std::thread::yield_now(),
                    }
                }
            })
            .expect("spawn progress thread");
        ProgressGuard {
            stop,
            handle: Some(handle),
        }
    }

    /// Dispatches one received RSR: runs the named handler if the RSR is
    /// addressed to this context, otherwise acts as a forwarding node and
    /// re-sends it to its destination over a different method.
    pub(crate) fn dispatch(&self, arrival: MethodId, msg: Rsr) -> Result<()> {
        if msg.dest != self.info.id {
            return self.forward(arrival, msg);
        }
        // Reserved runtime handlers ('#'-prefixed: stripe chunks and bulk
        // protocol traffic) are intercepted before endpoint lookup — a
        // chunk is addressed to whatever endpoint the original RSR
        // targeted, but it is the *reassembled* message that must resolve
        // there (and the bulk handlers repurpose the endpoint field as
        // protocol state outright). Any other reserved name is refused
        // before a protocol's state exists.
        if msg.handler.as_bytes().first() == Some(&b'#') {
            return match msg.handler.as_str() {
                stripe::STRIPE_HANDLER => self.stripe_ingest(arrival, msg),
                bulk::BULK_HANDLER => self.bulk_announce(msg),
                bulk::BULK_GET_HANDLER => self.bulk_pull_service(msg),
                bulk::BULK_DAT_HANDLER => self.bulk_data(arrival, msg),
                bulk::BULK_CHK_HANDLER => self.bulk_chunk(arrival, msg),
                _ => Err(NexusError::UnknownHandler(msg.handler.to_string())),
            };
        }
        let (ep, handler) =
            handler::resolve(&self.endpoints, &self.handlers, msg.endpoint, &msg.handler)?;
        let mut buf = Buffer::from_bytes(msg.payload);
        handler(HandlerArgs {
            context: self,
            endpoint: ep,
            buffer: &mut buf,
        });
        Ok(())
    }

    /// Forwarding-node path: re-send an RSR addressed to another context,
    /// excluding the method it arrived on (which the destination cannot
    /// receive directly — that is why the traffic came here).
    fn forward(&self, arrival: MethodId, mut msg: Rsr) -> Result<()> {
        if msg.ttl == 0 {
            return Err(NexusError::Decode("RSR TTL exhausted while forwarding"));
        }
        msg.ttl -= 1;
        let table = self.lookup_descriptor_table(msg.dest)?;
        let reg = self.registry()?;
        let policy = ExcludeMethods::new(FirstApplicable, [arrival]);
        let method = policy
            .select(&self.info, &table, &reg)
            .ok_or(NexusError::NoApplicableMethod { target: msg.dest })?;
        let obj = self.connect_cached(msg.dest, method, &table)?;
        // A fresh frame per forwarded message: the decremented ttl lives
        // in the per-send header, so this still encodes the body at most
        // once even if the message hops onward over a wire transport.
        let frame = WireFrame::new();
        let start = Some(Instant::now());
        obj.send(&msg, &frame)?;
        // A forwarded send is a send on the (destination, method) link like
        // any other, and always timed: enquiries and re-selection see its cost.
        Self::note_send(&self.trace.link(msg.dest, method), msg.wire_len(), start);
        frame.reclaim();
        self.trace
            .method(arrival)
            .forwards
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // -- transfer deadlines -------------------------------------------------------

    /// Sets how long an incomplete transfer may sit (default 5 s): a stripe
    /// or bulk-chunk transfer whose sender goes quiet that long is evicted,
    /// and a bulk region this context exposes, or a pull it requests,
    /// expires that long after it began. Each surfaces as a trace event
    /// ([`TraceEventKind::StripeIdleEvict`], [`TraceEventKind::BulkTimeout`]),
    /// never a hang.
    pub fn set_transfer_deadline(&self, deadline: Duration) {
        self.transfer_deadline_ns
            .store(deadline.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The deadline [`Context::set_transfer_deadline`] set.
    pub(crate) fn transfer_deadline(&self) -> Duration {
        Duration::from_nanos(self.transfer_deadline_ns.load(Ordering::Relaxed))
    }

    /// Every 64th progress pass: the stripe and bulk halves of the deadline
    /// sweep, for the protocols this context has actually used.
    fn sweep_deadlines(&self) {
        let deadline = self.transfer_deadline();
        if let Some(st) = self.try_extension::<StripeState>() {
            st.sweep(&self.trace, deadline);
        }
        if let Some(bs) = self.try_extension::<BulkState>() {
            bs.sweep(&self.trace, deadline);
        }
    }

    /// Scatter collective (CommBench's striped-scatter root half): splits
    /// `payload` into one contiguous piece per link of `sp` — even split,
    /// earlier links absorbing the remainder — and sends piece *i* to link
    /// *i* as an ordinary RSR on `handler`. Pieces are zero-copy views of
    /// the payload; combined with [`Context::set_striped`] each piece is
    /// itself striped across that link's rails.
    pub fn scatter(&self, sp: &Startpoint, handler: &str, payload: Buffer) -> Result<()> {
        self.check_request(sp, handler)?;
        let bytes = payload.into_bytes();
        let links = sp.links();
        let each = bytes.len() / links.len();
        let rem = bytes.len() % links.len();
        let mut msg = Rsr::new(ContextId(0), EndpointId(0), handler, Bytes::new());
        let mut off = 0usize;
        for (i, link) in links.iter().enumerate() {
            let len = each + usize::from(i < rem);
            msg.dest = link.target.context;
            msg.endpoint = link.target.endpoint;
            msg.payload = bytes.slice(off..off + len);
            off += len;
            // Per-link frames: unlike a multicast, every link carries a
            // different body.
            let frame = WireFrame::new();
            let sent = self.send_with_failover(link, &msg, &frame);
            frame.reclaim();
            sent?;
        }
        Ok(())
    }

    // -- sharded workers ----------------------------------------------------------

    /// Moves this context's readiness tier onto a pool of `n` shard
    /// worker threads: doorbells route to per-worker shards and both the
    /// drain and the handler run on the worker that pops the token.
    /// Returns the number of sources adopted (0 if nothing is armed).
    ///
    /// The polled tier (and blocking pollers) stay with `progress`;
    /// calling `progress` concurrently remains valid — it simply no
    /// longer sees the adopted sources. Idempotent in the sense that a
    /// second call stops the previous pool first.
    pub fn start_workers(self: &Arc<Self>, n: usize) -> usize {
        self.stop_workers();
        let pool = crate::shard::WorkerPool::new(n);
        let adopted = pool.adopt(self);
        *self.workers.lock() = Some(pool);
        adopted
    }

    /// Stops the shard workers (if any) and re-arms their sources back
    /// into this context's own poll engine, restoring single-threaded
    /// progress semantics.
    pub fn stop_workers(&self) {
        // Take the pool out first, join outside the lock: a worker mid
        // dispatch can call back into the context, and `into_sources`
        // joins those threads (PR 6 rule — never hold a lock across a
        // join or close).
        let pool = self.workers.lock().take();
        let Some(pool) = pool else { return };
        for (method, ctx, receiver) in pool.into_sources() {
            match ctx.upgrade() {
                Some(c) => c.restore_source(method, receiver),
                None => {
                    let mut r = receiver;
                    r.close();
                }
            }
        }
    }

    /// Worker-pool snapshot of per-shard service counters, if workers
    /// are running.
    pub fn worker_stats(&self) -> Option<Vec<crate::shard::ShardSnapshot>> {
        self.workers.lock().as_ref().map(|p| p.shard_stats())
    }

    /// Removes this context's armed readiness-tier sources from the
    /// engine and returns them for adoption by a worker pool.
    pub(crate) fn release_armed_sources(&self) -> Vec<(MethodId, Box<dyn CommReceiver>)> {
        self.poll.lock().take_armed()
    }

    /// Re-installs a source released by [`Context::release_armed_sources`]
    /// (or refused by a pool): back into the engine, re-armed into the
    /// readiness tier.
    pub(crate) fn restore_source(&self, method: MethodId, receiver: Box<dyn CommReceiver>) {
        let mut eng = self.poll.lock();
        eng.add_source(method, receiver);
        eng.arm_ready(method);
    }

    /// Delivers one drained message, identically whichever thread drained
    /// it: dispatches, and surfaces a dispatch error as a `PollError`
    /// event. The error is also returned, for the progress pass that can
    /// carry it to its caller (a shard worker has none and drops it).
    pub(crate) fn deliver(&self, method: MethodId, msg: Rsr) -> Result<()> {
        let dispatched = self.dispatch(method, msg);
        if dispatched.is_err() {
            self.note_poll_error(method);
        }
        dispatched
    }

    /// Surfaces a receive-side error that no caller will be handed (one
    /// that lost the race for a pass's return value, or happened on a
    /// worker thread) as a `PollError` event.
    pub(crate) fn note_poll_error(&self, method: MethodId) {
        self.trace.record_event(TraceEventKind::PollError {
            method,
            consecutive: 1,
        });
    }

    // -- enquiry / shutdown -------------------------------------------------------

    /// The context's instrument (enquiry): per-method counters
    /// (`trace().snapshot_method(m)`), per-`(link, method)` latency/size
    /// histograms, measured poll-cost EWMAs, and the event ring.
    /// `self.trace().render()` exports it as plain text.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enquiry: measured cost estimate for `method` — the poll-cost EWMA
    /// from the unified polling function and the send-cost EWMA across
    /// this context's links using the method. Values are `None` until the
    /// runtime has taken the corresponding measurement.
    pub fn method_cost_estimate(&self, method: MethodId) -> MethodCostEstimate {
        selection::method_cost_estimate(&self.trace, method)
    }

    /// Enquiry: distribution of the timed transport sends' latency (ns) on
    /// the link to `target` over `method` (see [`LinkMethodTrace`] for which
    /// sends are timed), or `None` if nothing has been sent that way.
    pub fn link_latency(&self, target: ContextId, method: MethodId) -> Option<HistogramSummary> {
        self.trace
            .get_link(target, method)
            .and_then(|t| t.send_latency_ns.summary())
    }

    /// Returns this context's extension of type `T`, creating it with
    /// `init` on first use. Protocol layers (the stripe and bulk engines)
    /// use this for per-context plumbing without a global registry.
    pub fn extension<T, F>(&self, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let key = std::any::TypeId::of::<T>();
        if let Some(e) = self.extensions.lock().get(&key) {
            return Arc::clone(e).downcast::<T>().expect("keyed by TypeId");
        }
        // Build outside the lock: init may call back into the context.
        let value = Arc::new(init());
        let mut g = self.extensions.lock();
        let entry = g
            .entry(key)
            .or_insert_with(|| Arc::clone(&value) as Arc<dyn std::any::Any + Send + Sync>);
        Arc::clone(entry).downcast::<T>().expect("keyed by TypeId")
    }

    /// Returns this context's extension of type `T` only if it already
    /// exists. The periodic sweep uses this so contexts that never
    /// touched a subsystem pay nothing for it.
    pub(crate) fn try_extension<T>(&self) -> Option<Arc<T>>
    where
        T: Send + Sync + 'static,
    {
        let key = std::any::TypeId::of::<T>();
        self.extensions
            .lock()
            .get(&key)
            .map(|e| Arc::clone(e).downcast::<T>().expect("keyed by TypeId"))
    }

    /// Stops receive processing and releases transport resources.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        // Shard workers first: they are the other threads still driving
        // receivers, and the pool's shutdown services pending doorbells,
        // joins the workers, and closes the adopted receivers — all
        // before the engine below is drained. Taken out of the mutex and
        // shut down with no lock held (workers call back into `self`).
        let pool = self.workers.lock().take();
        if let Some(pool) = pool {
            pool.shutdown();
        }
        // Drain under the lock, close after releasing it: receiver close()
        // runs transport code that can block, and holding the engine lock
        // through that would wedge any concurrent progress pass for the
        // whole shutdown (and deadlock outright if a closing thread ever
        // needs the engine).
        let receivers = self.poll.lock().drain_sources();
        for mut r in receivers {
            r.close();
        }
        self.blocking.lock().clear(); // Drop impl stops the threads.
        self.blocking_count.store(0, Ordering::Release);
        // Every listed connection is also cached, unless it failed over
        // and lost what it held: closing the cache writes what is staged,
        // so the owner claims are simply released.
        let cache = std::mem::take(&mut *self.comm_cache.lock());
        for obj in cache.values() {
            obj.close();
        }
        self.flush_list.lock().clear();
    }
}

impl Drop for Context {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Stops and joins a context's progress thread when dropped.
pub struct ProgressGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressGuard {
    /// Stops the progress thread now (equivalent to dropping the guard).
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ProgressGuard {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Default for [`Context::set_transfer_deadline`].
const DEFAULT_TRANSFER_DEADLINE: Duration = Duration::from_secs(5);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::test_support::TestModule;
    use std::sync::atomic::AtomicU32;

    /// Fabric with partition-scoped "mpl" (rank 10) and universal "tcp"
    /// (rank 30).
    fn fabric() -> Fabric {
        let f = Fabric::new();
        f.registry()
            .register(Arc::new(TestModule::new(MethodId::MPL, "mpl", 10, true)));
        f.registry()
            .register(Arc::new(TestModule::new(MethodId::TCP, "tcp", 30, false)));
        f
    }

    #[test]
    fn context_descriptor_table_is_fastest_first() {
        let f = fabric();
        let c = f.create_context().unwrap();
        assert_eq!(
            c.descriptor_table().methods(),
            vec![MethodId::MPL, MethodId::TCP]
        );
        assert_eq!(c.enabled_methods(), vec![MethodId::MPL, MethodId::TCP]);
    }

    #[test]
    fn rsr_same_partition_picks_mpl_and_delivers() {
        let f = fabric();
        let a = f.create_context_at(NodeId(0), PartitionId(1)).unwrap();
        let b = f.create_context_at(NodeId(1), PartitionId(1)).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("hit", move |args| {
            assert_eq!(args.buffer.get_u32().unwrap(), 77);
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        let mut buf = Buffer::new();
        buf.put_u32(77);
        a.rsr(&sp, "hit", buf).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::MPL));
        assert!(b.progress_until(|| hits.load(Ordering::Relaxed) == 1, Duration::from_secs(1)));
        assert_eq!(a.trace().snapshot_method(MethodId::MPL).sends, 1);
        assert_eq!(b.trace().snapshot_method(MethodId::MPL).recvs, 1);
    }

    #[test]
    fn rsr_cross_partition_falls_back_to_tcp() {
        let f = fabric();
        let a = f.create_context_at(NodeId(0), PartitionId(1)).unwrap();
        let b = f.create_context_at(NodeId(8), PartitionId(2)).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("hit", move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::TCP));
        assert!(b.progress_until(|| hits.load(Ordering::Relaxed) == 1, Duration::from_secs(1)));
    }

    #[test]
    fn manual_pin_overrides_automatic_selection() {
        let f = fabric();
        let a = f.create_context_at(NodeId(0), PartitionId(1)).unwrap();
        let b = f.create_context_at(NodeId(1), PartitionId(1)).unwrap();
        b.register_handler("hit", |_| {});
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        sp.set_method(MethodId::TCP);
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::TCP));
        assert_eq!(a.trace().snapshot_method(MethodId::TCP).sends, 1);
        // Unpin: next send re-selects the faster method.
        sp.clear_method();
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::MPL));
    }

    #[test]
    fn pin_to_inapplicable_method_errors() {
        let f = fabric();
        let a = f.create_context_at(NodeId(0), PartitionId(1)).unwrap();
        let b = f.create_context_at(NodeId(9), PartitionId(2)).unwrap();
        b.register_handler("hit", |_| {});
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        sp.set_method(MethodId::MPL); // different partition: not applicable
        match a.rsr(&sp, "hit", Buffer::new()) {
            Err(NexusError::MethodNotApplicable { method, .. }) => {
                assert_eq!(method, MethodId::MPL)
            }
            other => panic!("expected MethodNotApplicable, got {other:?}"),
        }
    }

    #[test]
    fn comm_objects_are_shared_between_startpoints() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        b.register_handler("hit", |_| {});
        let ep1 = b.create_endpoint();
        let ep2 = b.create_endpoint();
        let sp1 = b.startpoint_to(ep1).unwrap();
        let sp2 = b.startpoint_to(ep2).unwrap();
        a.rsr(&sp1, "hit", Buffer::new()).unwrap();
        a.rsr(&sp2, "hit", Buffer::new()).unwrap();
        // Same (target context, method): one cached connection.
        assert_eq!(a.cached_connections(), 1);
    }

    #[test]
    fn multicast_startpoint_delivers_to_all_endpoints() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let c = f.create_context().unwrap();
        let count = Arc::new(AtomicU32::new(0));
        for ctx in [&b, &c] {
            let k = Arc::clone(&count);
            ctx.register_handler("hit", move |_| {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        let ep_b = b.create_endpoint();
        let ep_c = c.create_endpoint();
        let mut sp = b.startpoint_to(ep_b).unwrap();
        sp.merge(&c.startpoint_to(ep_c).unwrap());
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        b.progress().unwrap();
        c.progress().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn startpoint_travels_inside_rsr_and_replies_flow_back() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        // a sets up a reply endpoint and ships its startpoint to b; b's
        // handler unpacks it and RSRs back.
        let got = Arc::new(AtomicU32::new(0));
        let g = Arc::clone(&got);
        a.register_handler("reply", move |args| {
            g.store(args.buffer.get_u32().unwrap(), Ordering::Relaxed);
        });
        b.register_handler("request", move |args| {
            let mut sp = Startpoint::unpack(args.buffer, args.context).unwrap();
            let x = args.buffer.get_u32().unwrap();
            let mut reply = Buffer::new();
            reply.put_u32(x * 2);
            args.context.rsr(&sp, "reply", reply).unwrap();
            sp.unbind(sp.targets()[0]); // exercise unbind on the copy
        });
        let ep_a = a.create_endpoint();
        let reply_sp = a.startpoint_to(ep_a).unwrap();
        let ep_b = b.create_endpoint();
        let req_sp = b.startpoint_to(ep_b).unwrap();
        let mut buf = Buffer::new();
        reply_sp.pack(&mut buf);
        buf.put_u32(21);
        a.rsr(&req_sp, "request", buf).unwrap();
        b.progress().unwrap();
        assert!(a.progress_until(|| got.load(Ordering::Relaxed) == 42, Duration::from_secs(1)));
    }

    #[test]
    fn lightweight_startpoint_resolves_table_from_fabric() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let ep = b.create_endpoint();
        let sp = b.startpoint_to_lightweight(ep).unwrap();
        let mut buf = Buffer::new();
        sp.pack(&mut buf);
        let sp2 = Startpoint::unpack(&mut buf, &a).unwrap();
        assert_eq!(
            sp2.links()[0].table().methods(),
            b.descriptor_table().methods()
        );
    }

    #[test]
    fn forwarding_node_relays_to_destination() {
        let f = fabric();
        // Forwarder and worker share partition 1; the external context is
        // in partition 2 and can only use TCP. The worker does not enable
        // TCP itself; its TCP descriptor routes through the forwarder.
        let forwarder = f.create_context_at(NodeId(0), PartitionId(1)).unwrap();
        let worker = f
            .create_context_with(ContextOpts {
                node: NodeId(1),
                partition: PartitionId(1),
                methods: Some(vec![MethodId::MPL]),
                forward_via: Some(ForwardVia {
                    method: MethodId::TCP,
                    forwarder: forwarder.id(),
                }),
            })
            .unwrap();
        let external = f.create_context_at(NodeId(9), PartitionId(2)).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        worker.register_handler("hit", move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = worker.create_endpoint();
        let sp = worker.startpoint_to(ep).unwrap();
        // The worker's table advertises MPL (own) + TCP (via forwarder).
        assert_eq!(
            worker.descriptor_table().methods(),
            vec![MethodId::MPL, MethodId::TCP]
        );
        external.rsr(&sp, "hit", Buffer::new()).unwrap();
        // Message lands at the forwarder over TCP...
        forwarder.progress().unwrap();
        assert_eq!(forwarder.trace().snapshot_method(MethodId::TCP).forwards, 1);
        // The relayed send is recorded on the forwarder's (worker, MPL)
        // link like any send it originated (pre-fix: counted, but with no
        // link trace — no latency, nothing for re-selection to compare).
        let relayed = forwarder.trace().snapshot_method(MethodId::MPL);
        assert_eq!((relayed.sends, relayed.forwards), (1, 0));
        let lat = forwarder.link_latency(worker.id(), MethodId::MPL);
        assert_eq!(lat.expect("forwarded send is traced").count, 1);
        // ...and reaches the worker over MPL.
        assert!(worker.progress_until(|| hits.load(Ordering::Relaxed) == 1, Duration::from_secs(1)));
        assert_eq!(worker.trace().snapshot_method(MethodId::MPL).recvs, 1);
    }

    #[test]
    fn unknown_handler_is_an_error_at_dispatch() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        a.rsr(&sp, "nope", Buffer::new()).unwrap();
        match b.progress() {
            Err(NexusError::UnknownHandler(h)) => assert_eq!(h, "nope"),
            other => panic!("expected UnknownHandler, got {other:?}"),
        }
    }

    #[test]
    fn destroyed_endpoint_fails_dispatch() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        b.register_handler("hit", |_| {});
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        assert!(b.destroy_endpoint(ep));
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        assert!(matches!(b.progress(), Err(NexusError::UnknownEndpoint(_))));
    }

    #[test]
    fn unbound_startpoint_rsr_errors() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let sp = Startpoint::unbound();
        assert!(matches!(
            a.rsr(&sp, "x", Buffer::new()),
            Err(NexusError::UnboundStartpoint)
        ));
    }

    #[test]
    fn restricting_methods_limits_the_table() {
        let f = fabric();
        let c = f
            .create_context_with(ContextOpts {
                methods: Some(vec![MethodId::TCP]),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(c.descriptor_table().methods(), vec![MethodId::TCP]);
        let bad = f.create_context_with(ContextOpts {
            methods: Some(vec![MethodId::UDP]),
            ..Default::default()
        });
        assert!(matches!(bad, Err(NexusError::UnknownMethod(_))));
    }

    #[test]
    fn endpoint_attachment_reaches_handlers() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let seen = Arc::new(AtomicU32::new(0));
        let s = Arc::clone(&seen);
        b.register_handler("read", move |args| {
            let v = args.endpoint.attached_as::<AtomicU32>().unwrap();
            s.store(v.load(Ordering::Relaxed), Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        b.attach(ep, Arc::new(AtomicU32::new(123))).unwrap();
        let sp = b.startpoint_to(ep).unwrap();
        a.rsr(&sp, "read", Buffer::new()).unwrap();
        b.progress().unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 123);
    }

    #[test]
    fn shutdown_refuses_further_work() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        b.register_handler("hit", |_| {});
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        f.shutdown();
        assert!(matches!(
            a.rsr(&sp, "hit", Buffer::new()),
            Err(NexusError::ShutDown)
        ));
        assert!(matches!(a.progress(), Err(NexusError::ShutDown)));
        assert!(f.create_context().is_err());
    }

    #[test]
    fn progress_thread_drives_delivery() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("hit", move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        let guard = b.spawn_progress_thread();
        for _ in 0..50 {
            a.rsr(&sp, "hit", Buffer::new()).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::Relaxed) < 50 {
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        guard.stop();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn forwarding_loop_is_cut_by_ttl() {
        // Two contexts that each claim the other as their TCP forwarder:
        // a message neither can deliver bounces until the TTL kills it.
        let f = fabric();
        let x = f.create_context_at(NodeId(0), PartitionId(1)).unwrap();
        let y = f.create_context_at(NodeId(1), PartitionId(1)).unwrap();
        // Craft an RSR addressed to a third, nonexistent context and
        // inject it at x as if it had arrived over TCP.
        let msg = Rsr::new(
            ContextId(99),
            crate::endpoint::EndpointId(1),
            "h",
            bytes::Bytes::new(),
        );
        // x forwarding fails because context 99 does not exist.
        assert!(matches!(
            x.dispatch(MethodId::TCP, msg),
            Err(NexusError::UnknownContext(_))
        ));
        // A zero-TTL message is dropped with a decode error, never re-sent.
        let mut dead = Rsr::new(
            y.id(),
            crate::endpoint::EndpointId(1),
            "h",
            bytes::Bytes::new(),
        );
        dead.ttl = 0;
        assert!(matches!(
            x.dispatch(MethodId::TCP, dead),
            Err(NexusError::Decode(_))
        ));
    }

    #[test]
    fn concurrent_senders_and_receiver_threads() {
        // 4 sender contexts hammer one receiver from their own threads
        // while the receiver progresses on another; nothing is lost.
        let f = fabric();
        let rx = f.create_context().unwrap();
        let total = Arc::new(AtomicU32::new(0));
        {
            let t = Arc::clone(&total);
            rx.register_handler("n", move |_| {
                t.fetch_add(1, Ordering::Relaxed);
            });
        }
        let ep = rx.create_endpoint();
        const PER_SENDER: u32 = 200;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let tx = f.create_context().unwrap();
                let sp = rx.startpoint_to(ep).unwrap();
                s.spawn(move || {
                    for _ in 0..PER_SENDER {
                        tx.rsr(&sp, "n", Buffer::new()).unwrap();
                    }
                });
            }
            let rx = Arc::clone(&rx);
            let t = Arc::clone(&total);
            s.spawn(move || {
                assert!(rx.progress_until(
                    || t.load(Ordering::Relaxed) == 4 * PER_SENDER,
                    Duration::from_secs(30),
                ));
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * PER_SENDER);
    }

    #[test]
    fn send_failure_fails_over_to_next_method() {
        use crate::module::fault_support::FlakyModule;
        let f = Fabric::new();
        let flaky = Arc::new(FlakyModule::new(MethodId::MPL, "flaky-mpl", 10));
        f.registry().register(Arc::clone(&flaky) as _);
        f.registry()
            .register(Arc::new(TestModule::new(MethodId::TCP, "tcp", 30, false)));
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("hit", move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        // First send: healthy fast path.
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::MPL));
        // Break the fast path: the next RSR must fail over to TCP and
        // still be delivered.
        flaky.set_broken(true);
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::TCP));
        assert!(b.progress_until(|| hits.load(Ordering::Relaxed) == 2, Duration::from_secs(1)));
        assert_eq!(a.trace().snapshot_method(MethodId::MPL).failovers, 1);
        // The replacement sticks: a third send goes straight over TCP with
        // no further failed attempts on the broken method.
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        assert_eq!(a.trace().snapshot_method(MethodId::MPL).failovers, 1);
        assert_eq!(a.trace().snapshot_method(MethodId::TCP).sends, 2);
    }

    #[test]
    fn pinned_link_does_not_fail_over() {
        use crate::module::fault_support::FlakyModule;
        let f = Fabric::new();
        let flaky = Arc::new(FlakyModule::new(MethodId::MPL, "flaky-mpl", 10));
        flaky.set_broken(true);
        f.registry().register(Arc::clone(&flaky) as _);
        f.registry()
            .register(Arc::new(TestModule::new(MethodId::TCP, "tcp", 30, false)));
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        b.register_handler("hit", |_| {});
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        sp.set_method(MethodId::MPL);
        assert!(matches!(
            a.rsr(&sp, "hit", Buffer::new()),
            Err(NexusError::ConnectionClosed)
        ));
    }

    #[test]
    fn failover_with_no_alternative_reports_no_applicable_method() {
        use crate::module::fault_support::FlakyModule;
        let f = Fabric::new();
        let flaky = Arc::new(FlakyModule::new(MethodId::MPL, "flaky-mpl", 10));
        flaky.set_broken(true);
        f.registry().register(Arc::clone(&flaky) as _);
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        b.register_handler("hit", |_| {});
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        assert!(matches!(
            a.rsr(&sp, "hit", Buffer::new()),
            Err(NexusError::NoApplicableMethod { .. })
        ));
    }

    #[test]
    fn skip_poll_is_settable_per_context() {
        let f = fabric();
        let c = f.create_context().unwrap();
        assert!(c.set_skip_poll(MethodId::TCP, 20));
        assert_eq!(c.skip_poll(MethodId::TCP), Some(20));
        assert_eq!(c.skip_poll(MethodId::MPL), Some(1));
        assert!(!c.set_skip_poll(MethodId::UDP, 5));
    }

    /// A receive-only module whose source fails every poll. Send-side it
    /// is never applicable, so it contributes nothing but poll errors.
    struct DeadSourceModule {
        id: MethodId,
        name: &'static str,
        rank: u32,
    }

    struct DeadReceiver;

    impl crate::module::CommReceiver for DeadReceiver {
        fn poll(&mut self) -> Result<Option<Rsr>> {
            Err(NexusError::ConnectionClosed)
        }
    }

    impl crate::module::CommModule for DeadSourceModule {
        fn method(&self) -> MethodId {
            self.id
        }
        fn name(&self) -> &'static str {
            self.name
        }
        fn cost_rank(&self) -> u32 {
            self.rank
        }
        fn open(
            &self,
            _ctx: &ContextInfo,
        ) -> Result<(
            crate::descriptor::CommDescriptor,
            Box<dyn crate::module::CommReceiver>,
        )> {
            Ok((
                crate::descriptor::CommDescriptor::new(self.id, Vec::new()),
                Box::new(DeadReceiver),
            ))
        }
        fn applicable(
            &self,
            _local: &ContextInfo,
            _desc: &crate::descriptor::CommDescriptor,
        ) -> bool {
            false
        }
        fn connect(
            &self,
            _local: &ContextInfo,
            _desc: &crate::descriptor::CommDescriptor,
        ) -> Result<Arc<dyn CommObject>> {
            Err(NexusError::ConnectionClosed)
        }
        fn poll_cost_ns(&self) -> u64 {
            100
        }
    }

    #[test]
    fn progress_until_returns_promptly_after_shutdown() {
        let f = fabric();
        let a = f.create_context().unwrap();
        f.shutdown();
        let t0 = Instant::now();
        assert!(!a.progress_until(|| false, Duration::from_secs(30)));
        // Pre-fix, an `Err` pass counted as "idle" and the wait busy-spun
        // `yield_now` for the full 30 s timeout.
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn simultaneous_source_failures_are_all_observable() {
        let f = Fabric::new();
        f.registry().register(Arc::new(DeadSourceModule {
            id: MethodId::MPL,
            name: "dead-mpl",
            rank: 10,
        }));
        f.registry().register(Arc::new(DeadSourceModule {
            id: MethodId::TCP,
            name: "dead-tcp",
            rank: 30,
        }));
        let c = f.create_context().unwrap();
        // Both sources fail in the same pass. The first (rotation order)
        // is returned to the caller...
        assert!(matches!(c.progress(), Err(NexusError::ConnectionClosed)));
        assert_eq!(c.trace().snapshot_method(MethodId::MPL).poll_errors, 1);
        assert_eq!(c.trace().snapshot_method(MethodId::TCP).poll_errors, 1);
        // ...and the one that lost the race lands in the event ring
        // instead of vanishing (pre-fix it was silently dropped).
        assert!(c.trace().events().iter().any(|e| matches!(
            e.kind,
            TraceEventKind::PollError { method, .. } if method == MethodId::TCP
        )));
    }

    #[test]
    fn readiness_tier_delivers_without_idle_probes() {
        let f = Fabric::new();
        f.registry().register(Arc::new(
            TestModule::new(MethodId::LOCAL, "local", 0, false).with_readiness(),
        ));
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("hit", move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        assert!(b.progress_until(|| hits.load(Ordering::Relaxed) == 1, Duration::from_secs(1)));
        let snap = b.trace().snapshot_method(MethodId::LOCAL);
        assert_eq!(snap.recvs, 1);
        assert!(snap.ready_wakeups >= 1);
        // An armed source leaves the polled rotation entirely: idle passes
        // must not probe it even once.
        let polls = b.trace().snapshot_method(MethodId::LOCAL).polls;
        for _ in 0..100 {
            let _ = b.progress();
        }
        assert_eq!(b.trace().snapshot_method(MethodId::LOCAL).polls, polls);
    }

    // -- striping / scatter ----------------------------------------------

    fn patterned(len: usize) -> Buffer {
        let mut b = Buffer::new();
        for i in 0..len {
            b.put_raw(&[(i % 251) as u8]);
        }
        b
    }

    #[test]
    fn set_striped_splits_large_bodies_and_reassembles() {
        let f = fabric();
        let a = f.create_context_at(NodeId(0), PartitionId(1)).unwrap();
        let b = f.create_context_at(NodeId(1), PartitionId(1)).unwrap();
        let ok = Arc::new(AtomicU32::new(0));
        let k = Arc::clone(&ok);
        b.register_handler("bulk", move |args| {
            let n = args.buffer.remaining();
            let got = args.buffer.get_raw(n).unwrap();
            assert_eq!(got.len(), 64 * 1024);
            assert!(got.iter().enumerate().all(|(i, &x)| x == (i % 251) as u8));
            k.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        // Same partition: both mpl and tcp are applicable, so the one
        // link gains a two-rail stripe object.
        assert_eq!(a.set_striped(&sp, 4096).unwrap(), 1);
        a.rsr(&sp, "bulk", patterned(64 * 1024)).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::STRIPE));
        assert!(b.progress_until(|| ok.load(Ordering::Relaxed) == 1, Duration::from_secs(2)));
        assert_eq!(a.trace().snapshot_method(MethodId::STRIPE).sends, 1);
    }

    #[test]
    fn set_striped_passes_small_bodies_through_whole() {
        let f = fabric();
        let a = f.create_context_at(NodeId(0), PartitionId(1)).unwrap();
        let b = f.create_context_at(NodeId(1), PartitionId(1)).unwrap();
        let ok = Arc::new(AtomicU32::new(0));
        let k = Arc::clone(&ok);
        b.register_handler("small", move |args| {
            assert_eq!(args.buffer.get_u32().unwrap(), 9);
            k.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        assert_eq!(a.set_striped(&sp, 4096).unwrap(), 1);
        let mut buf = Buffer::new();
        buf.put_u32(9);
        a.rsr(&sp, "small", buf).unwrap();
        assert!(b.progress_until(|| ok.load(Ordering::Relaxed) == 1, Duration::from_secs(1)));
        // No chunks were manufactured: the single message arrived intact
        // on the fastest rail, but accounting stays with the stripe link.
        assert_eq!(a.trace().snapshot_method(MethodId::STRIPE).sends, 1);
    }

    #[test]
    fn set_striped_skips_single_method_links() {
        let f = Fabric::new();
        f.registry()
            .register(Arc::new(TestModule::new(MethodId::TCP, "tcp", 30, false)));
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        b.register_handler("hit", |_| {});
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        assert_eq!(a.set_striped(&sp, 4096).unwrap(), 0);
        a.rsr(&sp, "hit", Buffer::new()).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::TCP));
    }

    #[test]
    fn scatter_sends_one_contiguous_piece_per_link() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let c = f.create_context().unwrap();
        // 10 bytes over 3 links: 4 + 3 + 3, in link order.
        let pieces = Arc::new(Mutex::new(Vec::new()));
        for ctx in [&b, &c] {
            let p = Arc::clone(&pieces);
            ctx.register_handler("piece", move |args| {
                let n = args.buffer.remaining();
                p.lock().push(args.buffer.get_raw(n).unwrap());
            });
        }
        let ep_b1 = b.create_endpoint();
        let ep_b2 = b.create_endpoint();
        let ep_c = c.create_endpoint();
        let mut sp = b.startpoint_to(ep_b1).unwrap();
        sp.merge(&b.startpoint_to(ep_b2).unwrap());
        sp.merge(&c.startpoint_to(ep_c).unwrap());
        a.scatter(&sp, "piece", patterned(10)).unwrap();
        assert!(b.progress_until(|| pieces.lock().len() >= 2, Duration::from_secs(1)));
        assert!(c.progress_until(|| pieces.lock().len() == 3, Duration::from_secs(1)));
        let mut got = pieces.lock().clone();
        got.sort_by_key(|p| p[0]);
        let want: Vec<u8> = (0..10u8).collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], want[0..4]);
        assert_eq!(got[1], want[4..7]);
        assert_eq!(got[2], want[7..10]);
    }

    // -- bulk protocol -------------------------------------------------------

    fn event_kinds(ctx: &Context) -> Vec<TraceEventKind> {
        ctx.trace().events().iter().map(|e| e.kind).collect()
    }

    /// Drives both contexts until `pred()` holds (the bulk protocol is a
    /// multi-round exchange: announce, pull request, response).
    fn pump_until<F: FnMut() -> bool>(a: &Context, b: &Context, mut pred: F) -> bool {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if pred() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            let _ = a.progress();
            let _ = b.progress();
        }
    }

    #[test]
    fn rsr_bulk_below_cutoff_stays_eager() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("small", move |args| {
            assert_eq!(args.buffer.remaining(), 100);
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        a.set_rendezvous(&sp, 1024);
        a.rsr_bulk(&sp, "small", patterned(100)).unwrap();
        // Inline delivery: one progress pass at the receiver suffices, no
        // region was ever registered, and no pull is pending.
        assert!(b.progress_until(|| hits.load(Ordering::Relaxed) == 1, Duration::from_secs(1)));
        assert_eq!(a.bulk_regions(), 0);
        assert_eq!(b.bulk_pulls_pending(), 0);
        assert!(!event_kinds(&a)
            .iter()
            .any(|k| matches!(k, TraceEventKind::BulkExpose { .. })));
    }

    #[test]
    fn rsr_bulk_above_cutoff_pulls_region_end_to_end() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.register_handler("big", move |args| {
            let n = args.buffer.remaining();
            g.lock().push(args.buffer.get_raw(n).unwrap());
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        a.set_rendezvous(&sp, 4096);
        let want: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        a.rsr_bulk(&sp, "big", patterned(64 * 1024)).unwrap();
        // The payload crossed the cutoff: a exposed a region and sent only
        // the announce so far.
        assert_eq!(a.bulk_regions(), 1);
        assert!(pump_until(&a, &b, || !got.lock().is_empty()));
        assert_eq!(&got.lock()[0][..], &want[..]);
        // Lifetime: the single expected pull completed, so the region
        // auto-released; the receiver's pending-pull table drained.
        assert_eq!(a.bulk_regions(), 0);
        assert_eq!(b.bulk_pulls_pending(), 0);
        let ka = event_kinds(&a);
        assert!(ka
            .iter()
            .any(|k| matches!(k, TraceEventKind::BulkExpose { bytes, .. } if *bytes == 64 * 1024)));
        // The test fabric's module does not map regions, so the pull
        // streamed as chunks.
        assert!(ka
            .iter()
            .any(|k| matches!(k, TraceEventKind::BulkServe { chunked: true, .. })));
        assert!(event_kinds(&b)
            .iter()
            .any(|k| matches!(k, TraceEventKind::BulkDone { bytes, .. } if *bytes == 64 * 1024)));
    }

    #[test]
    fn rsr_bulk_mixed_links_split_eager_and_rendezvous() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let c = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        for ctx in [&b, &c] {
            let h = Arc::clone(&hits);
            ctx.register_handler("mix", move |args| {
                assert_eq!(args.buffer.remaining(), 32 * 1024);
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        let ep_b = b.create_endpoint();
        let ep_c = c.create_endpoint();
        let mut sp = b.startpoint_to(ep_b).unwrap();
        sp.merge(&c.startpoint_to(ep_c).unwrap());
        // Only c's link crosses into rendezvous; b stays eager.
        for link in sp.links() {
            if link.target.context == c.info().id {
                link.rendezvous_cutoff
                    .store(4096, std::sync::atomic::Ordering::Relaxed);
            }
        }
        a.rsr_bulk(&sp, "mix", patterned(32 * 1024)).unwrap();
        assert_eq!(a.bulk_regions(), 1, "one region for the one pulling link");
        assert!(b.progress_until(|| hits.load(Ordering::Relaxed) >= 1, Duration::from_secs(1)));
        assert!(pump_until(&a, &c, || hits.load(Ordering::Relaxed) == 2));
        assert_eq!(a.bulk_regions(), 0);
    }

    #[test]
    fn expired_region_denies_pull_instead_of_hanging() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("late", move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        a.set_rendezvous(&sp, 1024);
        // A zero deadline expires the region before the pull arrives.
        a.set_transfer_deadline(Duration::ZERO);
        a.rsr_bulk(&sp, "late", patterned(8 * 1024)).unwrap();
        // The receiver's pull is denied with an empty response: its
        // pending entry drains and it records the abort — no hang, no
        // handler invocation.
        assert!(pump_until(&a, &b, || b.bulk_pulls_pending() == 0
            && event_kinds(&b)
                .iter()
                .any(|k| matches!(k, TraceEventKind::BulkAbort { .. }))));
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        assert_eq!(a.bulk_regions(), 0);
    }

    #[test]
    fn bulk_cancel_mid_protocol_denies_the_pull() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("gone", move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        a.set_rendezvous(&sp, 1024);
        a.rsr_bulk(&sp, "gone", patterned(8 * 1024)).unwrap();
        // Recover the region id from the expose event and cancel before
        // the receiver gets to pull.
        let region = event_kinds(&a)
            .iter()
            .find_map(|k| match k {
                TraceEventKind::BulkExpose { region, .. } => Some(*region),
                _ => None,
            })
            .expect("expose event");
        assert!(a.bulk_cancel(region));
        assert!(!a.bulk_cancel(region), "second cancel is a no-op");
        assert_eq!(a.bulk_regions(), 0);
        assert!(pump_until(&a, &b, || b.bulk_pulls_pending() == 0
            && event_kinds(&b)
                .iter()
                .any(|k| matches!(k, TraceEventKind::BulkAbort { .. }))));
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_stripe_transfer_past_the_deadline_is_evicted_with_an_event() {
        let f = fabric();
        let b = f.create_context().unwrap();
        let ep = b.create_endpoint();
        // Chunk 0 of a two-chunk transfer; its sender dies before chunk 1.
        let meta = stripe::StripeMeta {
            transfer_id: 5,
            index: 0,
            total: 2,
            body_len: 32,
            offset: 0,
        };
        let mut chunk = meta.to_bytes().to_vec();
        chunk.extend_from_slice(&[0u8; 16]);
        let msg = Rsr::new(b.id(), ep, stripe::STRIPE_HANDLER, Bytes::from(chunk));
        b.deliver(MethodId::MPL, msg).unwrap();
        let st = b.try_extension::<StripeState>().expect("stripe state");
        assert_eq!(st.stripes.pending(), 1);
        b.set_transfer_deadline(Duration::ZERO);
        // The sweep rides every 64th progress pass.
        for _ in 0..64 {
            b.progress().unwrap();
        }
        assert!(event_kinds(&b)
            .iter()
            .any(|k| matches!(k, TraceEventKind::StripeIdleEvict { transfer_id: 5 })));
        assert_eq!(st.stripes.pending(), 0);
    }

    #[test]
    fn rsr_refuses_reserved_handler_names() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let sp = b.startpoint_to(b.create_endpoint()).unwrap();
        for name in ["#stripe", "#gather", "#bulk-get", "#nope"] {
            for out in [
                a.rsr(&sp, name, Buffer::new()),
                a.scatter(&sp, name, Buffer::new()),
            ] {
                assert!(
                    matches!(&out, Err(NexusError::UnknownHandler(h)) if h == name),
                    "{name}: {out:?}"
                );
            }
        }
        for _ in 0..8 {
            b.progress().unwrap();
        }
        assert_eq!(a.trace().snapshot_method(MethodId::MPL).sends, 0);
        assert_eq!(b.trace().snapshot_method(MethodId::MPL).recvs, 0);
    }

    #[test]
    fn an_unknown_reserved_name_is_refused_before_stripe_state_exists() {
        let f = fabric();
        let b = f.create_context().unwrap();
        let ep = b.create_endpoint();
        // `#gather` was a reserved name once; `#bulk-nope` shares the bulk
        // handlers' prefix. Neither creates a protocol's state.
        for name in ["#nope", "#gather", "#bulk-nope"] {
            let out = b.deliver(MethodId::MPL, Rsr::new(b.id(), ep, name, Bytes::new()));
            assert!(
                matches!(&out, Err(NexusError::UnknownHandler(h)) if h == name),
                "{name}: {out:?}"
            );
        }
        assert!(b.try_extension::<StripeState>().is_none());
        assert!(b.try_extension::<BulkState>().is_none());
    }

    /// Delivers one `h` RSR to `ep` and reports what ran (see
    /// `register_version`), with the memo misses it cost this thread.
    fn fire(c: &Context, ep: EndpointId, ran: &AtomicU32) -> (Result<u32>, u32) {
        let misses = handler::MISSES.with(std::cell::Cell::get);
        ran.store(0, Ordering::Relaxed);
        let out = c.deliver(MethodId::MPL, Rsr::new(c.id(), ep, "h", Bytes::new()));
        let out = out.map(|()| ran.load(Ordering::Relaxed));
        (out, handler::MISSES.with(std::cell::Cell::get) - misses)
    }

    /// Registers `h` as version `v`: it records `v * 100` plus the
    /// endpoint's attached `u32`, if any.
    fn register_version(c: &Context, ran: &Arc<AtomicU32>, v: u32) {
        let ran = Arc::clone(ran);
        c.handlers().register("h", move |args| {
            let attached = args.endpoint.attached_as::<u32>().map_or(0, |a| *a);
            ran.store(v * 100 + attached, Ordering::Relaxed);
        });
    }

    #[test]
    fn resolution_sees_every_table_change_on_every_warm_thread() {
        let f = Fabric::new();
        let c = f.create_context().unwrap();
        let ep = c.create_endpoint();
        let ran = Arc::new(AtomicU32::new(0));
        register_version(&c, &ran, 1);
        // A second thread with a memo of its own, driven in lockstep.
        let (go, jobs) = std::sync::mpsc::channel::<()>();
        let (done, results) = std::sync::mpsc::channel();
        let peer = {
            let (c, ran) = (Arc::clone(&c), Arc::clone(&ran));
            std::thread::spawn(move || {
                for () in jobs {
                    let (out, misses) = fire(&c, ep, &ran);
                    done.send((out.map_err(|e| e.to_string()), misses)).unwrap();
                }
            })
        };
        // One dispatch per thread: what each saw, and the misses they took.
        let both = || {
            let (here, mine) = fire(&c, ep, &ran);
            go.send(()).unwrap();
            let (there, theirs) = results.recv().unwrap();
            ([here.map_err(|e| e.to_string()), there], mine + theirs)
        };
        // Warm both memos, then check that they answer.
        let warm = |want: u32| {
            assert_eq!(both().0, [Ok(want), Ok(want)]);
            assert_eq!(both(), ([Ok(want), Ok(want)], 0), "a warm dispatch misses");
        };
        let unknown = |e: NexusError| [Err(e.to_string()), Err(e.to_string())];
        warm(100);
        register_version(&c, &ran, 2);
        assert_eq!(both().0, [Ok(200), Ok(200)], "a replaced handler");
        warm(200);
        assert!(c.handlers().unregister("h"));
        let gone = NexusError::UnknownHandler("h".into());
        assert_eq!(both().0, unknown(gone), "an unregistered handler");
        register_version(&c, &ran, 3);
        assert_eq!(both().0, [Ok(300), Ok(300)], "a re-registered handler");
        warm(300);
        c.attach(ep, Arc::new(7u32)).unwrap();
        assert_eq!(both().0, [Ok(307), Ok(307)], "a newly attached object");
        warm(307);
        assert!(c.destroy_endpoint(ep));
        let gone = NexusError::UnknownEndpoint(ep.0);
        assert_eq!(both().0, unknown(gone), "a destroyed endpoint");
        drop(go);
        peer.join().unwrap();
    }

    #[test]
    fn the_resolution_memo_keeps_nothing_alive() {
        let f = Fabric::new();
        let c = f.create_context().unwrap();
        let ep = c.create_endpoint();
        let sentinel = Arc::new(());
        let held = Arc::clone(&sentinel);
        c.register_handler("h", move |_| {
            let _ = &held;
        });
        let object = Arc::new(5u32);
        c.attach(ep, Arc::clone(&object) as Attached).unwrap();
        for _ in 0..3 {
            let msg = Rsr::new(c.id(), ep, "h", Bytes::new());
            c.deliver(MethodId::MPL, msg).unwrap();
        }
        assert_eq!(Arc::strong_count(&sentinel), 2);
        assert!(c.handlers().unregister("h"));
        assert_eq!(Arc::strong_count(&sentinel), 1, "the memo kept a closure");
        assert_eq!(Arc::strong_count(&object), 2);
        assert!(c.destroy_endpoint(ep));
        assert_eq!(Arc::strong_count(&object), 1, "the memo kept an object");
    }
}
