//! # nexus-rt: multimethod communication runtime
//!
//! A Rust reproduction of the multimethod communication architecture of the
//! Nexus runtime system (Foster, Geisler, Kesselman, Tuecke, *Multimethod
//! Communication for High-Performance Metacomputing Applications*, SC '96).
//!
//! The architecture lets one application use several low-level
//! communication methods *simultaneously and transparently*: programmers
//! express communication as asynchronous **remote service requests** over
//! **communication links** (a mobile [`startpoint::Startpoint`] bound to
//! one or more [`endpoint`]s), while the method used for each link — MPL,
//! TCP, shared memory, UDP, ... — is chosen per link, automatically
//! (ordered "fastest first" scan of a mobile descriptor table) or manually
//! (pins, table edits, parameters).
//!
//! ## Quick tour
//!
//! ```
//! use nexus_rt::prelude::*;
//! use nexus_rt::module::test_support::TestModule;
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! // A fabric holds contexts (address spaces) and communication modules.
//! // This example uses the built-in toy queue module; real applications
//! // register modules from `nexus-transports` (shmem, mpl, tcp, udp...).
//! let fabric = Fabric::new();
//! fabric
//!     .registry()
//!     .register(Arc::new(TestModule::new(MethodId::SHMEM, "shmem", 1, false)));
//! let a = fabric.create_context().unwrap();
//! let b = fabric.create_context().unwrap();
//!
//! // b exposes an endpoint with a handler; a gets a startpoint to it.
//! let hits = Arc::new(AtomicU32::new(0));
//! let h = Arc::clone(&hits);
//! b.register_handler("hello", move |mut args| {
//!     assert_eq!(args.buffer.get_u32().unwrap(), 7);
//!     h.fetch_add(1, Ordering::Relaxed);
//! });
//! let ep = b.create_endpoint();
//! let sp = b.startpoint_to(ep).unwrap();
//!
//! // An RSR: ship a buffer, invoke the handler remotely.
//! let mut buf = Buffer::new();
//! buf.put_u32(7);
//! a.rsr(&sp, "hello", buf).unwrap();
//! b.progress().unwrap(); // message-driven execution
//! assert_eq!(hits.load(Ordering::Relaxed), 1);
//! ```
//!
//! ## Module map
//!
//! | module | role |
//! |--------|------|
//! | [`buffer`] | typed put/get data buffers (the RSR payload) |
//! | [`bulk`] | eager/rendezvous bulk protocol and its engine: pull-based zero-copy handles, `rsr_bulk`, the pull service |
//! | [`context`] | contexts, the fabric, selection, failover, progress, RSR issue/dispatch, forwarding, scatter |
//! | [`descriptor`] | method ids, communication descriptors, mobile tables |
//! | [`endpoint`] | receive side of links, attached local objects |
//! | [`startpoint`] | mobile send side: links, multicast, manual selection |
//! | [`module`] | the `CommModule` function-table trait + registry/loaders |
//! | [`selection`] | automatic/manual/QoS selection policies + enquiry |
//! | [`poll`] | unified polling, `skip_poll`, blocking pollers |
//! | [`shard`] | sharded multi-worker servicing of the readiness tier |
//! | [`pool`] | thread-local frame-buffer reuse for the send path |
//! | [`rsr`] | RSR wire format: encode-once frames, zero-copy decode |
//! | [`handler`] | handler registration and dispatch |
//! | [`stripe`] | multi-link striped transfer (rail pattern): chunk format, assembler, `set_striped` |
//! | [`trace`] | the enquiry instrument: per-method counters, per-link histograms, measured poll-cost EWMAs, event ring |
//! | [`config`] | resource database + command-line overrides |

#![warn(missing_docs)]

pub mod buffer;
pub mod bulk;
pub mod config;
pub mod context;
pub mod descriptor;
pub mod endpoint;
pub mod error;
pub mod handler;
pub mod module;
pub mod poll;
pub mod pool;
pub mod rsr;
pub mod selection;
pub mod shard;
pub mod startpoint;
pub mod stripe;
pub mod trace;

/// Convenience re-exports for application code.
pub mod prelude {
    pub use crate::buffer::Buffer;
    pub use crate::bulk::{BulkHandle, BulkRegistry, PullGuard};
    pub use crate::config::RtConfig;
    pub use crate::context::{
        Context, ContextId, ContextInfo, ContextOpts, Fabric, ForwardVia, NodeId, PartitionId,
    };
    pub use crate::descriptor::{CommDescriptor, DescriptorTable, MethodId};
    pub use crate::endpoint::{EndpointId, EndpointRef};
    pub use crate::error::{NexusError, Result};
    pub use crate::handler::HandlerArgs;
    pub use crate::module::{CommModule, CommObject, CommReceiver, ModuleRegistry};
    pub use crate::poll::{AdaptiveSkipPoll, PollOutcome, SkipChange};
    pub use crate::selection::{
        applicable_methods, method_cost_estimate, ExcludeMethods, FirstApplicable,
        MethodCostEstimate, QosAware, SelectionPolicy,
    };
    pub use crate::shard::{ShardSnapshot, WorkerPool};
    pub use crate::startpoint::{Startpoint, Target};
    pub use crate::stripe::{weighted_shares, StripeAssembler, StripeRail, StripedObject};
    pub use crate::trace::{
        Ewma, HistogramSummary, LogHistogram, MethodSnapshot, Trace, TraceEvent, TraceEventKind,
    };
}
