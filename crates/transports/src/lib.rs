//! # nexus-transports: communication modules for nexus-rt
//!
//! Implementations of the [`nexus_rt::module::CommModule`] interface —
//! the Rust analog of the Nexus communication modules listed in §3.1 of
//! the paper ("local communication, TCP sockets, Intel NX message passing,
//! IBM MPL, AAL-5, Myrinet, unreliable UDP, and shared memory"):
//!
//! | module | method | scope | substitutes for |
//! |--------|--------|-------|------------------|
//! | [`local::LocalModule`] | `local` | same context | intracontext path |
//! | [`shmem::ShmemModule`] | `shmem` | same node | shared memory |
//! | [`mpl::MplModule`] | `mpl` | same partition | IBM MPL / Intel NX |
//! | [`tcp::TcpModule`] | `tcp` | anywhere | TCP over the switch/WAN |
//! | [`udp::UdpModule`] | `udp` | anywhere, unreliable | UDP / AAL-5 raw |
//! | [`rudp::RudpModule`] | `rudp` | anywhere | reliable WAN protocols |
//!
//! `tcp`, `udp`, and `rudp` use real sockets on the loopback interface;
//! `local`, `shmem`, and `mpl` use lock-free in-process queues. Cost ranks
//! are ordered local < shmem < mpl < tcp < udp < rudp so that a default
//! descriptor table realizes the paper's "fastest first" selection.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("nexus-transports needs epoll: its socket reactor builds only for Linux");

pub mod delay;
pub mod local;
pub mod mpl;
pub mod queue;
pub mod reactor;
pub mod rudp;
pub mod shmem;
pub mod tcp;
pub mod transform;
pub mod udp;
pub mod util;
pub mod wrap;

use nexus_rt::context::Fabric;
use std::sync::Arc;

pub use delay::DelayModule;
pub use local::LocalModule;
pub use mpl::MplModule;
pub use rudp::RudpModule;
pub use shmem::ShmemModule;
pub use tcp::TcpModule;
pub use transform::{Chain, Checksum, PayloadTransform, Rle, XorCipher};
pub use udp::UdpModule;
pub use wrap::WrapModule;

/// Registers the full default module set on a fabric, in fastest-first
/// order: local, shmem, mpl, tcp, udp, rudp.
pub fn register_defaults(fabric: &Fabric) {
    fabric.registry().register(Arc::new(LocalModule::new()));
    fabric.registry().register(Arc::new(ShmemModule::new()));
    fabric.registry().register(Arc::new(MplModule::new()));
    fabric.registry().register(Arc::new(TcpModule::new()));
    fabric.registry().register(Arc::new(UdpModule::new()));
    fabric.registry().register(Arc::new(RudpModule::new()));
}

/// Registers only the in-process queue modules (local, shmem, mpl) — the
/// fast set used by latency-sensitive tests and benches that do not need
/// sockets.
pub fn register_queue_modules(fabric: &Fabric) {
    fabric.registry().register(Arc::new(LocalModule::new()));
    fabric.registry().register(Arc::new(ShmemModule::new()));
    fabric.registry().register(Arc::new(MplModule::new()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_rt::descriptor::MethodId;

    #[test]
    fn default_registration_order_is_fastest_first() {
        let f = Fabric::new();
        register_defaults(&f);
        assert_eq!(
            f.registry().default_order(),
            vec![
                MethodId::LOCAL,
                MethodId::SHMEM,
                MethodId::MPL,
                MethodId::TCP,
                MethodId::UDP,
                MethodId::RUDP,
            ]
        );
    }

    #[test]
    fn queue_module_subset() {
        let f = Fabric::new();
        register_queue_modules(&f);
        assert_eq!(f.registry().len(), 3);
    }
}
