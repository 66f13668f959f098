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
    use bytes::Bytes;
    use nexus_rt::context::{ContextId, ContextInfo, NodeId, PartitionId};
    use nexus_rt::descriptor::MethodId;
    use nexus_rt::endpoint::EndpointId;
    use nexus_rt::module::{CommModule, CommReceiver};
    use nexus_rt::rsr::{Rsr, WireFrame};
    use std::time::{Duration, Instant};

    fn recv(rx: &mut dyn CommReceiver) -> Rsr {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(m) = rx.poll().unwrap() {
                return m;
            }
            assert!(Instant::now() < deadline, "nothing arrived");
            std::thread::yield_now();
        }
    }

    /// A headed send — a stripe or bulk chunk: its `StripeMeta` as the
    /// head, its data slice as the payload — arrives as the RSR a plain
    /// send of `head ++ payload` delivers, on the queue (MPL) and UDP
    /// through the contiguous fallback and on RUDP and TCP gathered.
    /// Handler names around and past TCP's 128-byte lead buffer; empty
    /// heads and payloads must not be written as zero-length pieces.
    #[test]
    fn a_headed_send_arrives_as_head_then_payload_on_every_transport() {
        let info = |id| ContextInfo {
            id: ContextId(id),
            node: NodeId(0),
            partition: PartitionId(0),
        };
        let modules: [Arc<dyn CommModule>; 4] = [
            Arc::new(MplModule::new()),
            Arc::new(UdpModule::new()),
            Arc::new(RudpModule::new()),
            Arc::new(TcpModule::new()),
        ];
        let cases: [(&[u8], &[u8]); 4] = [
            (&[7; 20], &[9; 4096]),
            (&[], &[9; 64]),
            (&[7; 20], &[]),
            (&[], &[]),
        ];
        for m in modules {
            let (desc, mut rx) = m.open(&info(1)).unwrap();
            let obj = m.connect(&info(2), &desc).unwrap();
            for hlen in [7, 120, 300] {
                let h = "h".repeat(hlen);
                for (head, payload) in cases {
                    let rsr =
                        |p: Vec<u8>| Rsr::new(ContextId(1), EndpointId(2), &h, Bytes::from(p));
                    let whole = rsr([head, payload].concat());
                    obj.transfer(&rsr(payload.to_vec()), &WireFrame::new(), head, None)
                        .unwrap();
                    obj.send(&whole, &WireFrame::new()).unwrap();
                    for how in ["headed", "plain"] {
                        let got = recv(rx.as_mut());
                        let what = format!("{} {how}, {hlen}-byte handler", m.name());
                        assert_eq!(got.handler, h, "{what}");
                        assert_eq!(
                            got.payload,
                            whole.payload,
                            "{what}, {}-byte head",
                            head.len()
                        );
                    }
                }
            }
            obj.close();
            rx.close();
        }
    }

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
