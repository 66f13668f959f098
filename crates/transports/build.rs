//! Build-time probe for the socket reactor.
//!
//! Emits `have_epoll` when the target OS provides the epoll API, which
//! compiles `reactor` in and routes the socket transports through it;
//! without it they keep their pump threads. The probe is the target
//! triple cargo hands us — epoll is Linux-only and present in every
//! kernel this crate can realistically run on, so an execution probe
//! would add a build dependency without adding signal. The reactor
//! still verifies at runtime: if `epoll_create1` fails there is no
//! reactor and the sources stay in the polled tier, so a `have_epoll`
//! build never loses liveness on an exotic kernel.

fn main() {
    println!("cargo::rustc-check-cfg=cfg(have_epoll)");
    if std::env::var("CARGO_CFG_TARGET_OS").as_deref() == Ok("linux") {
        println!("cargo::rustc-cfg=have_epoll");
    }
    println!("cargo::rerun-if-changed=build.rs");
}
