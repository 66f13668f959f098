//! Layering overhead on the real runtime (§4's "about 6 percent").
//!
//! The paper reports that MPICH layered on Nexus costs about 6 % in
//! execution time versus MPICH directly on MPL. We measure the analogous
//! stack-up on the real multithreaded runtime with in-process transports:
//!
//! 1. **bare transport** — frames moved straight through the queue medium
//!    (the "native MPL" floor);
//! 2. **Nexus RSR** — the full multimethod runtime (startpoints, selection,
//!    unified polling, handler dispatch);
//! 3. **mini-MPI on Nexus** — two-sided matching layered on RSRs (the
//!    MPICH-on-Nexus analog).
//!
//! The interesting number is the increment from layer 2 to layer 3: that
//! is the paper's layering overhead. (Layer 1→2 is the Nexus message-
//! driven-execution overhead of Fig. 4's lower-left panel.)

use nexus_mpi::{run_world, WorldLayout};
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{ContextId, Fabric};
use nexus_rt::endpoint::EndpointId;
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_transports::queue::{QueueMedium, QueueObject, QueueReceiver};
use nexus_transports::register_queue_modules;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One-way times (µs) for the three stacks.
#[derive(Debug, Clone, Copy)]
pub struct OverheadResult {
    /// Bare queue-transport ping-pong.
    pub bare_us: f64,
    /// Nexus RSR ping-pong.
    pub rsr_us: f64,
    /// Mini-MPI ping-pong.
    pub mpi_us: f64,
}

impl OverheadResult {
    /// Layering overhead of the MPI layer over raw RSRs, in percent.
    pub fn mpi_over_rsr_pct(&self) -> f64 {
        (self.mpi_us / self.rsr_us - 1.0) * 100.0
    }

    /// Overhead of the Nexus runtime over the bare transport, in percent.
    pub fn rsr_over_bare_pct(&self) -> f64 {
        (self.rsr_us / self.bare_us - 1.0) * 100.0
    }
}

/// Bare-transport ping-pong: two threads popping/pushing queue frames.
fn bare_pingpong(rounds: u64, size: usize) -> f64 {
    let medium = Arc::new(QueueMedium::new());
    use nexus_rt::module::CommReceiver;
    let mut rx_a = QueueReceiver::new(Arc::clone(&medium), ContextId(0));
    let mut rx_b = QueueReceiver::new(Arc::clone(&medium), ContextId(1));
    let to_b =
        QueueObject::connect(nexus_rt::descriptor::MethodId::MPL, &medium, ContextId(1)).unwrap();
    let to_a =
        QueueObject::connect(nexus_rt::descriptor::MethodId::MPL, &medium, ContextId(0)).unwrap();
    let payload = bytes::Bytes::from(vec![0u8; size]);
    let msg_b = Rsr::new(ContextId(1), EndpointId(1), "p", payload.clone());
    let msg_a = Rsr::new(ContextId(0), EndpointId(1), "p", payload);
    let echo = std::thread::spawn(move || {
        for _ in 0..rounds {
            loop {
                if rx_b.poll().unwrap().is_some() {
                    break;
                }
                std::thread::yield_now();
            }
            to_a.send(&msg_a, &WireFrame::new()).unwrap();
        }
    });
    let start = Instant::now();
    for _ in 0..rounds {
        to_b.send(&msg_b, &WireFrame::new()).unwrap();
        loop {
            if rx_a.poll().unwrap().is_some() {
                break;
            }
            std::thread::yield_now();
        }
    }
    let elapsed = start.elapsed();
    echo.join().unwrap();
    elapsed.as_secs_f64() * 1e6 / (2.0 * rounds as f64)
}

/// Nexus RSR ping-pong between two contexts on two threads.
fn rsr_pingpong(rounds: u64, size: usize) -> f64 {
    let fabric = Fabric::new();
    register_queue_modules(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let count = Arc::new(AtomicU64::new(0));

    let ep_a = a.create_endpoint();
    let sp_to_a = a.startpoint_to(ep_a).unwrap();
    let ep_b = b.create_endpoint();
    let sp_to_b = b.startpoint_to(ep_b).unwrap();

    // B echoes every ping back to A.
    {
        let b_ctx = Arc::clone(&b);
        let sp = sp_to_a.clone();
        b.register_handler("ping", move |args| {
            let mut reply = Buffer::new();
            reply.put_raw(args.buffer.as_slice());
            b_ctx.rsr(&sp, "pong", reply).unwrap();
        });
    }
    {
        let c = Arc::clone(&count);
        a.register_handler("pong", move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }

    let stop = Arc::new(AtomicBool::new(false));
    let b_thread = {
        let stop = Arc::clone(&stop);
        let b = Arc::clone(&b);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if !matches!(b.progress(), Ok(n) if n > 0) {
                    std::thread::yield_now();
                }
            }
        })
    };
    let mut payload = vec![0u8; size];
    let start = Instant::now();
    for i in 0..rounds {
        if let Some(first) = payload.first_mut() {
            *first = i as u8;
        }
        let mut buf = Buffer::with_capacity(size);
        buf.put_raw(&payload);
        a.rsr(&sp_to_b, "ping", buf).unwrap();
        let target = i + 1;
        while count.load(Ordering::Relaxed) < target {
            if !matches!(a.progress(), Ok(n) if n > 0) {
                std::thread::yield_now();
            }
        }
    }
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    b_thread.join().unwrap();
    fabric.shutdown();
    elapsed.as_secs_f64() * 1e6 / (2.0 * rounds as f64)
}

/// Mini-MPI ping-pong (rank 0 measures).
fn mpi_pingpong(rounds: u64, size: usize) -> f64 {
    let result = Mutex::new(0.0f64);
    run_world(&WorldLayout::uniform(2), |p| {
        let c = p.world();
        let payload = vec![0u8; size];
        if p.rank() == 0 {
            let start = Instant::now();
            for _ in 0..rounds {
                c.send(1, 1, &payload).unwrap();
                c.recv(Some(1), Some(2)).unwrap();
            }
            *result.lock() = start.elapsed().as_secs_f64() * 1e6 / (2.0 * rounds as f64);
        } else {
            for _ in 0..rounds {
                let (_, _, d) = c.recv(Some(0), Some(1)).unwrap();
                c.send(0, 2, &d).unwrap();
            }
        }
    })
    .unwrap();
    result.into_inner()
}

/// Runs all three stacks.
pub fn run(rounds: u64, size: usize) -> OverheadResult {
    // Warm up allocators and thread machinery.
    let _ = bare_pingpong(rounds / 10 + 1, size);
    OverheadResult {
        bare_us: bare_pingpong(rounds, size),
        rsr_us: rsr_pingpong(rounds, size),
        mpi_us: mpi_pingpong(rounds, size),
    }
}

/// Formats the comparison.
pub fn format(r: &OverheadResult) -> String {
    format!(
        "one-way latency, in-process transport, {}-byte payload\n\
         bare transport : {:>8.2} us\n\
         Nexus RSR      : {:>8.2} us  (+{:.0}% over bare)\n\
         mini-MPI       : {:>8.2} us  (+{:.1}% over RSR; paper reports ~6% for MPICH-on-Nexus)\n",
        0,
        r.bare_us,
        r.rsr_us,
        r.rsr_over_bare_pct(),
        r.mpi_us,
        r.mpi_over_rsr_pct()
    )
}

/// Blocking-poller demonstration (§3.3's AIX thread refinement): TCP
/// messages are received by a dedicated blocking thread instead of the
/// poll rotation; returns (one-way µs with polling, one-way µs with a
/// blocking thread) for a TCP ping-pong.
pub fn blocking_poller_comparison(rounds: u64) -> (f64, f64) {
    fn tcp_pingpong(rounds: u64, blocking: bool) -> f64 {
        let fabric = Fabric::new();
        fabric
            .registry()
            .register(Arc::new(nexus_transports::TcpModule::new()));
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();
        if blocking {
            a.start_blocking_poller(nexus_rt::descriptor::MethodId::TCP)
                .unwrap();
            b.start_blocking_poller(nexus_rt::descriptor::MethodId::TCP)
                .unwrap();
        }
        let count = Arc::new(AtomicU64::new(0));
        let ep_a = a.create_endpoint();
        let sp_to_a = a.startpoint_to(ep_a).unwrap();
        let ep_b = b.create_endpoint();
        let sp_to_b = b.startpoint_to(ep_b).unwrap();
        {
            let b_ctx = Arc::clone(&b);
            let sp = sp_to_a.clone();
            b.register_handler("ping", move |_| {
                b_ctx.rsr(&sp, "pong", Buffer::new()).unwrap();
            });
        }
        {
            let c = Arc::clone(&count);
            a.register_handler("pong", move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let b_thread = {
            let stop = Arc::clone(&stop);
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = b.progress();
                    if !blocking {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            })
        };
        let start = Instant::now();
        for i in 0..rounds {
            a.rsr(&sp_to_b, "ping", Buffer::new()).unwrap();
            while count.load(Ordering::Relaxed) < i + 1 {
                if !matches!(a.progress(), Ok(n) if n > 0) {
                    std::thread::yield_now();
                }
            }
        }
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        b_thread.join().unwrap();
        fabric.shutdown();
        elapsed.as_secs_f64() * 1e6 / (2.0 * rounds as f64)
    }
    (tcp_pingpong(rounds, false), tcp_pingpong(rounds, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacks_order_sanely() {
        // Every stack completes and is timed. How the three order is a
        // wall-clock claim, which belongs to the bench gates, not here.
        let r = run(300, 64);
        assert!(r.bare_us > 0.0 && r.rsr_us > 0.0 && r.mpi_us > 0.0);
        let t = format(&r);
        assert!(t.contains("mini-MPI"));
    }

    #[test]
    fn blocking_poller_works_end_to_end() {
        let (poll_us, block_us) = blocking_poller_comparison(50);
        assert!(poll_us > 0.0 && block_us > 0.0);
    }
}
