//! Startpoints: the mobile, sending side of a communication link.
//!
//! A communication link connects a *startpoint* to one or more *endpoints*
//! (§2.2). Startpoints can be copied between contexts — copying creates new
//! links mirroring the original's — which makes them usable as global names
//! for remote objects. A startpoint carries, per link:
//!
//! * the target (context id + endpoint id),
//! * the target context's [`DescriptorTable`] (so the holder knows every
//!   method usable to reach it), and
//! * the *communication object* currently selected for the link, plus an
//!   optional manual method pin.
//!
//! Binding a startpoint to several endpoints turns an RSR into a multicast;
//! binding several startpoints to one endpoint merges their traffic.
//!
//! The descriptor table makes startpoints heavyweight (a few tens of
//! bytes). For tightly coupled systems the *lightweight* representation
//! omits the table on the wire; the receiver reconstructs it from the
//! fabric's knowledge of the target context (§3.1's "default descriptor
//! table" optimization).

use crate::buffer::Buffer;
use crate::context::{Context, ContextId};
use crate::descriptor::{DescriptorTable, MethodId};
use crate::endpoint::EndpointId;
use crate::error::{NexusError, Result};
use crate::module::CommObject;
use crate::trace::LinkMethodTrace;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The destination of one communication link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target {
    /// Context holding the endpoint.
    pub context: ContextId,
    /// The endpoint within that context.
    pub endpoint: EndpointId,
}

/// A link's resolved selection: the method, its live connection, and the
/// cached recording handle (the per-`(link, method)` trace, from which the
/// per-method send counts derive) that makes the send hot path lock-free. Built by the context when
/// it (re)selects a method for the link.
#[derive(Clone)]
pub(crate) struct SelectedMethod {
    /// The selected method.
    pub(crate) method: MethodId,
    /// The live communication object.
    pub(crate) obj: Arc<dyn CommObject>,
    /// The selecting context's trace for `(target, method)`.
    pub(crate) ltrace: Arc<LinkMethodTrace>,
}

/// Cost-driven re-selection scratch for one link: the sampling countdown
/// plus the consecutive-candidate streak that implements the hysteresis
/// (see `selection::ReselectConfig`).
#[derive(Debug, Default)]
pub(crate) struct ReselectState {
    /// Successful sends since the last cost check.
    pub(crate) sends_since_check: u64,
    /// The cheaper method observed on recent consecutive checks.
    pub(crate) candidate: Option<MethodId>,
    /// How many consecutive checks agreed on `candidate`.
    pub(crate) streak: u32,
}

/// One communication link within a startpoint.
pub struct Link {
    /// Where this link points.
    pub target: Target,
    /// The methods usable to reach the target, in selection priority order.
    /// Mutable: editing it is the manual-selection lever (§3.2).
    pub(crate) table: Mutex<DescriptorTable>,
    /// Manual method pin, read through [`Link::pin`]; `UNPINNED` is none.
    pin: AtomicU32,
    /// The selection currently in force for this link.
    // Arc so the send path hands out the whole selection with one
    // refcount bump instead of cloning each cached handle inside.
    pub(crate) chosen: Mutex<Option<Arc<SelectedMethod>>>,
    /// Cost-driven re-selection streak state.
    pub(crate) reselect: Mutex<ReselectState>,
    /// The sending context's dispatch round at this link's last send
    /// (`u64::MAX`: none yet) — part (a) of the stage rule in
    /// `Context::send_with_failover`.
    pub(crate) last_round: AtomicU64,
    /// Pack without the descriptor table (receiver reconstructs it).
    pub(crate) lightweight: bool,
    /// Payloads strictly larger than this go out as a bulk handle the
    /// receiver pulls (`Context::rsr_bulk`), instead of an inline body.
    /// `usize::MAX` (the default) keeps every send eager.
    pub(crate) rendezvous_cutoff: AtomicUsize,
}

impl Link {
    pub(crate) fn new(target: Target, table: DescriptorTable, lightweight: bool) -> Self {
        Link {
            target,
            table: Mutex::new(table),
            pin: AtomicU32::new(UNPINNED),
            chosen: Mutex::new(None),
            reselect: Mutex::new(ReselectState::default()),
            last_round: AtomicU64::new(u64::MAX),
            lightweight,
            rendezvous_cutoff: AtomicUsize::new(usize::MAX),
        }
    }

    /// The method currently selected for this link, if one has been chosen.
    pub fn current_method(&self) -> Option<MethodId> {
        self.chosen.lock().as_ref().map(|s| s.method)
    }

    /// The link's eager/rendezvous cutoff: payloads strictly larger than
    /// this are sent as a pull handle by [`crate::context::Context::rsr_bulk`].
    pub fn rendezvous_cutoff(&self) -> usize {
        self.rendezvous_cutoff.load(Ordering::Relaxed)
    }

    /// Snapshot of the link's descriptor table.
    pub fn table(&self) -> DescriptorTable {
        self.table.lock().clone()
    }

    /// Invalidate the current selection (forces re-selection on next use).
    pub(crate) fn invalidate(&self) {
        *self.chosen.lock() = None;
        *self.reselect.lock() = ReselectState::default();
    }

    /// The manual method pin, if any: one load, so every send can read it.
    pub(crate) fn pin(&self) -> Option<MethodId> {
        match self.pin.load(Ordering::Relaxed) {
            UNPINNED => None,
            m => Some(MethodId(m as u16)),
        }
    }

    /// Sets or clears the pin, and drops the current selection so the next
    /// send selects under it.
    pub(crate) fn set_pin(&self, pin: Option<MethodId>) {
        let raw = pin.map_or(UNPINNED, |m| u32::from(m.0));
        self.pin.store(raw, Ordering::Relaxed);
        self.invalidate();
    }
}

/// `Link::pin`'s encoding of no pin (every `MethodId` fits below it).
const UNPINNED: u32 = u32::MAX;

impl Clone for Link {
    /// Mirrors the link: same target and table, but *no* selection state —
    /// the receiving/copying context performs its own method selection.
    fn clone(&self) -> Self {
        let link = Link::new(self.target, self.table(), self.lightweight);
        link.set_pin(self.pin());
        link.rendezvous_cutoff
            .store(self.rendezvous_cutoff(), Ordering::Relaxed);
        link
    }
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Link")
            .field("target", &self.target)
            .field("methods", &self.table.lock().methods())
            .field("pinned", &self.pin())
            .field("chosen", &self.current_method())
            .field("lightweight", &self.lightweight)
            .finish()
    }
}

/// The mobile sending side of one or more communication links.
///
/// A startpoint's selection state (the chosen communication object per
/// link) belongs to the context *using* it. When handing a startpoint to
/// another context — whether in-process or over the wire — clone or
/// pack/unpack it: both mirror the links and let the receiving context
/// perform its own selection, exactly the paper's copy semantics.
#[derive(Debug, Default)]
pub struct Startpoint {
    links: Vec<Link>,
}

impl Clone for Startpoint {
    fn clone(&self) -> Self {
        Startpoint {
            links: self.links.clone(),
        }
    }
}

impl Startpoint {
    /// Creates an unbound startpoint (no links).
    pub fn unbound() -> Self {
        Self::default()
    }

    /// True if the startpoint has no links.
    pub fn is_unbound(&self) -> bool {
        self.links.is_empty()
    }

    /// The links, in binding order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link targets, in binding order.
    pub fn targets(&self) -> Vec<Target> {
        self.links.iter().map(|l| l.target).collect()
    }

    pub(crate) fn add_link(&mut self, link: Link) {
        self.links.push(link);
    }

    /// Merges another startpoint's links into this one (multicast
    /// construction: the startpoint becomes bound to every endpoint of
    /// both). Duplicate targets are kept once.
    pub fn merge(&mut self, other: &Startpoint) {
        for l in &other.links {
            if !self.links.iter().any(|x| x.target == l.target) {
                self.links.push(l.clone());
            }
        }
    }

    /// Removes the link to `target`, returning whether it existed.
    pub fn unbind(&mut self, target: Target) -> bool {
        let before = self.links.len();
        self.links.retain(|l| l.target != target);
        before != self.links.len()
    }

    // -- manual selection ---------------------------------------------------

    /// Pins every link to `method`. The pin is checked for applicability at
    /// the next RSR; an inapplicable pin yields
    /// [`NexusError::MethodNotApplicable`].
    pub fn set_method(&self, method: MethodId) {
        for l in &self.links {
            l.set_pin(Some(method));
        }
    }

    /// Pins the link to `target` to `method`.
    pub fn set_method_for(&self, target: Target, method: MethodId) -> bool {
        match self.links.iter().find(|l| l.target == target) {
            Some(l) => {
                l.set_pin(Some(method));
                true
            }
            None => false,
        }
    }

    /// Clears all pins, returning links to automatic selection.
    pub fn clear_method(&self) {
        for l in &self.links {
            l.set_pin(None);
        }
    }

    /// Edits the descriptor table of the link to `target` (reorder, add,
    /// delete entries). Invalidates the link's current selection.
    pub fn edit_table<F: FnOnce(&mut DescriptorTable)>(&self, target: Target, f: F) -> bool {
        match self.links.iter().find(|l| l.target == target) {
            Some(l) => {
                f(&mut l.table.lock());
                l.invalidate();
                true
            }
            None => false,
        }
    }

    /// Sets a parameter on every currently selected communication object
    /// (e.g. `"sockbuf"` on TCP links). Links with no selection yet are
    /// skipped; the first error is returned.
    pub fn set_param(&self, key: &str, value: &str) -> Result<()> {
        for l in &self.links {
            let obj = l.chosen.lock().as_ref().map(|s| Arc::clone(&s.obj));
            if let Some(obj) = obj {
                obj.set_param(key, value)?;
            }
        }
        Ok(())
    }

    /// Enquiry: the currently selected method per link (None = not yet
    /// selected).
    pub fn current_methods(&self) -> Vec<(Target, Option<MethodId>)> {
        self.links
            .iter()
            .map(|l| (l.target, l.current_method()))
            .collect()
    }

    // -- wire format ---------------------------------------------------------

    /// Serializes the startpoint into a buffer, so it can be shipped inside
    /// an RSR payload. Lightweight links omit their descriptor table.
    pub fn pack(&self, buf: &mut Buffer) {
        buf.put_u16(self.links.len() as u16);
        for l in &self.links {
            buf.put_u32(l.target.context.0);
            buf.put_u64(l.target.endpoint.0);
            if l.lightweight {
                buf.put_u8(0);
            } else {
                buf.put_u8(1);
                l.table.lock().encode(buf);
            }
        }
    }

    /// Reconstructs a startpoint packed by [`Startpoint::pack`]. The
    /// receiving context is needed to resolve lightweight links (their
    /// table is looked up from the fabric's knowledge of the target
    /// context).
    pub fn unpack(buf: &mut Buffer, receiver: &Context) -> Result<Startpoint> {
        Self::unpack_impl(buf, Some(receiver))
    }

    /// Reconstructs a startpoint without any fabric context — for
    /// startpoints that crossed a *process* boundary (shipped as bytes
    /// through argv, a file, or another channel) and will be used from a
    /// different fabric. Only heavyweight links can be resolved this way;
    /// a lightweight link's table lives in the sender's fabric and is an
    /// error here.
    pub fn unpack_standalone(buf: &mut Buffer) -> Result<Startpoint> {
        Self::unpack_impl(buf, None)
    }

    fn unpack_impl(buf: &mut Buffer, receiver: Option<&Context>) -> Result<Startpoint> {
        let n = buf.get_u16()? as usize;
        if n > 4096 {
            return Err(NexusError::Decode("startpoint link count too large"));
        }
        // A link is at least 4 + 8 + 1 bytes: a claimed count the buffer
        // cannot hold reserves no more than the buffer could.
        let mut links = Vec::with_capacity(n.min(buf.remaining() / 13));
        for _ in 0..n {
            let ctx = ContextId(buf.get_u32()?);
            let ep = EndpointId(buf.get_u64()?);
            let has_table = buf.get_u8()? != 0;
            let (table, lightweight) = if has_table {
                (DescriptorTable::decode(buf)?, false)
            } else {
                let receiver = receiver.ok_or(NexusError::Decode(
                    "lightweight startpoint cannot cross a process boundary",
                ))?;
                (receiver.lookup_descriptor_table(ctx)?, true)
            };
            links.push(Link::new(
                Target {
                    context: ctx,
                    endpoint: ep,
                },
                table,
                lightweight,
            ));
        }
        Ok(Startpoint { links })
    }

    /// Wire size of [`Startpoint::pack`]'s output.
    pub fn wire_len(&self) -> usize {
        2 + self
            .links
            .iter()
            .map(|l| {
                4 + 8
                    + 1
                    + if l.lightweight {
                        0
                    } else {
                        l.table.lock().wire_len()
                    }
            })
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::CommDescriptor;

    fn table() -> DescriptorTable {
        [
            CommDescriptor::new(MethodId::MPL, b"m".to_vec()),
            CommDescriptor::new(MethodId::TCP, b"t".to_vec()),
        ]
        .into_iter()
        .collect()
    }

    fn sp(ctx: u32, ep: u64) -> Startpoint {
        let mut s = Startpoint::unbound();
        s.add_link(Link::new(
            Target {
                context: ContextId(ctx),
                endpoint: EndpointId(ep),
            },
            table(),
            false,
        ));
        s
    }

    #[test]
    fn unbound_startpoint_has_no_targets() {
        let s = Startpoint::unbound();
        assert!(s.is_unbound());
        assert!(s.targets().is_empty());
    }

    #[test]
    fn merge_builds_multicast_and_dedups() {
        let mut a = sp(1, 10);
        let b = sp(2, 20);
        a.merge(&b);
        a.merge(&b); // duplicate merge is a no-op
        assert_eq!(a.targets().len(), 2);
        assert_eq!(
            a.targets(),
            vec![
                Target {
                    context: ContextId(1),
                    endpoint: EndpointId(10)
                },
                Target {
                    context: ContextId(2),
                    endpoint: EndpointId(20)
                },
            ]
        );
    }

    #[test]
    fn unbind_removes_target() {
        let mut a = sp(1, 10);
        let b = sp(2, 20);
        a.merge(&b);
        assert!(a.unbind(Target {
            context: ContextId(1),
            endpoint: EndpointId(10)
        }));
        assert_eq!(a.targets().len(), 1);
        assert!(!a.unbind(Target {
            context: ContextId(9),
            endpoint: EndpointId(9)
        }));
    }

    #[test]
    fn clone_mirrors_links_but_resets_selection() {
        let a = sp(1, 10);
        // Simulate a selection by pinning (chosen itself needs a comm
        // object; the pin path is observable without one).
        a.set_method(MethodId::TCP);
        let c = a.clone();
        assert_eq!(c.targets(), a.targets());
        assert_eq!(c.links()[0].pin(), Some(MethodId::TCP));
        assert!(c.links()[0].current_method().is_none());
    }

    #[test]
    fn set_method_for_targets_one_link() {
        let mut a = sp(1, 10);
        a.merge(&sp(2, 20));
        let t2 = Target {
            context: ContextId(2),
            endpoint: EndpointId(20),
        };
        assert!(a.set_method_for(t2, MethodId::TCP));
        assert_eq!(a.links()[0].pin(), None);
        assert_eq!(a.links()[1].pin(), Some(MethodId::TCP));
        a.clear_method();
        assert_eq!(a.links()[1].pin(), None);
    }

    #[test]
    fn edit_table_invalidates_selection() {
        let a = sp(1, 10);
        let t = a.targets()[0];
        assert!(a.edit_table(t, |tab| {
            tab.prioritize(MethodId::TCP);
        }));
        assert_eq!(a.links()[0].table().methods()[0], MethodId::TCP);
        assert!(!a.edit_table(
            Target {
                context: ContextId(99),
                endpoint: EndpointId(0)
            },
            |_| {}
        ));
    }

    #[test]
    fn pack_wire_len_matches() {
        let mut a = sp(1, 10);
        a.merge(&sp(2, 20));
        let mut buf = Buffer::new();
        a.pack(&mut buf);
        assert_eq!(buf.len(), a.wire_len());
    }

    #[test]
    fn heavyweight_vs_lightweight_size() {
        let heavy = sp(1, 10);
        let mut light = Startpoint::unbound();
        light.add_link(Link::new(
            Target {
                context: ContextId(1),
                endpoint: EndpointId(10),
            },
            table(),
            true,
        ));
        assert!(light.wire_len() < heavy.wire_len());
        // The lightweight form is exactly the fixed header.
        assert_eq!(light.wire_len(), 2 + 4 + 8 + 1);
    }
}
