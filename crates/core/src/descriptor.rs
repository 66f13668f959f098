//! Communication descriptors and descriptor tables.
//!
//! A *communication descriptor* carries the information a communication
//! module needs in order to reach a specific context: for the MPL-style
//! module a partition id and node number, for TCP a socket address, and so
//! on (§3.1 of the paper). Descriptors are grouped into an ordered
//! [`DescriptorTable`], which is the concise, mobile representation of the
//! methods a context supports. The table travels with every startpoint, so
//! any context that receives a startpoint also receives everything it needs
//! to open a connection back to the referenced endpoint.
//!
//! Table *order is meaningful*: automatic selection scans the table in order
//! and picks the first applicable method, so placing fast methods first
//! yields the paper's "fastest first" policy (§3.2). Users can reorder,
//! add, or delete entries to steer selection manually.

use crate::buffer::Buffer;
use crate::error::{NexusError, Result};
use std::fmt;

/// Identifies a communication method (and the module implementing it).
///
/// Identifiers are stable wire values: a descriptor produced in one context
/// must be interpretable in another. The well-known methods shipped with
/// this crate ecosystem use the constants below; applications may register
/// custom modules with ids ≥ [`MethodId::FIRST_CUSTOM`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u16);

impl MethodId {
    /// Intra-context delivery (sender and receiver share a context).
    pub const LOCAL: MethodId = MethodId(0);
    /// Intra-process shared-memory queues.
    pub const SHMEM: MethodId = MethodId(1);
    /// Partition-scoped fast message passing (the IBM MPL stand-in).
    pub const MPL: MethodId = MethodId(2);
    /// TCP sockets.
    pub const TCP: MethodId = MethodId(3);
    /// Unreliable UDP datagrams.
    pub const UDP: MethodId = MethodId(4);
    /// Reliable delivery layered over UDP.
    pub const RUDP: MethodId = MethodId(5);
    /// In-process multicast groups.
    pub const MCAST: MethodId = MethodId(6);
    /// Multi-link striped bulk transfer (a composite over other methods).
    pub const STRIPE: MethodId = MethodId(7);
    /// First id available for application-defined modules.
    pub const FIRST_CUSTOM: MethodId = MethodId(0x100);

    /// Human-readable name for the well-known methods.
    pub fn well_known_name(self) -> Option<&'static str> {
        Some(match self {
            MethodId::LOCAL => "local",
            MethodId::SHMEM => "shmem",
            MethodId::MPL => "mpl",
            MethodId::TCP => "tcp",
            MethodId::UDP => "udp",
            MethodId::RUDP => "rudp",
            MethodId::MCAST => "mcast",
            MethodId::STRIPE => "stripe",
            _ => return None,
        })
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.well_known_name() {
            Some(n) => write!(f, "{n}"),
            None => write!(f, "method#{}", self.0),
        }
    }
}

/// The information one communication module needs to reach one context.
///
/// The payload is opaque to the runtime: each module defines its own
/// encoding (e.g. the TCP module stores `host:port`, the MPL module stores
/// a session id and node number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommDescriptor {
    /// The method this descriptor belongs to.
    pub method: MethodId,
    /// Module-defined addressing data.
    pub data: Vec<u8>,
}

impl CommDescriptor {
    /// Creates a descriptor for `method` with module-defined `data`.
    pub fn new(method: MethodId, data: Vec<u8>) -> Self {
        CommDescriptor { method, data }
    }

    /// Wire size of this descriptor within a table.
    pub fn wire_len(&self) -> usize {
        2 + 2 + self.data.len()
    }

    fn encode(&self, buf: &mut Buffer) {
        buf.put_u16(self.method.0);
        buf.put_u16(self.data.len() as u16);
        buf.put_raw(&self.data);
    }

    fn decode(buf: &mut Buffer) -> Result<Self> {
        let method = MethodId(buf.get_u16()?);
        let len = buf.get_u16()? as usize;
        let data = buf.get_raw(len)?;
        Ok(CommDescriptor { method, data })
    }
}

/// An ordered set of communication descriptors for one context.
///
/// At most one descriptor per method is kept; inserting a descriptor for a
/// method already present replaces it in place (preserving its priority).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DescriptorTable {
    entries: Vec<CommDescriptor>,
}

impl DescriptorTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of descriptors in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The descriptors in priority order.
    pub fn entries(&self) -> &[CommDescriptor] {
        &self.entries
    }

    /// Appends `desc` at the lowest priority, or replaces an existing entry
    /// for the same method in place.
    pub fn push(&mut self, desc: CommDescriptor) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.method == desc.method) {
            *e = desc;
        } else {
            self.entries.push(desc);
        }
    }

    /// Inserts `desc` at the *highest* priority (front of the scan order),
    /// removing any existing entry for the same method first.
    pub fn push_front(&mut self, desc: CommDescriptor) {
        self.remove(desc.method);
        self.entries.insert(0, desc);
    }

    /// Removes the descriptor for `method`, returning it if present.
    pub fn remove(&mut self, method: MethodId) -> Option<CommDescriptor> {
        let idx = self.entries.iter().position(|e| e.method == method)?;
        Some(self.entries.remove(idx))
    }

    /// Looks up the descriptor for `method`.
    pub fn get(&self, method: MethodId) -> Option<&CommDescriptor> {
        self.entries.iter().find(|e| e.method == method)
    }

    /// The methods present, in priority order.
    pub fn methods(&self) -> Vec<MethodId> {
        self.entries.iter().map(|e| e.method).collect()
    }

    /// Reorders the table to match `order`. Methods named in `order` move to
    /// the front (in the given order); unnamed methods keep their relative
    /// order after them. Unknown methods in `order` are ignored.
    pub fn reorder(&mut self, order: &[MethodId]) {
        let mut front: Vec<CommDescriptor> = Vec::with_capacity(self.entries.len());
        for &m in order {
            if let Some(d) = self.remove(m) {
                front.push(d);
            }
        }
        front.append(&mut self.entries);
        self.entries = front;
    }

    /// Raises `method` to the highest priority if present. Returns whether
    /// the method was found.
    pub fn prioritize(&mut self, method: MethodId) -> bool {
        match self.remove(method) {
            Some(d) => {
                self.entries.insert(0, d);
                true
            }
            None => false,
        }
    }

    /// Encodes the table into `buf` (u16 count then each descriptor).
    pub fn encode(&self, buf: &mut Buffer) {
        buf.put_u16(self.entries.len() as u16);
        for e in &self.entries {
            e.encode(buf);
        }
    }

    /// Decodes a table previously written by [`DescriptorTable::encode`].
    pub fn decode(buf: &mut Buffer) -> Result<Self> {
        let n = buf.get_u16()? as usize;
        // Wire tables are small (a handful of methods); reject absurd counts
        // instead of trusting a corrupt length.
        if n > 1024 {
            return Err(NexusError::Decode("descriptor table count too large"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(CommDescriptor::decode(buf)?);
        }
        Ok(DescriptorTable { entries })
    }

    /// Total wire size of the encoded table. The paper notes this is "a few
    /// tens of bytes" — cheap in a wide-area context, and omitted entirely
    /// for lightweight startpoints within a parallel computer.
    pub fn wire_len(&self) -> usize {
        2 + self.entries.iter().map(|e| e.wire_len()).sum::<usize>()
    }
}

impl FromIterator<CommDescriptor> for DescriptorTable {
    fn from_iter<T: IntoIterator<Item = CommDescriptor>>(iter: T) -> Self {
        let mut t = DescriptorTable::new();
        for d in iter {
            t.push(d);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(m: MethodId, bytes: &[u8]) -> CommDescriptor {
        CommDescriptor::new(m, bytes.to_vec())
    }

    #[test]
    fn push_replaces_same_method_in_place() {
        let mut t = DescriptorTable::new();
        t.push(d(MethodId::MPL, b"a"));
        t.push(d(MethodId::TCP, b"b"));
        t.push(d(MethodId::MPL, b"c"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.methods(), vec![MethodId::MPL, MethodId::TCP]);
        assert_eq!(t.get(MethodId::MPL).unwrap().data, b"c");
    }

    #[test]
    fn push_front_sets_highest_priority() {
        let mut t = DescriptorTable::new();
        t.push(d(MethodId::MPL, b"a"));
        t.push(d(MethodId::TCP, b"b"));
        t.push_front(d(MethodId::TCP, b"b2"));
        assert_eq!(t.methods(), vec![MethodId::TCP, MethodId::MPL]);
        assert_eq!(t.get(MethodId::TCP).unwrap().data, b"b2");
    }

    #[test]
    fn reorder_moves_named_methods_to_front() {
        let mut t: DescriptorTable = [
            d(MethodId::SHMEM, b"s"),
            d(MethodId::MPL, b"m"),
            d(MethodId::TCP, b"t"),
            d(MethodId::UDP, b"u"),
        ]
        .into_iter()
        .collect();
        t.reorder(&[MethodId::TCP, MethodId::UDP]);
        assert_eq!(
            t.methods(),
            vec![MethodId::TCP, MethodId::UDP, MethodId::SHMEM, MethodId::MPL]
        );
    }

    #[test]
    fn prioritize_is_the_manual_selection_lever() {
        let mut t: DescriptorTable = [d(MethodId::MPL, b"m"), d(MethodId::TCP, b"t")]
            .into_iter()
            .collect();
        assert!(t.prioritize(MethodId::TCP));
        assert_eq!(t.methods()[0], MethodId::TCP);
        assert!(!t.prioritize(MethodId::UDP));
    }

    #[test]
    fn encode_decode_roundtrip_preserves_order() {
        let t: DescriptorTable = [
            d(MethodId::MPL, b"partition-7:node-3"),
            d(MethodId::TCP, b"127.0.0.1:9000"),
            d(MethodId::UDP, b""),
        ]
        .into_iter()
        .collect();
        let mut buf = Buffer::new();
        t.encode(&mut buf);
        assert_eq!(buf.len(), t.wire_len());
        let t2 = DescriptorTable::decode(&mut buf).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn decode_rejects_corrupt_count() {
        let mut buf = Buffer::new();
        buf.put_u16(9999);
        assert!(DescriptorTable::decode(&mut buf).is_err());
    }

    #[test]
    fn decode_rejects_truncated_entry() {
        let mut buf = Buffer::new();
        buf.put_u16(1);
        buf.put_u16(MethodId::TCP.0);
        buf.put_u16(50); // claims 50 data bytes
        buf.put_raw(&[0; 10]);
        assert!(DescriptorTable::decode(&mut buf).is_err());
    }

    #[test]
    fn method_display_names() {
        assert_eq!(MethodId::TCP.to_string(), "tcp");
        assert_eq!(MethodId(0x200).to_string(), "method#512");
    }

    #[test]
    fn wire_len_is_tens_of_bytes_for_typical_tables() {
        // The paper's claim that a descriptor table costs "a few tens of
        // bytes" should hold for a realistic method mix.
        let t: DescriptorTable = [
            d(MethodId::MPL, b"sess:12,node:5"),
            d(MethodId::TCP, b"10.0.0.5:7000"),
            d(MethodId::SHMEM, b"seg:3"),
        ]
        .into_iter()
        .collect();
        assert!(t.wire_len() < 64, "wire_len = {}", t.wire_len());
    }
}
