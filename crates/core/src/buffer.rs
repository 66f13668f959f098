//! Typed data buffers for remote service requests.
//!
//! A [`Buffer`] is the unit of data supplied to an RSR. Following the Nexus
//! design it supports typed `put_*` / `get_*` operations in a fixed,
//! explicit wire format (little-endian, untagged): the reader must issue
//! `get` calls in the same order and with the same types as the writer's
//! `put` calls. This mirrors the XDR-style packing used by 1990s
//! communication libraries while staying cheap enough for hot paths.
//!
//! Buffers are also used internally to carry descriptor tables and
//! serialized startpoints, which is what makes startpoints *mobile*:
//! [`crate::startpoint::Startpoint::pack`] writes into a buffer, and a
//! handler on the receiving side reconstructs it with
//! [`crate::startpoint::Startpoint::unpack`].
//!
//! # Ownership modes
//!
//! A buffer is in one of two modes. A buffer being *written* (fresh
//! [`Buffer::new`]) owns growable storage. A buffer being *read* — built by
//! [`Buffer::from_bytes`], which is how dispatch hands a received payload
//! to a handler — is a **shared view** of refcounted storage: constructing
//! it is O(1) and copies nothing, and [`Buffer::get_bytes`] /
//! [`Buffer::get_blob`] hand out sub-views of the same storage without
//! copying. Reads work identically in both modes. The first `put_*` on a
//! shared buffer converts it to owned storage with one copy, so mixed use
//! stays correct — it just pays the copy that pure readers avoid.

use crate::error::{NexusError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Backing storage for a [`Buffer`]: growable owned bytes for writers,
/// a refcounted view for readers on the zero-copy receive path.
#[derive(Debug, Clone)]
enum Store {
    /// Locally written, growable storage.
    Owned(BytesMut),
    /// A shared view of received wire bytes (never copied on read).
    Shared(Bytes),
}

impl Default for Store {
    fn default() -> Self {
        Store::Owned(BytesMut::new())
    }
}

/// A typed, sequentially read/written data buffer.
///
/// Writes append to the end; reads consume from a cursor that starts at the
/// beginning. A buffer received by a handler starts with the cursor at the
/// first byte the sender wrote.
#[derive(Debug, Default, Clone)]
pub struct Buffer {
    store: Store,
    read: usize,
}

impl Buffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with room for `cap` bytes before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Buffer {
            store: Store::Owned(BytesMut::with_capacity(cap)),
            read: 0,
        }
    }

    /// Wraps raw wire bytes as a shared read view (cursor at the start).
    /// O(1): the buffer references `bytes`' storage rather than copying it.
    pub fn from_bytes(bytes: Bytes) -> Self {
        Buffer {
            store: Store::Shared(bytes),
            read: 0,
        }
    }

    /// Total number of bytes written.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Number of bytes not yet consumed by `get_*` calls.
    pub fn remaining(&self) -> usize {
        self.len() - self.read
    }

    /// Consumes the buffer, yielding its wire bytes. O(1) in both modes:
    /// owned storage is frozen in place, shared storage is handed back.
    pub fn into_bytes(self) -> Bytes {
        match self.store {
            Store::Owned(data) => data.freeze(),
            Store::Shared(bytes) => bytes,
        }
    }

    /// The full written contents as a slice (ignores the read cursor).
    pub fn as_slice(&self) -> &[u8] {
        self.bytes()
    }

    /// Resets the read cursor to the start of the buffer.
    pub fn rewind(&mut self) {
        self.read = 0;
    }

    fn bytes(&self) -> &[u8] {
        match &self.store {
            Store::Owned(data) => data,
            Store::Shared(bytes) => bytes,
        }
    }

    /// Writable storage, converting a shared view to owned bytes first.
    /// The conversion is the one copy a read-then-written buffer pays.
    fn data_mut(&mut self) -> &mut BytesMut {
        if let Store::Shared(bytes) = &self.store {
            self.store = Store::Owned(BytesMut::from(&bytes[..]));
        }
        match &mut self.store {
            Store::Owned(data) => data,
            Store::Shared(_) => unreachable!("shared store was just converted"),
        }
    }

    fn check(&self, needed: usize) -> Result<()> {
        let remaining = self.remaining();
        if remaining < needed {
            Err(NexusError::BufferUnderflow { needed, remaining })
        } else {
            Ok(())
        }
    }

    // -- scalar puts -------------------------------------------------------

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.data_mut().put_u8(v);
    }

    /// Appends a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.data_mut().put_u16_le(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.data_mut().put_u32_le(v);
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.data_mut().put_u64_le(v);
    }

    /// Appends an `i32` (little-endian, two's complement).
    pub fn put_i32(&mut self, v: i32) {
        self.data_mut().put_i32_le(v);
    }

    /// Appends an `i64` (little-endian, two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.data_mut().put_i64_le(v);
    }

    /// Appends an `f32` (IEEE-754, little-endian).
    pub fn put_f32(&mut self, v: f32) {
        self.data_mut().put_f32_le(v);
    }

    /// Appends an `f64` (IEEE-754, little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.data_mut().put_f64_le(v);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.data_mut().put_u8(v as u8);
    }

    // -- scalar gets -------------------------------------------------------

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        self.check(1)?;
        let v = self.bytes()[self.read];
        self.read += 1;
        Ok(v)
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        self.check(2)?;
        let mut s = &self.bytes()[self.read..];
        let v = s.get_u16_le();
        self.read += 2;
        Ok(v)
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        self.check(4)?;
        let mut s = &self.bytes()[self.read..];
        let v = s.get_u32_le();
        self.read += 4;
        Ok(v)
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        self.check(8)?;
        let mut s = &self.bytes()[self.read..];
        let v = s.get_u64_le();
        self.read += 8;
        Ok(v)
    }

    /// Reads an `i32`.
    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f32`.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`; any nonzero byte is `true`.
    pub fn get_bool(&mut self) -> Result<bool> {
        Ok(self.get_u8()? != 0)
    }

    // -- composite puts/gets ----------------------------------------------

    /// Appends a length-prefixed UTF-8 string (u32 length).
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.data_mut().put_slice(s.as_bytes());
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_u32()? as usize;
        self.check(len)?;
        let bytes = &self.bytes()[self.read..self.read + len];
        let s = std::str::from_utf8(bytes)
            .map_err(|_| NexusError::Decode("invalid UTF-8 in string"))?
            .to_owned();
        self.read += len;
        Ok(s)
    }

    /// Appends a length-prefixed byte slice (u32 length). Read it back
    /// with [`Buffer::get_blob`].
    pub fn put_blob(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.data_mut().put_slice(b);
    }

    /// Reads a length-prefixed byte slice written by [`Buffer::put_blob`].
    /// Zero-copy on a shared buffer (the result views the same storage).
    pub fn get_blob(&mut self) -> Result<Bytes> {
        let len = self.get_u32()? as usize;
        self.get_bytes(len)
    }

    /// Appends raw bytes with no length prefix (reader must know the count).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.data_mut().put_slice(b);
    }

    /// Reads `len` raw bytes without copying them when the buffer is a
    /// shared view (the common case for received payloads): the result is
    /// a [`Bytes`] sub-view of the same storage. On an owned (locally
    /// written) buffer this copies, like [`Buffer::get_raw`].
    pub fn get_bytes(&mut self, len: usize) -> Result<Bytes> {
        self.check(len)?;
        let start = self.read;
        self.read += len;
        Ok(match &self.store {
            Store::Shared(bytes) => bytes.slice(start..start + len),
            Store::Owned(data) => Bytes::copy_from_slice(&data[start..start + len]),
        })
    }

    /// Reads `len` raw bytes into a fresh `Vec`. Always copies; prefer
    /// [`Buffer::get_bytes`] on hot paths, which returns a view instead.
    pub fn get_raw(&mut self, len: usize) -> Result<Vec<u8>> {
        self.check(len)?;
        let v = self.bytes()[self.read..self.read + len].to_vec();
        self.read += len;
        Ok(v)
    }

    /// Appends a length-prefixed `f64` array. This is the workhorse for the
    /// scientific workloads (halo exchanges, coupling fields).
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u32(v.len() as u32);
        let data = self.data_mut();
        data.reserve(v.len() * 8);
        for &x in v {
            data.put_f64_le(x);
        }
    }

    /// Reads a length-prefixed `f64` array.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>> {
        let len = self.get_u32()? as usize;
        self.check(len.saturating_mul(8))?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `f64` array into a caller-provided slice,
    /// avoiding an allocation. The destination length must match exactly.
    pub fn get_f64_into(&mut self, dst: &mut [f64]) -> Result<()> {
        let len = self.get_u32()? as usize;
        if len != dst.len() {
            return Err(NexusError::Decode("f64 array length mismatch"));
        }
        self.check(len.saturating_mul(8))?;
        for slot in dst.iter_mut() {
            *slot = self.get_f64()?;
        }
        Ok(())
    }

    /// Appends a length-prefixed `u32` array.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u32(v.len() as u32);
        let data = self.data_mut();
        data.reserve(v.len() * 4);
        for &x in v {
            data.put_u32_le(x);
        }
    }

    /// Reads a length-prefixed `u32` array.
    pub fn get_u32_slice(&mut self) -> Result<Vec<u32>> {
        let len = self.get_u32()? as usize;
        self.check(len.saturating_mul(4))?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut b = Buffer::new();
        b.put_u8(7);
        b.put_u16(300);
        b.put_u32(70_000);
        b.put_u64(u64::MAX - 1);
        b.put_i32(-5);
        b.put_i64(i64::MIN);
        b.put_f32(1.5);
        b.put_f64(std::f64::consts::PI);
        b.put_bool(true);
        assert_eq!(b.get_u8().unwrap(), 7);
        assert_eq!(b.get_u16().unwrap(), 300);
        assert_eq!(b.get_u32().unwrap(), 70_000);
        assert_eq!(b.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(b.get_i32().unwrap(), -5);
        assert_eq!(b.get_i64().unwrap(), i64::MIN);
        assert_eq!(b.get_f32().unwrap(), 1.5);
        assert_eq!(b.get_f64().unwrap(), std::f64::consts::PI);
        assert!(b.get_bool().unwrap());
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn string_and_blob_roundtrip() {
        let mut b = Buffer::new();
        b.put_str("héllo, nexus");
        b.put_blob(&[1, 2, 3]);
        b.put_str("");
        assert_eq!(b.get_str().unwrap(), "héllo, nexus");
        assert_eq!(b.get_blob().unwrap(), vec![1, 2, 3]);
        assert_eq!(b.get_str().unwrap(), "");
    }

    #[test]
    fn slice_roundtrip() {
        let mut b = Buffer::new();
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        b.put_f64_slice(&xs);
        b.put_u32_slice(&[9, 8, 7]);
        assert_eq!(b.get_f64_slice().unwrap(), xs);
        assert_eq!(b.get_u32_slice().unwrap(), vec![9, 8, 7]);
    }

    #[test]
    fn get_f64_into_checks_length() {
        let mut b = Buffer::new();
        b.put_f64_slice(&[1.0, 2.0]);
        let mut dst = [0.0; 3];
        assert!(b.get_f64_into(&mut dst).is_err());
    }

    #[test]
    fn underflow_reports_sizes() {
        let mut b = Buffer::new();
        b.put_u8(1);
        b.get_u8().unwrap();
        match b.get_u32() {
            Err(NexusError::BufferUnderflow { needed, remaining }) => {
                assert_eq!(needed, 4);
                assert_eq!(remaining, 0);
            }
            other => panic!("expected underflow, got {other:?}"),
        }
    }

    #[test]
    fn truncated_string_is_an_error_not_a_panic() {
        let mut b = Buffer::new();
        b.put_u32(100); // claims 100 bytes follow
        b.put_raw(&[b'x'; 4]);
        assert!(b.get_str().is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut b = Buffer::new();
        b.put_blob(&[0xff, 0xfe]);
        b.rewind();
        assert!(b.get_str().is_err());
    }

    #[test]
    fn rewind_allows_rereading() {
        let mut b = Buffer::new();
        b.put_u32(42);
        assert_eq!(b.get_u32().unwrap(), 42);
        b.rewind();
        assert_eq!(b.get_u32().unwrap(), 42);
    }

    #[test]
    fn bytes_roundtrip_through_wire() {
        let mut b = Buffer::new();
        b.put_str("wire");
        b.put_u64(99);
        let wire = b.into_bytes();
        let mut rx = Buffer::from_bytes(wire);
        assert_eq!(rx.get_str().unwrap(), "wire");
        assert_eq!(rx.get_u64().unwrap(), 99);
    }

    #[test]
    fn raw_roundtrip() {
        let mut b = Buffer::new();
        b.put_raw(&[5, 6, 7, 8]);
        assert_eq!(b.get_raw(2).unwrap(), vec![5, 6]);
        assert_eq!(b.get_raw(2).unwrap(), vec![7, 8]);
        assert!(b.get_raw(1).is_err());
    }

    #[test]
    fn from_bytes_is_a_view_not_a_copy() {
        let wire = Bytes::from(vec![1u8, 2, 3, 4, 5, 6, 7, 8]);
        let wire_ptr = wire.as_ref().as_ptr();
        let mut b = Buffer::from_bytes(wire);
        assert_eq!(b.as_slice().as_ptr(), wire_ptr, "shared, not copied");
        // get_bytes returns a sub-view of the same storage.
        let view = b.get_bytes(4).unwrap();
        assert_eq!(view.as_ref().as_ptr(), wire_ptr);
        assert_eq!(view, vec![1, 2, 3, 4]);
        // get_blob also views: reread a prefixed layout.
        let mut w = Buffer::new();
        w.put_blob(b"payload");
        let frozen = w.into_bytes();
        let base = frozen.as_ref().as_ptr() as usize;
        let mut r = Buffer::from_bytes(frozen);
        let blob = r.get_blob().unwrap();
        assert_eq!(blob.as_ref().as_ptr() as usize, base + 4);
        assert_eq!(blob, b"payload"[..]);
    }

    #[test]
    fn writing_to_a_shared_buffer_converts_it() {
        let mut b = Buffer::from_bytes(Bytes::from(vec![9u8, 8]));
        b.put_u8(7); // triggers the one documented copy-on-write
        assert_eq!(b.as_slice(), &[9, 8, 7]);
        assert_eq!(b.get_u8().unwrap(), 9);
        assert_eq!(b.get_u8().unwrap(), 8);
        assert_eq!(b.get_u8().unwrap(), 7);
    }

    #[test]
    fn shared_buffer_into_bytes_is_identity() {
        let wire = Bytes::from(vec![1u8, 2, 3]);
        let ptr = wire.as_ref().as_ptr();
        let b = Buffer::from_bytes(wire);
        let back = b.into_bytes();
        assert_eq!(back.as_ref().as_ptr(), ptr);
    }
}
