//! Decoder totality for the RSR frame, the startpoint and descriptor
//! table, and the stripe and bulk wire formats.
//!
//! Arbitrary bytes, and valid frames, chunks or announces with one field
//! broken, fed to `Rsr::decode_shared`, `Startpoint::unpack_standalone`,
//! `DescriptorTable::decode`, `StripeAssembler::ingest`,
//! `BulkHandle::parse` and `bulk::parse_announce`, must come back as
//! `Err` — never a panic, and
//! never an allocation sized from a length the bytes merely claim. A
//! global allocator records the largest single request the process makes;
//! every input here is at most a few hundred bytes, so an allocation sized
//! from a claimed `body_len` or region length shows at once.

use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::bulk::{parse_announce, BulkHandle, HANDLE_LEN};
use nexus_rt::context::ContextId;
use nexus_rt::descriptor::DescriptorTable;
use nexus_rt::endpoint::EndpointId;
use nexus_rt::rsr::{Rsr, HEADER_LEN};
use nexus_rt::startpoint::Startpoint;
use nexus_rt::stripe::{StripeAssembler, StripeMeta, MAX_CHUNKS, META_LEN};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct LargestAlloc;

// SAFETY: every method delegates to `System`; recording the requested size
// has no effect on the memory returned or freed.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// No allocation in this binary may reach this size: the inputs are tiny,
/// and the claimed lengths under test are far larger.
const ALLOC_LIMIT: usize = 64 * 1024;

fn assert_no_claimed_allocation() {
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < ALLOC_LIMIT,
        "an allocation of {largest} B followed a claimed length"
    );
}

fn chunk(meta: StripeMeta, data: &[u8]) -> Bytes {
    let mut v = meta.to_bytes().to_vec();
    v.extend_from_slice(data);
    Bytes::from(v)
}

/// Feeds `payload` to `asm` and, if it completes a transfer, assembles
/// the body: whatever the bytes, the answer is a value, not a panic.
fn ingest_fully(asm: &StripeAssembler, payload: Bytes) -> Result<Option<Bytes>, ()> {
    match asm.ingest(payload) {
        Ok(Some(done)) => asm.assemble_body(done).map(Some).map_err(|_| ()),
        Ok(None) => Ok(None),
        Err(_) => Err(()),
    }
}

/// One broken field of a valid two-chunk transfer (see `broken_chunk`).
const MUTATIONS: u8 = 8;

/// The `valid` chunk with one field broken by mutation `kind`; `data` is
/// its data section.
fn broken_chunk(kind: u8, valid: StripeMeta, data: &[u8], noise: u32) -> Bytes {
    let body_len = valid.body_len;
    let meta = match kind {
        // Short header: cut anywhere inside the 20 header bytes.
        0 => {
            let cut = noise as usize % META_LEN;
            return Bytes::copy_from_slice(&valid.to_bytes()[..cut]);
        }
        1 => StripeMeta { total: 0, ..valid },
        2 => StripeMeta {
            total: (MAX_CHUNKS as u32 + 1 + noise % 1000) as u16,
            ..valid
        },
        3 => StripeMeta {
            index: 2 + (noise % 100) as u16,
            ..valid
        },
        // The data runs past the body's end, or the offset wraps.
        4 => StripeMeta {
            offset: body_len - data.len() as u32 + 1 + noise % 16,
            ..valid
        },
        5 => StripeMeta {
            offset: u32::MAX - noise % 16,
            ..valid
        },
        // A whole transfer of its own, header only, claiming an empty body
        // (with data, the bound above already refuses it).
        6 => {
            let empty = StripeMeta {
                transfer_id: valid.transfer_id + 1,
                index: 0,
                total: 1,
                body_len: 0,
                offset: 0,
            };
            return chunk(empty, &[]);
        }
        // Disagrees with the transfer chunk 0 opened.
        _ => StripeMeta {
            body_len: body_len + 1 + noise % 1000,
            ..valid
        },
    };
    chunk(meta, data)
}

/// A valid frame carrying `payload` to handler `name` (letters, from
/// `0..26` codes).
fn frame(name: &[u8], payload: &[u8]) -> Vec<u8> {
    let name: String = name.iter().map(|&c| char::from(b'a' + c % 26)).collect();
    Rsr::new(
        ContextId(4),
        EndpointId(9),
        &name,
        Bytes::copy_from_slice(payload),
    )
    .encode()
    .to_vec()
}

/// One broken field of a valid frame (see `broken_frame`).
const FRAME_MUTATIONS: u8 = 6;

/// The valid frame `v` (non-empty handler name) with one field broken by
/// mutation `kind`.
fn broken_frame(kind: u8, mut v: Vec<u8>, noise: u32) -> Vec<u8> {
    // The body follows the header: `hlen` (u16), the name, `plen` (u32),
    // the payload.
    let at = HEADER_LEN;
    let hlen = usize::from(u16::from_le_bytes([v[at], v[at + 1]]));
    let plen_at = at + 2 + hlen;
    match kind {
        // A bad tag: the magic byte is not the RSR's.
        0 => v[0] ^= 1 + (noise % 255) as u8,
        // `hlen` points past the end of the frame.
        1 => {
            let past = (v.len() - at - 2 + 1 + noise as usize % 1000) as u16;
            v[at..at + 2].copy_from_slice(&past.to_le_bytes());
        }
        // Truncated anywhere, the header included.
        2 => v.truncate(noise as usize % v.len()),
        // `plen` claims more or fewer bytes than follow it.
        3 => {
            let plen = u32::from_le_bytes(v[plen_at..plen_at + 4].try_into().unwrap());
            let wrong = plen ^ (1 + noise % u32::from(u16::MAX));
            v[plen_at..plen_at + 4].copy_from_slice(&wrong.to_le_bytes());
        }
        // A byte after the payload.
        4 => v.push(noise as u8),
        // The handler name is not UTF-8.
        _ => v[at + 2] = 0xFF,
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic `Rsr::decode_shared`; half the cases
    /// carry the RSR magic, to get past the first check. The decoder
    /// accepts only a real frame: what it returns encodes back to exactly
    /// the bytes it was given.
    #[test]
    fn arbitrary_frame_bytes_are_total(
        raw in proptest::collection::vec(any::<u8>(), 0..96),
        magic in any::<bool>(),
    ) {
        let mut raw = raw;
        if magic && !raw.is_empty() {
            raw[0] = frame(&[0], &[])[0];
        }
        if let Ok(rsr) = Rsr::decode_shared(Bytes::from(raw.clone())) {
            prop_assert_eq!(&rsr.encode()[..], &raw[..]);
        }
        assert_no_claimed_allocation();
    }

    /// Arbitrary bytes behind a link count of at most 4 096 (the most the
    /// decoder accepts) never panic `Startpoint::unpack_standalone`, and
    /// the count reserves nothing the bytes cannot hold: a link takes at
    /// least 13 bytes. What it accepts is exactly what it consumed.
    #[test]
    fn arbitrary_startpoint_bytes_are_total(
        count in 0u16..4097,
        tail in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut raw = count.to_le_bytes().to_vec();
        raw.extend_from_slice(&tail);
        let mut buf = Buffer::from_bytes(Bytes::from(raw.clone()));
        if let Ok(sp) = Startpoint::unpack_standalone(&mut buf) {
            prop_assert_eq!(sp.wire_len(), raw.len() - buf.remaining());
        }
        assert_no_claimed_allocation();
    }

    /// Arbitrary bytes never panic `DescriptorTable::decode`; what it
    /// accepts is exactly what it consumed.
    #[test]
    fn arbitrary_descriptor_table_bytes_are_total(
        raw in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut buf = Buffer::from_bytes(Bytes::from(raw.clone()));
        if let Ok(table) = DescriptorTable::decode(&mut buf) {
            prop_assert_eq!(table.wire_len(), raw.len() - buf.remaining());
        }
        assert_no_claimed_allocation();
    }

    /// Every mutation class of a valid frame is refused with `Err`.
    #[test]
    fn mutated_frames_are_refused(
        kind in 0u8..FRAME_MUTATIONS,
        name in proptest::collection::vec(0u8..26, 1..12),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        noise in any::<u32>(),
    ) {
        let valid = frame(&name, &payload);
        prop_assert!(Rsr::decode_shared(Bytes::from(valid.clone())).is_ok());
        let bad = broken_frame(kind, valid, noise);
        prop_assert!(
            Rsr::decode_shared(Bytes::from(bad)).is_err(),
            "mutation {kind} accepted"
        );
        assert_no_claimed_allocation();
    }

    /// Arbitrary bytes — including valid-looking headers with arbitrary
    /// fields — never panic the assembler or size a body from a claim.
    #[test]
    fn arbitrary_chunk_bytes_are_total(
        raw in proptest::collection::vec(any::<u8>(), 0..96),
        total in 0u16..80,
        index in 0u16..80,
        body_len in any::<u32>(),
        offset in any::<u32>(),
    ) {
        let asm = StripeAssembler::new();
        let _ = ingest_fully(&asm, Bytes::from(raw.clone()));
        let meta = StripeMeta { transfer_id: 3, index, total, body_len, offset };
        let _ = ingest_fully(&asm, chunk(meta, &raw));
        assert_no_claimed_allocation();
    }

    /// Every mutation class of a valid chunk is refused with `Err`.
    #[test]
    fn mutated_chunks_are_refused(
        kind in 0u8..MUTATIONS,
        half in 1u32..128,
        noise in any::<u32>(),
    ) {
        let body_len = 2 * half;
        let body: Vec<u8> = (0..body_len).map(|i| i as u8).collect();
        let (first, second) = body.split_at(half as usize);
        let asm = StripeAssembler::new();
        let chunk0 = StripeMeta {
            transfer_id: 7,
            index: 0,
            total: 2,
            body_len,
            offset: 0,
        };
        let chunk1 = StripeMeta { index: 1, offset: half, ..chunk0 };
        prop_assert!(asm.ingest(chunk(chunk0, first)).unwrap().is_none());
        let bad = broken_chunk(kind, chunk1, second, noise);
        prop_assert!(asm.ingest(bad).is_err(), "mutation {kind} accepted");
        // The refused chunk left the transfer intact: the real one completes it.
        let done = asm.ingest(chunk(chunk1, second)).unwrap();
        prop_assert_eq!(&asm.assemble_body(done.unwrap()).unwrap()[..], &body[..]);
        assert_no_claimed_allocation();
    }

    /// A transfer whose chunks all arrive but claim a body far longer than
    /// they carry is refused at completion, before any body is allocated.
    #[test]
    fn a_claimed_body_longer_than_its_chunks_is_refused(
        data in proptest::collection::vec(any::<u8>(), 1..64),
        extra in 1u32..u32::MAX / 2,
    ) {
        let asm = StripeAssembler::new();
        let meta = StripeMeta {
            transfer_id: 9,
            index: 0,
            total: 1,
            body_len: data.len() as u32 + extra,
            offset: 0,
        };
        prop_assert!(asm.ingest(chunk(meta, &data)).is_err());
        prop_assert_eq!(asm.pending(), 0);
        assert_no_claimed_allocation();
    }

    /// `BulkHandle::parse` and `parse_announce` answer every byte string:
    /// `Err` when too short, and only the stated fields otherwise.
    #[test]
    fn arbitrary_announce_bytes_are_total(
        raw in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let handle = BulkHandle::parse(&raw);
        prop_assert_eq!(handle.is_ok(), raw.len() >= HANDLE_LEN);
        if let Ok((h, name)) = parse_announce(&raw) {
            prop_assert_eq!(h, handle.unwrap());
            prop_assert!(!name.is_empty() && !name.starts_with('#'));
        }
        assert_no_claimed_allocation();
    }

    /// Mutated announces — cut short, an empty, reserved or non-UTF-8
    /// name — are refused, whatever region length they claim.
    #[test]
    fn mutated_announces_are_refused(
        kind in 0u8..4,
        cut in 0usize..HANDLE_LEN,
        len in any::<u64>(),
    ) {
        let handle = BulkHandle { region: 5, len, origin: ContextId(2), hints: 0 };
        let mut v = handle.to_bytes().to_vec();
        match kind {
            0 => v.truncate(cut),
            1 => {}
            2 => v.extend_from_slice(b"#stripe"),
            _ => v.extend_from_slice(&[0xC3, 0x28]),
        }
        prop_assert!(parse_announce(&v).is_err(), "mutation {kind} accepted");
        assert_no_claimed_allocation();
    }
}
