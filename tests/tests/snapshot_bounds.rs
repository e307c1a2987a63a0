//! The snapshot reader checks every size it reads against the bytes left
//! before it allocates for it. Over the committed golden `LMKGSET1` sets,
//! a `u32` patched to `0x7FFF_FFFF`, `0xFFFF_FFFF` or 0 at any byte offset
//! of the `s` sets, or in the header and entry header of the `u` sets, and
//! every truncation of the `s` sets, loads as `Ok` or a typed error: never
//! an abort, never a panic. A counting global allocator records the largest
//! single allocation request, which must stay within [`LIMIT`] × the
//! fixture's length. A network of a million one-byte stage tags is refused
//! within the same bound.
//!
//! Sizes read from a file must be checked the same way in debug builds,
//! where overflowing arithmetic panics, and in release builds, where it
//! wraps, so CI runs this binary in both.

use lmkg::{Lmkg, SnapshotError};
use lmkg_integration_tests::golden_fixture_path;
use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The largest single request a load may make, as a multiple of the
/// length of the snapshot it reads.
const LIMIT: usize = 8;

/// Requests above this are refused (the process then aborts with the
/// size), so a regression fails without reserving the memory it asks for.
const REFUSE_ABOVE: usize = 1 << 30;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// `System`, recording the largest single request.
struct Counting;

impl Counting {
    fn admit(size: usize) -> bool {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        size <= REFUSE_ABOVE
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, or returns null, which `GlobalAlloc` allows for a failed
// request; recording a size touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !Self::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !Self::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this allocator)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !Self::admit(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` and `layout` are as for `dealloc`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Loads `bytes`, failing the test with `what` if the load panics.
fn load(bytes: &[u8], what: impl Fn() -> String) -> Result<Lmkg, SnapshotError> {
    panic::catch_unwind(AssertUnwindSafe(|| Lmkg::load(&mut &bytes[..])))
        .unwrap_or_else(|_| panic!("{}: the load panicked", what()))
}

/// Loads `bytes` with a `u32` patched to each probe value at every offset
/// in `offsets` (clipped at the end of the file).
fn load_patched(name: &str, bytes: &[u8], offsets: Range<usize>) {
    let mut patched = bytes.to_vec();
    for at in offsets {
        let end = (at + 4).min(bytes.len());
        for value in [0x7FFF_FFFFu32, 0xFFFF_FFFF, 0] {
            patched[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
            let _ = load(&patched, || format!("{name}: {value:#x} at byte {at}"));
        }
        patched[at..end].copy_from_slice(&bytes[at..end]);
    }
}

/// Where the summary's per-predicate vectors end and the covered size and
/// entry count begin: magic, version, three u64 counts, three u64 vectors.
fn summary_end(bytes: &[u8]) -> usize {
    let num_preds = u64::from_le_bytes(bytes[20..28].try_into().unwrap()) as usize;
    36 + 24 * num_preds
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(golden_fixture_path(name, "bin")).expect("committed golden set")
}

/// Runs `loads` over one fixture, then asserts and prints the largest
/// single allocation request it made.
fn gate(name: &str, loads: impl FnOnce(&[u8])) {
    let bytes = fixture(name);
    load(&bytes, || format!("{name}: unpatched")).unwrap_or_else(|e| panic!("{name} loads: {e}"));
    measure(name, bytes.len(), || loads(&bytes));
}

/// Runs `loads`, then asserts and prints the largest single allocation
/// request it made against the `len` bytes of the file it reads.
fn measure(name: &str, len: usize, loads: impl FnOnce()) {
    LARGEST.store(0, Ordering::Relaxed);
    let started = std::time::Instant::now();
    loads();
    let largest = LARGEST.load(Ordering::Relaxed);
    println!(
        "{name}: {len} bytes, largest request {largest} bytes ({:.2}× the file), {:.1} s",
        largest as f64 / len as f64,
        started.elapsed().as_secs_f64()
    );
    assert!(
        largest <= LIMIT * len,
        "{name}: a load asked for {largest} bytes at once, over {LIMIT}× its {len} bytes"
    );
}

#[test]
fn patched_and_truncated_snapshots_load_within_their_length() {
    for name in ["s_f32", "s_int8", "s_bf16"] {
        gate(name, |bytes| {
            load_patched(name, bytes, 0..bytes.len());
            for cut in 0..bytes.len() {
                let loaded = load(&bytes[..cut], || format!("{name}: first {cut} bytes"));
                assert!(loaded.is_err(), "{name}: the first {cut} bytes loaded");
            }
        });
    }
    // The `u` sets are large, so only their sizes and tags: the header's
    // counts, covered size and entry count, and the entry's fields up to its
    // nested model plus that model's first 64 bytes (magic, counts,
    // shapes). The summary's vectors in between are values, not sizes.
    for (name, nested) in [("u_f32", b"LMKGNN1\0"), ("u_int8", b"LMKGQM1\0")] {
        gate(name, |bytes| {
            let counts = summary_end(bytes);
            assert_eq!(
                bytes[counts + 4..counts + 8],
                1u32.to_le_bytes(),
                "{name} holds one entry"
            );
            let model = bytes
                .windows(8)
                .position(|w| w == nested)
                .expect("the entry's nested model");
            load_patched(name, bytes, 0..36);
            load_patched(name, bytes, counts..model + 8 + 64);
        });
    }
    // Every stage tag is one byte but becomes a whole in-memory stage, so
    // the bytes left cannot bound the stage count: the `s_int8` set's
    // network replaced by a million ReLU tags must be refused, not built.
    let bytes = fixture("s_int8");
    let network = bytes
        .windows(8)
        .position(|w| w == b"LMKGQT1\0")
        .expect("the entry's nested network");
    let mut crafted = bytes[..network + 9].to_vec(); // magic and mode tag
    crafted.extend(1_000_000u32.to_le_bytes());
    crafted.resize(crafted.len() + 1_000_000, 1);
    measure("s_int8 with 1,000,000 ReLU tags", crafted.len(), || {
        let loaded = load(&crafted, || "s_int8 with 1,000,000 ReLU tags".into());
        assert!(loaded.is_err(), "a million-stage network loaded");
    });
}
