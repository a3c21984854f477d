//! The file backend's charge path does not touch the heap.
//!
//! A probe on the file backend charges about four device reads; each
//! is a `pread` plus a checksum, and a `malloc` per read (or three,
//! as before the in-place slot frame) is time the ladder books to the
//! device. This binary installs a counting allocator — which is why it
//! is a test binary of its own — and counts what one thread allocates
//! between two points.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bftree_storage::file::{FileStore, ScratchDir, SyncPolicy};
use bftree_storage::{DeviceKind, PageDevice};

thread_local! {
    /// Allocations made by this thread (const-initialised and without
    /// a destructor, so the allocator can touch it at any time).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const PAGES: u64 = 64;

fn warmed_device(tag: &str) -> (ScratchDir, Arc<FileStore>, PageDevice) {
    let dir = ScratchDir::new(tag).expect("temp dir");
    let store = Arc::new(
        FileStore::create(dir.path().join("pages.bfs"), SyncPolicy::Deferred).expect("store"),
    );
    let device = PageDevice::cold(DeviceKind::Ssd).with_store(Arc::clone(&store));
    // Warm-up: the first read of a page materializes it (a map
    // insertion, a superblock write).
    for page in 0..PAGES {
        device.read_random(page);
    }
    (dir, store, device)
}

#[test]
fn charges_of_materialized_pages_allocate_nothing() {
    let (_dir, store, device) = warmed_device("charge-allocs");
    let before = store.wall();
    let allocs = allocations_in(|| {
        for i in 0..1_000u64 {
            device.read_random(i.wrapping_mul(0x9E37_79B9) % PAGES);
        }
        for i in 0..100u64 {
            device.write(i % PAGES);
        }
    });
    let did = store.wall().since(&before);
    assert_eq!(
        (did.reads, did.writes, did.materialized),
        (1_000, 100, 0),
        "every charge reached the file"
    );
    assert_eq!(
        store.fault_stats().snapshot(),
        Default::default(),
        "no charge failed or retried"
    );
    assert_eq!(allocs, 0, "1000 charged reads + 100 charged writes");
}

#[test]
fn read_page_allocates_only_the_vec_it_returns() {
    let (_dir, store, _device) = warmed_device("read-page-allocs");
    let mut payload = Vec::new();
    let allocs = allocations_in(|| payload = store.read_page(3).expect("verified read"));
    assert_eq!(payload.len(), bftree_storage::PAGE_SIZE);
    assert!(allocs <= 1, "read_page made {allocs} allocations");
    let allocs = allocations_in(|| payload = store.read_page_verified(3).expect("verified read"));
    assert!(allocs <= 1, "read_page_verified made {allocs} allocations");
}
