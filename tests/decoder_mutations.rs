//! One mutation battery over every decoder of stored or received bytes.
//!
//! Each decoder is handed every mutant `rand::mutate::each_mutant`
//! makes of its valid images: every truncation, every bit flip, every
//! aligned `u32` / `u64` overwritten with a boundary value, and seeded
//! splices of two valid images. Every case must end in a typed error or
//! a value, never a panic or an abort, and a decoded value must
//! survive its own encoding: `decode(encode(v)) == v`.

use bftree::{BfLeaf, BfTreeConfig, BitAllocation, PageImageError};
use bftree_access::Continuation;
use bftree_bloom::BloomGroup;
use bftree_net::{read_frame, write_frame, RemoteError, Request, Response, StatsReply};
use bftree_shard::{ShardPlan, ShardedContinuation};
use bftree_storage::{DeviceError, FileStore, ScratchDir, SyncPolicy, PAGE_HEADER, PAGE_SIZE};
use bftree_wal::{TailState, WalReader, WalRecord};
use rand::mutate::each_mutant;

const SPLICES: usize = 64;

/// Feed every mutant of each image to `check`; the splice partner of an
/// image is the next one.
fn battery(images: &[Vec<u8>], mut check: impl FnMut(&[u8])) {
    for (i, image) in images.iter().enumerate() {
        let other = &images[(i + 1) % images.len()];
        each_mutant(image, other, 0xDEC0 + i as u64, SPLICES, &mut check);
    }
}

fn records() -> Vec<WalRecord> {
    vec![
        WalRecord::Checkpoint {
            tuple_count: 1_000,
            flushed_ops: 0,
        },
        WalRecord::Insert {
            key: 42,
            page: 7,
            slot: 3,
        },
        WalRecord::Delete { key: u64::MAX },
        WalRecord::Checkpoint {
            tuple_count: 1_001,
            flushed_ops: 2,
        },
    ]
}

#[test]
fn wal_drain_keeps_exactly_a_prefix_of_whole_records() {
    let mut log = Vec::new();
    for rec in records() {
        rec.encode_frame(&mut log);
    }
    let mut short = Vec::new();
    records()[1].encode_frame(&mut short);
    battery(&[log, short], |bytes| {
        let (recs, tail) = WalReader::drain(bytes);
        let valid_len = match tail {
            TailState::Clean => bytes.len(),
            TailState::Torn { valid_len } => valid_len,
        };
        let mut again = Vec::new();
        for &(end, rec) in &recs {
            rec.encode_frame(&mut again);
            assert_eq!(end, again.len());
        }
        assert_eq!(again, bytes[..valid_len]);
    });
}

#[test]
fn wal_payloads_decode_or_refuse() {
    let payloads: Vec<Vec<u8>> = records()
        .iter()
        .map(|rec| {
            let mut p = Vec::new();
            rec.encode_payload(&mut p);
            p
        })
        .collect();
    battery(&payloads, |bytes| {
        if let Ok(rec) = WalRecord::decode_payload(bytes) {
            let mut p = Vec::new();
            rec.encode_payload(&mut p);
            assert_eq!(WalRecord::decode_payload(&p), Ok(rec));
        }
    });
}

fn requests() -> Vec<Request> {
    vec![
        Request::ProbeBatch {
            keys: vec![1, 99, u64::MAX],
        },
        Request::RangePage {
            lo: 5,
            hi: 500,
            limit: 64,
            token: Some(vec![0xAB; 9]),
        },
        Request::Insert { key: 7, attr: 70 },
        Request::Delete { key: 9 },
        Request::Stats,
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::ProbeBatch {
            probes: vec![vec![(1, 2), (3, 4)], vec![], vec![(9, 0)]],
        },
        Response::RangePage {
            matches: vec![(10, 1)],
            token: Some(vec![1; 12]),
        },
        Response::Insert { page: 77, slot: 3 },
        Response::Delete { removed: 2 },
        Response::Stats(StatsReply {
            shards: 4,
            bounds: vec![100, 200, 300],
            entries: 12_345,
            prometheus: "# HELP x\nx 1\n".into(),
        }),
        Response::Error(RemoteError::InvertedRange { lo: 9, hi: 3 }),
        Response::Error(RemoteError::Unsupported {
            what: "scan".into(),
        }),
        Response::Error(RemoteError::LayoutMismatch {
            expected_shards: 2,
            got_shards: 4,
        }),
        Response::Error(RemoteError::BoundaryMismatch),
        Response::Error(RemoteError::BadToken { why: "bad".into() }),
        Response::Error(RemoteError::Internal {
            detail: "oh no".into(),
        }),
    ]
}

#[test]
fn wire_frames_read_or_refuse() {
    let frames: Vec<Vec<u8>> = [&b""[..], b"x", &Request::Stats.encode(), &[0xA5; 300]]
        .iter()
        .map(|payload| {
            let mut wire = Vec::new();
            write_frame(&mut wire, payload).expect("small payload");
            wire
        })
        .collect();
    battery(&frames, |bytes| {
        if let Ok(Some(payload)) = read_frame(&mut { bytes }) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).expect("read payloads are in bounds");
            assert_eq!(wire, bytes[..wire.len()]);
        }
    });
}

#[test]
fn requests_decode_or_refuse() {
    let images: Vec<Vec<u8>> = requests().iter().map(Request::encode).collect();
    battery(&images, |bytes| {
        if let Ok(req) = Request::decode(bytes) {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    });
}

#[test]
fn responses_decode_or_refuse() {
    let images: Vec<Vec<u8>> = responses().iter().map(Response::encode).collect();
    battery(&images, |bytes| {
        if let Ok(resp) = Response::decode(bytes) {
            assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }
    });
}

fn continuations() -> Vec<Continuation> {
    vec![
        Continuation::from_parts(10, 500, 321, 42, 7),
        Continuation::from_parts(0, u64::MAX, u64::MAX, u64::MAX, 0),
    ]
}

#[test]
fn continuations_decode_or_refuse() {
    let images: Vec<Vec<u8>> = continuations()
        .iter()
        .map(|c| c.encode().to_vec())
        .collect();
    battery(&images, |bytes| {
        if let Ok(c) = Continuation::decode(bytes) {
            assert_eq!(Continuation::decode(&c.encode()), Ok(c));
        }
    });
}

#[test]
fn sharded_continuations_decode_or_refuse() {
    let plans = [
        ShardPlan::uniform(1_000, 4),
        ShardPlan::from_bounds(vec![100, 200, 300]),
    ];
    let images: Vec<Vec<u8>> = plans
        .iter()
        .zip(continuations())
        .map(|(plan, c)| ShardedContinuation::new(plan, c).encode().to_vec())
        .collect();
    battery(&images, |bytes| {
        if let Ok(sc) = ShardedContinuation::decode(bytes) {
            assert_eq!(ShardedContinuation::decode(&sc.encode()), Ok(sc));
        }
    });
}

/// A 512-byte node keeps the leaf's image, and so the battery, small.
#[test]
fn leaf_images_decode_or_refuse_and_decoded_leaves_probe() {
    let config = BfTreeConfig {
        page_size: 512,
        fpp: 1e-2,
        pages_per_bf: 2,
        bit_allocation: BitAllocation::Uniform,
        ..BfTreeConfig::paper_default()
    };
    let leaf = |first_pid: u64, pages: u64| {
        let pages: Vec<(u64, Vec<u64>)> = (0..pages)
            .map(|p| (first_pid + p, (p * 4..p * 4 + 4).collect()))
            .collect();
        let n = pages.len() as u64 * 4;
        BfLeaf::from_pages(&config, &pages, n)
    };
    let mut a = leaf(10, 7);
    a.next = Some(3);
    a.deletes = 2;
    let b = leaf(0, 2);
    let images: Vec<Vec<u8>> = [a, b]
        .iter()
        .map(|l| l.to_page_bytes(config.page_size).expect("fits a node"))
        .collect();
    battery(&images, |bytes| {
        let Ok(leaf) = BfLeaf::from_page_bytes(bytes, &config) else {
            return;
        };
        let mut pages = Vec::new();
        for key in [0, 5, 13, 27, u64::MAX] {
            leaf.matching_pages(key, &mut pages);
        }
        assert!(pages.len() as u64 <= 5 * leaf.n_pages());
        match leaf.to_page_bytes(config.page_size) {
            Ok(image) => {
                let again = BfLeaf::from_page_bytes(&image, &config).expect("own image");
                assert_eq!(again.to_page_bytes(config.page_size), Ok(image));
            }
            Err(e) => assert!(matches!(e, PageImageError::Overflow { .. }), "{e}"),
        }
    });
}

/// `BloomGroup::from_bytes` on the group images themselves, not only
/// behind a leaf header: a sparse leaf's (proportional, so its image
/// carries member offsets) and a full leaf's (one even size).
#[test]
fn filter_group_images_decode_or_refuse() {
    let config = |bit_allocation| BfTreeConfig {
        page_size: 512,
        fpp: 1e-2,
        bit_allocation,
        ..BfTreeConfig::paper_default()
    };
    let sparse = {
        let pages: Vec<(u64, Vec<u64>)> = (0..6u64).map(|p| (p, vec![p * 9])).collect();
        BfLeaf::from_pages(&config(BitAllocation::Proportional), &pages, 6)
    };
    let full = {
        let config = config(BitAllocation::Uniform);
        let n = config.max_keys_per_leaf();
        let pages: Vec<(u64, Vec<u64>)> = (0..4u64)
            .map(|p| (p, (p * n / 4..(p + 1) * n / 4).collect()))
            .collect();
        BfLeaf::from_pages(&config, &pages, n)
    };
    let images: Vec<Vec<u8>> = [sparse, full]
        .iter()
        .map(|l| l.group().to_bytes())
        .collect();
    battery(&images, |bytes| {
        let Some(group) = BloomGroup::from_bytes(bytes) else {
            return;
        };
        let mut buckets = Vec::new();
        for key in [0u64, 9, 27, u64::MAX] {
            group.matching_buckets_into(&key, &mut buckets);
        }
        let image = group.to_bytes();
        let again = BloomGroup::from_bytes(&image).expect("own image");
        assert_eq!(again.to_bytes(), image);
    });
}

/// The superblock is the store's one image read before any checksum:
/// whatever it claims, opening, reading and allocating must end in a
/// typed result.
#[test]
fn a_mutated_superblock_opens_or_refuses() {
    const SUPER_LEN: usize = 56;
    let dir = ScratchDir::new("superblock-mutations").expect("scratch dir");
    let image = |tag: &str, pages: u64| {
        let path = dir.path().join(tag);
        {
            let store = FileStore::create(&path, SyncPolicy::Deferred).expect("create");
            for page in 0..pages {
                store.write_page(page, b"page").expect("write");
            }
            store.free(1).expect("free");
        }
        std::fs::read(&path).expect("read back")
    };
    let file = image("a", 3);
    let images = [
        file[..SUPER_LEN].to_vec(),
        image("b", 5)[..SUPER_LEN].to_vec(),
    ];
    let path = dir.path().join("mutant");
    battery(&images, |sb| {
        let mut bytes = sb.to_vec();
        if sb.len() >= SUPER_LEN {
            bytes.extend_from_slice(&file[SUPER_LEN..]);
        }
        std::fs::write(&path, &bytes).expect("write mutant");
        let Ok(store) = FileStore::open(&path, SyncPolicy::Deferred) else {
            return;
        };
        for page in 0..3 {
            if let Ok(payload) = store.read_page(page) {
                assert!(payload.len() <= PAGE_SIZE);
            }
            let _ = store.page_lsn(page);
        }
        let _ = store.live_page_ids();
        let _ = store.write_page(9, b"new");
        let _ = store.alloc();
    });
}

/// A slot header is parsed before its checksum is checked: whatever the
/// first live slot's header claims, opening the store and reading any
/// page must end in a typed result, and a read that succeeds returns
/// the page's own payload (the checksum covers the id, the LSN and the
/// length).
#[test]
fn a_mutated_slot_header_opens_and_reads_or_refuses() {
    let dir = ScratchDir::new("slot-header-mutations").expect("scratch dir");
    let path = dir.path().join("store");
    let payload = |page: u64| vec![page as u8 + 1; 100];
    {
        let store = FileStore::create(&path, SyncPolicy::Deferred).expect("create");
        for page in 0..3 {
            store.write_page(page, &payload(page)).expect("write");
        }
    }
    let file = std::fs::read(&path).expect("read back");
    let header_at = |slot: usize| PAGE_SIZE + slot * (PAGE_HEADER + PAGE_SIZE);
    let images = [0, 1].map(|slot| file[header_at(slot)..header_at(slot) + PAGE_HEADER].to_vec());
    let mutant_path = dir.path().join("mutant");
    battery(&images, |header| {
        // A header of another length is a torn slot: the file ends
        // after it.
        let mut bytes = file[..header_at(0)].to_vec();
        bytes.extend_from_slice(header);
        if header.len() == PAGE_HEADER {
            bytes.extend_from_slice(&file[header_at(0) + PAGE_HEADER..]);
        }
        std::fs::write(&mutant_path, &bytes).expect("write mutant");
        let Ok(store) = FileStore::open(&mutant_path, SyncPolicy::Deferred) else {
            return;
        };
        for page in store.live_page_ids().into_iter().chain(0..3) {
            if let Ok(read) = store.read_page(page) {
                assert!(page < 3 && read == payload(page), "page {page}");
            }
        }
        let _ = store.write_page(9, b"new");
        let _ = store.alloc();
    });
}

/// The zeroed slots of a store's extent tail are no pages, whichever
/// superblock field names them.
#[test]
fn a_zeroed_extent_slot_named_by_the_superblock_is_no_page() {
    let dir = ScratchDir::new("extent-mutations").expect("scratch dir");
    let path = dir.path().join("store");
    {
        let store = FileStore::create(&path, SyncPolicy::Deferred).expect("create");
        for page in 0..3u64 {
            store.write_page(page, b"page").expect("write");
        }
    }
    let file = std::fs::read(&path).expect("read back");
    let slots = ((file.len() - PAGE_SIZE) / (PAGE_HEADER + PAGE_SIZE)) as u64;
    assert!(slots > 3, "the store has zeroed slots past its three pages");
    let (slot_count_at, free_head_at, free_len_at) = (16, 24, 40);
    let mutant = |fields: &[(usize, u64)]| {
        let mut bytes = file.clone();
        for &(at, value) in fields {
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        let path = dir.path().join("mutant");
        std::fs::write(&path, bytes).expect("write mutant");
        FileStore::open(&path, SyncPolicy::Deferred).expect("opens")
    };
    // A slot count over the whole tail: the zeroed slots hold no page.
    let store = mutant(&[(slot_count_at, slots)]);
    assert_eq!(store.live_page_ids(), [0, 1, 2]);
    for page in 3..slots {
        assert!(matches!(
            store.read_page(page),
            Err(DeviceError::UnknownPage { .. })
        ));
    }
    drop(store);
    // A free list through a zeroed slot: the write that would pop it
    // fails typed and allocates nothing.
    for fields in [
        vec![(free_head_at, 3), (free_len_at, 1), (slot_count_at, 4)],
        vec![
            (free_head_at, slots - 1),
            (free_len_at, 1),
            (slot_count_at, slots),
        ],
    ] {
        let store = mutant(&fields);
        assert!(matches!(
            store.write_page(9, b"new"),
            Err(DeviceError::BadHeader {
                page: 9,
                reason: "free-list head is not a free slot"
            })
        ));
        assert!(!store.contains(9));
        assert_eq!(store.read_page(1).expect("spared"), b"page");
    }
}
