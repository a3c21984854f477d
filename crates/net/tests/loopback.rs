//! The full stack over real sockets: a sharded index served on
//! loopback, exercised by pipelining clients, with every networked
//! answer checked against the in-process dispatch path.

use bftree::BfTree;
use bftree_access::{AccessMethod, DurableConfig};
use bftree_net::server::ServeState;
use bftree_net::{Client, NetError, RemoteError, Request, Response, Server};
use bftree_shard::{ShardPlan, ShardedIndex};
use bftree_storage::tuple::{ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{
    DeviceKind, Duplicates, HeapFile, IoContext, PageDevice, Relation, TupleLayout,
};
use bftree_wal::DurabilityMode;

const N: u64 = 2_000;

fn relation() -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(128));
    for pk in 0..N {
        heap.append_record(pk, pk * 10);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

fn serve_state(rel: Relation, shards: usize) -> ServeState {
    let plan = ShardPlan::uniform(N, shards);
    let mut index = ShardedIndex::new(
        plan,
        &rel,
        DurableConfig {
            flush_batch: 8,
            durability: DurabilityMode::GroupCommit {
                max_records: 4,
                max_bytes: 4 * 1024,
            },
        },
        |_| {
            Box::new(
                BfTree::builder()
                    .fpp(1e-4)
                    .empty(&rel)
                    .expect("valid config"),
            )
        },
        |_| PageDevice::cold(DeviceKind::Ssd),
    );
    index.build(&rel).expect("sharded build");
    let ios = (0..shards).map(|_| IoContext::unmetered()).collect();
    ServeState::new(index, rel, ios)
}

#[test]
fn networked_answers_match_the_in_process_dispatch_path() {
    // Boundary keys and a miss, then a strided sample of the domain.
    let mut keys: Vec<u64> = vec![0, 1999, 3, 500, 999, 1000, N + 50, 7, 1500];
    keys.extend((0..256).map(|i| i * 37 % N));
    for shards in [1, 2, 4, 8] {
        let mut server = Server::spawn(serve_state(relation(), shards)).expect("server up");
        let mut client = Client::connect(server.addr()).expect("connect");

        let wire = client.probe_batch(&keys).expect("wire batch");
        let direct = match server
            .state()
            .handle(Request::ProbeBatch { keys: keys.clone() })
        {
            Response::ProbeBatch { probes } => probes,
            other => panic!("direct dispatch failed: {other:?}"),
        };
        assert_eq!(
            wire, direct,
            "{shards} shards: wire and in-process answers must be identical"
        );
        assert!(wire[0].len() == 1 && wire[6].is_empty());
        server.shutdown();
    }
}

#[test]
fn a_connection_idle_past_the_poll_budget_parks_and_still_answers() {
    // Both ends poll for ~40 us before parking in a blocking read. An
    // idle gap hundreds of times that long puts the worker in the
    // parked state; a reply that takes longer than the budget (a
    // 4 096-key batch) puts the client there.
    let mut server = Server::spawn(serve_state(relation(), 2)).expect("server up");
    let mut client = Client::connect(server.addr()).expect("connect");
    let keys: Vec<u64> = (0..4096).map(|i| i * 7 % N).collect();
    for _ in 0..3 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let probes = client.probe_batch(&keys).expect("answered after idling");
        assert!(probes.iter().all(|p| p.len() == 1));
    }
    // A parked worker is still severed and joined by shutdown.
    std::thread::sleep(std::time::Duration::from_millis(20));
    server.shutdown();
    assert_eq!(server.connections(), 0);
    assert!(client.probe_batch(&keys).is_err());
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let mut server = Server::spawn(serve_state(relation(), 2)).expect("server up");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Queue a burst without reading anything, then drain.
    let keys: Vec<u64> = (0..64).map(|i| i * 31 % N).collect();
    for &k in &keys {
        client
            .send(&Request::ProbeBatch { keys: vec![k] })
            .expect("send");
    }
    assert_eq!(client.in_flight(), keys.len());
    for &k in &keys {
        match client.recv().expect("recv") {
            Response::ProbeBatch { probes } => {
                assert_eq!(probes.len(), 1);
                assert_eq!(probes[0].len(), 1, "key {k} must hit exactly once");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(client.in_flight(), 0);
    server.shutdown();
}

#[test]
fn range_pagination_and_writes_work_over_the_wire() {
    let mut server = Server::spawn(serve_state(relation(), 4)).expect("server up");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Paginate a cross-shard range with opaque tokens.
    let (lo, hi) = (400u64, 1600u64);
    let mut seen = 0u64;
    let mut token: Option<Vec<u8>> = None;
    loop {
        let (page, next) = client
            .range_page(lo, hi, 37, token.as_deref())
            .expect("range page");
        seen += page.len() as u64;
        match next {
            Some(t) => token = Some(t),
            None => break,
        }
        assert!(seen <= hi - lo + 1, "pagination over-delivers");
    }
    assert_eq!(seen, hi - lo + 1, "every key in [{lo}, {hi}] exactly once");

    // Insert a fresh key, read it back, delete it, confirm it is gone.
    let key = N + 123;
    let loc = client.insert(key, key * 10).expect("insert");
    let probe = client.probe_batch(&[key]).expect("probe");
    assert_eq!(probe[0], vec![loc], "inserted key reads back");
    // DurableIndex::delete counts buffered drops plus the tombstone
    // now shadowing the base index, so "removed" is ≥ the true match
    // count — the visibility check below is the real assertion.
    assert!(client.delete(key).expect("delete") >= 1);
    assert!(client.probe_batch(&[key]).expect("probe")[0].is_empty());
    server.shutdown();
}

#[test]
fn foreign_tokens_and_bad_input_are_typed_errors_over_the_wire() {
    let mut four = Server::spawn(serve_state(relation(), 4)).expect("4-shard server");
    let mut two = Server::spawn(serve_state(relation(), 2)).expect("2-shard server");
    let mut c4 = Client::connect(four.addr()).expect("connect 4");
    let mut c2 = Client::connect(two.addr()).expect("connect 2");

    // A mid-scan token minted by the 4-shard server…
    let (_, token) = c4.range_page(0, N - 1, 5, None).expect("first page");
    let token = token.expect("mid-scan token");
    // …is rejected with a typed layout error by the 2-shard server.
    match c2.range_page(0, N - 1, 5, Some(&token)) {
        Err(NetError::Remote(RemoteError::LayoutMismatch {
            expected_shards: 2,
            got_shards: 4,
        })) => {}
        other => panic!("expected LayoutMismatch, got {other:?}"),
    }

    // Garbage token bytes: typed BadToken.
    match c4.range_page(0, N - 1, 5, Some(b"not a token")) {
        Err(NetError::Remote(RemoteError::BadToken { .. })) => {}
        other => panic!("expected BadToken, got {other:?}"),
    }

    // Inverted range: typed InvertedRange with the offending bounds.
    match c4.range_page(90, 10, 5, None) {
        Err(NetError::Remote(RemoteError::InvertedRange { lo: 90, hi: 10 })) => {}
        other => panic!("expected InvertedRange, got {other:?}"),
    }

    four.shutdown();
    two.shutdown();
}

/// A reply over `MAX_FRAME` used to fail the server's `write_frame`
/// and drop the socket after all the work was done; it must come back
/// as a typed error on a connection that keeps serving.
#[test]
fn an_unframeable_reply_is_a_typed_error_and_the_connection_survives() {
    // Four attribute values of 500 contiguous duplicates each: one
    // probe answers 500 locations (8 KB encoded), so 2 200 of them
    // overflow the 16 MiB frame while the request stays 18 KB.
    let mut heap = HeapFile::new(TupleLayout::new(128));
    for pk in 0..N {
        heap.append_record(pk, pk / 500);
    }
    let rel = Relation::new(heap, ATT1_OFFSET, Duplicates::Contiguous).expect("ordered on att1");
    let mut server = Server::spawn(serve_state(rel, 2)).expect("server up");
    let mut client = Client::connect(server.addr()).expect("connect");

    match client.probe_batch(&[1; 2_200]) {
        Err(NetError::Remote(RemoteError::Internal { detail })) => {
            assert!(detail.contains("reply exceeds MAX_FRAME"), "{detail}")
        }
        other => panic!("expected a typed Internal error, got {other:?}"),
    }
    let next = client
        .probe_batch(&[1])
        .expect("same connection, next request");
    assert_eq!(next[0].len(), 500);
    server.shutdown();
}

#[test]
fn stats_reports_the_layout_and_serving_metrics() {
    let mut server = Server::spawn(serve_state(relation(), 4)).expect("server up");
    let mut client = Client::connect(server.addr()).expect("connect");

    client.probe_batch(&[1, 600, 1100, 1700]).expect("warm up");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.bounds.len(), 3, "4 shards have 3 split points");
    assert_eq!(stats.entries, N);
    assert!(
        stats.prometheus.contains("bftree_shard_probes_total"),
        "snapshot carries per-shard counters:\n{}",
        stats.prometheus
    );
    server.shutdown();
}

/// A finished connection must not stay tracked (each one used to leak
/// a socket and a join handle until shutdown): after 200 clients come
/// and go the tracked set drains to empty, and the server still serves.
#[test]
fn finished_connections_are_released_while_the_server_keeps_serving() {
    let mut server = Server::spawn(serve_state(relation(), 2)).expect("server up");
    let mut survivor = Client::connect(server.addr()).expect("connect");
    for i in 0..200u64 {
        let mut client = Client::connect(server.addr()).expect("connect");
        assert_eq!(client.probe_batch(&[i]).expect("probe")[0].len(), 1);
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.connections() > 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "{} connections still tracked after their clients hung up",
            server.connections()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(survivor.probe_batch(&[7]).expect("probe")[0].len(), 1);
    drop(survivor);
    while server.connections() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "survivor still tracked"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut late = Client::connect(server.addr()).expect("connect after the churn");
    assert_eq!(late.probe_batch(&[N - 1]).expect("probe")[0].len(), 1);
    server.shutdown();
}
