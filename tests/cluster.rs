//! Integration tests for `pardict-cluster`: scatter-gathered container
//! grep must be order- and content-identical to the single-node engine,
//! failover must be deterministic under a seeded kill schedule, and a
//! chaos-poisoned link must be routed around — degraded, never wrong.

use pardict::chaos::{ChaosProxy, ClientFault};
use pardict::cluster::selftest::{self, Options};
use pardict::cluster::{ClusterConfig, ClusterError, Router, RouterServer};
use pardict::prelude::*;
use pardict::service::wire::{self, read_frame, write_frame, WireRequest, WireResponse};
use pardict::service::{
    Engine, Metrics, OpRequest, Registry, Reply, Request, Server, ServiceError,
};
use pardict::trace::{TraceConfig, Tracer};
use pardict::workloads::random_dictionary;
use proptest::prelude::*;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Strategy: NUL-free byte strings over a small alphabet (dense repeats).
fn small_alpha_text(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 0..max_len)
}

/// Strategy: a non-empty dictionary of 1..8 non-empty patterns.
fn dictionary() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 1..8),
        1..8,
    )
}

/// Spin up `n` served backends sharing the selftest engine configuration.
fn backends(n: usize) -> (Vec<pardict::service::Engine>, Vec<Server>, Vec<SocketAddr>) {
    let mut engines = Vec::new();
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let engine = selftest::new_engine();
        let server = Server::start(engine.clone(), "127.0.0.1:0").expect("backend start");
        addrs.push(server.addr());
        engines.push(engine);
        servers.push(server);
    }
    (engines, servers, addrs)
}

fn teardown(engines: Vec<pardict::service::Engine>, mut servers: Vec<Server>) {
    for s in &mut servers {
        s.stop();
    }
    for e in &engines {
        e.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `cluster grepz ≡ single-node grep_container`: for random
    /// dictionaries, texts, shard counts, and block sizes, the routed
    /// scatter-gather answer (hits in pos-asc/len-desc/id-asc order,
    /// version, corrupt-block report) is identical to one engine grepping
    /// the whole container.
    #[test]
    fn cluster_grep_equals_single_node_grep(
        patterns in dictionary(),
        text in small_alpha_text(600),
        shards in 1..=3usize,
        block in 16..64usize,
    ) {
        let (engines, servers, addrs) = backends(shards);
        let oracle = selftest::new_engine();
        let router = Router::new(&addrs, ClusterConfig::default());

        router.publish("d", &patterns).expect("cluster publish");
        oracle.registry().publish("d", patterns.clone()).expect("oracle publish");

        let cfg = StreamConfig::with_block_size(block);
        let (container, _) =
            compress_stream(&Pram::seq(), &mut &text[..], Vec::new(), &cfg).expect("compress");

        let routed = router.grepz("d", &container, 0);
        let oracle_resp = oracle.call(Request::new(OpRequest::GrepContainer {
            dict: "d".into(),
            container,
        }));

        let mut failures = Vec::new();
        selftest::verify_response(0, &routed.result, &oracle_resp.result, &mut failures);
        prop_assert!(failures.is_empty(), "{failures:?}");
        prop_assert!(!routed.degraded, "healthy cluster answered degraded");

        router.shutdown();
        teardown(engines, servers);
        oracle.shutdown();
    }
}

/// Deterministic failover: the same options (and therefore the same
/// seeded kill schedule) must produce a byte-identical degraded summary
/// across independent runs — addresses, timing, and latency are excluded
/// from the contract by construction.
#[test]
fn failover_summary_is_deterministic() {
    let opts = Options {
        requests: 48,
        seed: 11,
    };
    let first = selftest::run(&opts).expect("first run");
    let second = selftest::run(&opts).expect("second run");
    assert_eq!(first.summary, second.summary);
    assert!(first.summary.contains("degraded responses"));
    assert!(first.summary.contains("killed at request 24"));
}

/// Chaos integration: a [`ChaosProxy`] poisoning every new connection to
/// one backend (corrupted first frame) must read as a dead shard. The
/// router never panics, keeps its accounting books closed, answers every
/// request identically to the oracle, and excludes the poisoned shard.
#[test]
fn router_routes_around_poisoned_link() {
    let (engines, servers, addrs) = backends(3);
    let mut proxy = ChaosProxy::start(addrs[0]).expect("proxy start");
    proxy.set_default_fault(ClientFault::CorruptTag);
    let cluster_addrs = vec![proxy.addr(), addrs[1], addrs[2]];

    let oracle = selftest::new_engine();
    let router = Arc::new(Router::new(&cluster_addrs, ClusterConfig::default()));

    // The broadcast publish already meets the poisoned link: the two
    // clean backends ack, the poisoned one reads as down and the summary
    // says degraded — a warning, not an error.
    let patterns = random_dictionary(0xBAD_5EED, 16, 3, 8, Alphabet::dna());
    let published = router
        .publish("corpus", &patterns)
        .expect("cluster publish");
    assert_eq!(published.acks, 2, "clean backends must ack: {published:?}");
    assert!(published.degraded, "poisoned link must degrade the publish");
    oracle
        .registry()
        .publish("corpus", patterns.clone())
        .expect("oracle publish");

    let report = selftest::drive_workload(&router, &oracle, &patterns, 40, 0xBAD_5EED, |_| {});

    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(
        report.degraded_count, 40,
        "every response while a shard is excluded must carry the degraded flag"
    );
    assert!(
        !router.healthy_ids().contains(&0),
        "the poisoned shard must stay excluded"
    );
    assert!(
        router.metrics().per_shard[0].deaths.get() >= 1,
        "the poisoned shard must be charged a death"
    );
    router
        .metrics()
        .check_accounting(true)
        .expect("books must close despite the poisoned link");

    router.shutdown();
    proxy.stop();
    teardown(engines, servers);
    oracle.shutdown();
}

/// Dict-less compress requests rotate round-robin, so with all shards
/// healthy every backend sees traffic, and a routed compress equals the
/// oracle's bytes regardless of which shard served it.
#[test]
fn round_robin_compress_spreads_and_matches_oracle() {
    let (engines, servers, addrs) = backends(3);
    let oracle = selftest::new_engine();
    let router = Router::new(&addrs, ClusterConfig::default());

    let text: Vec<u8> = (0..900u32).map(|i| b'a' + (i % 3) as u8).collect();
    for _ in 0..6 {
        let routed = router.op(pardict::service::wire::tag::COMPRESS, "", &text, 0);
        let oracle_resp = oracle.call(Request::new(OpRequest::Compress { text: text.clone() }));
        match (&routed.result, &oracle_resp.result) {
            (
                Ok(pardict::service::wire::WireResponse::Compressed { payload, .. }),
                Ok(Reply::Compress { payload: want, .. }),
            ) => assert_eq!(payload, want),
            other => panic!("unexpected compress outcome: {other:?}"),
        }
        assert!(!routed.degraded);
    }
    for (id, shard) in router.metrics().per_shard.iter().enumerate() {
        assert!(
            shard.ok.get() >= 2,
            "round-robin skipped shard {id}: {} ok",
            shard.ok.get()
        );
    }

    router.shutdown();
    teardown(engines, servers);
    oracle.shutdown();
}

/// An unknown dictionary comes back as the service's own error through
/// the router, not as a transport failure or a panic.
#[test]
fn unknown_dictionary_is_an_app_error_not_a_failover() {
    let (engines, servers, addrs) = backends(2);
    let router = Router::new(&addrs, ClusterConfig::default());

    let routed = router.op(pardict::service::wire::tag::MATCH, "nope", b"abc", 0);
    match routed.result {
        Err(ClusterError::Service(ServiceError::NoSuchDictionary(msg))) => {
            // The wire decode keeps the rendered message, not the bare name.
            assert!(msg.contains("nope"), "unexpected message {msg:?}");
        }
        other => panic!("expected NoSuchDictionary, got {other:?}"),
    }
    assert!(!routed.degraded, "an app error is not degradation");
    for shard in &router.metrics().per_shard {
        assert_eq!(shard.deaths.get(), 0, "app errors must not kill shards");
    }

    router.shutdown();
    teardown(engines, servers);
}

/// What every front owes its clients, checked over a raw socket: `Ping`,
/// the `Hello` mask, a bare `Traced` frame running its inner request
/// (whether or not the front traces), and a malformed frame answered
/// with `BadRequest` on a connection that stays usable.
fn assert_front_conforms(addr: SocketAddr, traced: bool) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut ask = |payload: &[u8]| {
        write_frame(&mut conn, payload).expect("send");
        let reply = read_frame(&mut conn).expect("recv").expect("reply");
        WireResponse::decode(&reply).expect("decode reply")
    };

    assert_eq!(ask(&WireRequest::Ping.encode()), WireResponse::Pong);
    let hello = WireRequest::Hello {
        extensions: wire::EXT_TRACE | wire::EXT_DELTA,
    };
    let mask = wire::EXT_DELTA | if traced { wire::EXT_TRACE } else { 0 };
    assert_eq!(
        ask(&hello.encode()),
        WireResponse::Hello { extensions: mask }
    );

    let op = WireRequest::Op {
        tag: wire::tag::MATCH,
        dict: "d".into(),
        text: b"banana".to_vec(),
        timeout_ms: 0,
    };
    let bare = ask(&op.encode());
    assert!(matches!(bare, WireResponse::Hits { .. }), "{bare:?}");
    let wrapped = WireRequest::Traced {
        trace: 0x7ACE,
        parent: 1,
        inner: Box::new(op),
    };
    assert_eq!(ask(&wrapped.encode()), bare);

    match ask(&[0xEE, 1, 2, 3]) {
        WireResponse::Error { code, message } => {
            assert_eq!(code, ServiceError::BadRequest(String::new()).code());
            assert!(message.starts_with("malformed request"), "{message:?}");
        }
        other => panic!("expected a malformed-request error, got {other:?}"),
    }
    assert_eq!(ask(&WireRequest::Ping.encode()), WireResponse::Pong);
}

/// The service's `Server` and the cluster's `RouterServer` are one front:
/// both pass the same conformance checks, traced and untraced.
#[test]
fn server_and_router_fronts_conform_alike() {
    for traced in [false, true] {
        let tracer = traced.then(|| {
            Tracer::new(TraceConfig {
                sample_one_in: 1,
                seed: 0xF407,
                capacity: 1 << 12,
                deterministic: true,
            })
        });
        let metrics = Arc::new(Metrics::default());
        let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
        let engine =
            Engine::new_traced(selftest::engine_config(), registry, metrics, tracer.clone());
        let mut server = Server::start(engine.clone(), "127.0.0.1:0").expect("backend start");
        let router = Arc::new(Router::new_traced(
            &[server.addr()],
            ClusterConfig::default(),
            tracer,
        ));
        let mut front = RouterServer::start(Arc::clone(&router), "127.0.0.1:0").expect("front");
        router
            .publish("d", &[b"ana".to_vec(), b"nan".to_vec()])
            .expect("publish");

        assert_front_conforms(server.addr(), traced);
        assert_front_conforms(front.addr(), traced);

        front.stop();
        router.shutdown();
        server.stop();
        engine.shutdown();
    }
}
