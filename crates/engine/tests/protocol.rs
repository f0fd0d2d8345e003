//! Protocol round-trip tests: an in-process `imin-serve` on an ephemeral
//! port, driven through the `imin-cli` client library. Parse errors must
//! come back as `ERR <reason>` lines without dropping the connection.

use imin_engine::{AlgorithmKind, Client, Server, SharedEngine};

fn spawn_server() -> std::net::SocketAddr {
    Server::with_shared("127.0.0.1:0", SharedEngine::new().with_threads(2))
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

#[test]
fn full_lifecycle_over_the_wire() {
    let addr = spawn_server();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();

    let (n, m) = client.load_pa_wc(300, 3, 7).unwrap();
    assert_eq!(n, 300);
    assert!(m > 0);

    let _build_ms = client.build_pool(400, 42).unwrap();

    let first = client
        .query(&[0], 3, AlgorithmKind::AdvancedGreedy)
        .unwrap();
    assert!(first.blockers.len() <= 3);
    assert!(!first.cached);
    assert!(first.spread.is_some());

    // The identical question is a cache hit with the identical answer.
    let second = client
        .query(&[0], 3, AlgorithmKind::AdvancedGreedy)
        .unwrap();
    assert!(second.cached);
    assert_eq!(first.blockers, second.blockers);
    assert_eq!(first.spread, second.spread);

    // GreedyReplace works over the same pool.
    let replace = client
        .query(&[0, 5], 2, AlgorithmKind::GreedyReplace)
        .unwrap();
    assert!(replace.blockers.len() <= 2);

    let stats = client.stats().unwrap();
    for needle in ["n=300", "theta=400", "queries=3", "cache_hits=1"] {
        assert!(stats.contains(needle), "STATS missing {needle}: {stats}");
    }
}

#[test]
fn parse_errors_return_err_lines_and_keep_the_connection() {
    let addr = spawn_server();
    let mut client = Client::connect(addr).unwrap();

    for bad in [
        "",    // a blank line still gets a reply — clients must never hang
        "   ", // likewise for whitespace-only lines
        "GARBAGE",
        "LOAD moon n=10",
        "LOAD pa n=ten m0=3",
        "POOL",
        "POOL 10 x",
        "QUERY lt seeds=1 budget=1",
        "QUERY ic seeds= budget=1",
        "QUERY ic seeds=1 budget=1 alg=magic",
    ] {
        let reply = client.send_raw(bad).unwrap();
        assert!(
            reply.starts_with("ERR "),
            "'{bad}' should yield an ERR line, got '{reply}'"
        );
    }
    // The connection survived all of that.
    client.ping().unwrap();

    // Semantic errors (right syntax, wrong state) are ERR lines too.
    let err = client
        .query(&[0], 1, AlgorithmKind::AdvancedGreedy)
        .unwrap_err();
    assert!(err.to_string().contains("LOAD"), "{err}");
    client.load_pa_wc(50, 2, 1).unwrap();
    let err = client
        .query(&[0], 1, AlgorithmKind::AdvancedGreedy)
        .unwrap_err();
    assert!(err.to_string().contains("POOL"), "{err}");
    client.build_pool(50, 1).unwrap();
    // Out-of-range seed and zero budget surface the algorithm's errors.
    let err = client
        .query(&[9999], 1, AlgorithmKind::AdvancedGreedy)
        .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
    let err = client
        .query(&[0], 0, AlgorithmKind::AdvancedGreedy)
        .unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
    // And the engine still answers proper queries afterwards.
    let reply = client
        .query(&[0], 1, AlgorithmKind::AdvancedGreedy)
        .unwrap();
    assert!(reply.blockers.len() <= 1);
}

#[test]
fn quit_closes_only_the_issuing_connection() {
    let addr = spawn_server();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert_eq!(a.send_raw("QUIT").unwrap(), "OK bye");
    assert!(
        a.send_raw("PING").is_err(),
        "connection a should be closed after QUIT"
    );
    b.ping().unwrap();

    // Server state is shared across connections: a graph loaded by one
    // client is visible to the next.
    b.load_pa_wc(60, 2, 3).unwrap();
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.contains("n=60"), "{stats}");
}
