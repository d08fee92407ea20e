//! Cluster integration: a real 3-shard loopback fleet under a
//! [`ClusterClient`].
//!
//! Four end-to-end claims:
//!
//! 1. **Fan-out changes nothing cryptographically**: an HMVP fanned
//!    across shard-held row bands reassembles to packed ciphertexts
//!    *bit-identical* to a single standalone server computing the same
//!    matrix (bands are aligned to multiples of `N`, so each band's
//!    packing is the corresponding slice of the single-node packing) —
//!    the same client type over a one-slot and a three-slot topology —
//!    and every band reaches the fleet under one trace id.
//! 2. **Replica failover is invisible**: killing a replica mid-run
//!    loses zero requests — the client quarantines the dead node and the
//!    surviving replica (which holds every band by replication) serves,
//!    also with concurrent clients and seeded faults firing on a
//!    survivor.
//! 3. **Misrouting heals by refresh, not by retry**: a client started
//!    with a stale (rotated) address map gets a typed `WrongShard`,
//!    rebuilds the map from the fleet's own hello answers, and
//!    succeeds — with zero blind retries.
//! 4. **The fleet self-heals**: a killed replica is condemned by the
//!    heartbeat monitor (feeding the client's quarantine, which binds
//!    even a client that has not dialed anything yet), rejoins
//!    empty on restart, and anti-entropy repair streams its replica
//!    share back until the inventory diff is zero — post-repair
//!    answers bit-identical to pre-kill.
//!
//! Everything runs on degree-64 parameters: band alignment is the ring
//! dimension, so small `N` keeps multi-band matrices cheap.

use cham_cluster::{repair, ClusterClient, HealthConfig, HealthMonitor, NodeHealth, Topology};
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, HmvpResult, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::{ChamParams, ChamParamsBuilder};
use cham_serve::server::{Server, ServerConfig};
use cham_serve::shard::{HashRing, ShardSpec};
use cham_serve::{ClientConfig, FaultConfig, FaultInjector, RetryPolicy, ServeClient};
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

const DEGREE: usize = 64;
const NODES: u16 = 3;
const VNODES: u32 = 128;
/// The slot [`start_fleet`] arms seeded faults on, when given a spec.
const FAULTED: u16 = 1;

struct Fixture {
    params: Arc<ChamParams>,
    sk: SecretKey,
    gkeys: GaloisKeys,
    indices: Vec<usize>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = Arc::new(ChamParamsBuilder::new().degree(DEGREE).build().unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1A5);
        let sk = SecretKey::generate(&params, &mut rng);
        let max_log = params.max_pack_log();
        let gkeys = GaloisKeys::generate_for_packing(&sk, max_log, &mut rng).unwrap();
        let indices = (1..=max_log).map(|j| (1usize << j) + 1).collect();
        Fixture {
            params,
            sk,
            gkeys,
            indices,
        }
    })
}

fn quick_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        jitter_seed: seed,
        total_deadline: Some(Duration::from_secs(60)),
        ..RetryPolicy::default()
    }
}

/// A retry budget that a dead replica plus seeded faults on a survivor
/// cannot exhaust (the per-attempt fault rate is ~13 %): a verdict under
/// it rests on the bound, not on which thread draws which fault.
fn patient_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 40,
        max_backoff: Duration::from_millis(50),
        ..quick_policy(seed)
    }
}

/// Starts a `NODES`-shard fleet with `replication`, returning the
/// servers (slot order) and the matching topology. A `faults` spec
/// ([`FaultConfig::parse`]) arms its seeded faults on slot [`FAULTED`].
fn start_fleet(
    replication: u16,
    epoch: u64,
    faults: Option<&str>,
) -> (Vec<Option<Server>>, Topology) {
    let f = fixture();
    let ring = HashRing::new(NODES, VNODES, replication);
    let faults = faults.map(|spec| Arc::new(FaultInjector::new(FaultConfig::parse(spec).unwrap())));
    let mut servers = Vec::new();
    for i in 0..NODES {
        let config = ServerConfig {
            workers: 1,
            queue_capacity: 16,
            shard: Some(ShardSpec::new(ring.clone(), i, epoch)),
            node_id: 0xA0 + u64::from(i),
            faults: faults.clone().filter(|_| i == FAULTED),
            ..ServerConfig::default()
        };
        servers.push(Some(
            Server::start("127.0.0.1:0", Arc::clone(&f.params), &config).unwrap(),
        ));
    }
    let topology = Topology::new(
        servers
            .iter()
            .map(|s| s.as_ref().unwrap().local_addr().to_string())
            .collect(),
    )
    .unwrap()
    .with_vnodes(VNODES)
    .with_replication(replication)
    .with_epoch(epoch);
    (servers, topology)
}

fn assert_bit_identical(a: &HmvpResult, b: &HmvpResult) {
    assert_eq!(a.len, b.len, "output length diverged");
    assert_eq!(a.packed.len(), b.packed.len(), "packing shape diverged");
    for (i, (x, y)) in a.packed.iter().zip(&b.packed).enumerate() {
        assert_eq!(x.log_count, y.log_count, "packed {i} depth diverged");
        assert_eq!(x.count, y.count, "packed {i} fill diverged");
        assert_eq!(x.ciphertext, y.ciphertext, "packed {i} bits diverged");
    }
}

/// Fan-out over 3 shards is bit-identical to one standalone server.
#[test]
fn sharded_hmvp_is_bit_exact_vs_single_node() {
    let f = fixture();
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA0);
    // 160 rows over a 64-degree ring: bands of 64, 64, 32.
    let matrix = Matrix::random(160, DEGREE, t.value(), &mut rng);
    let v: Vec<u64> = (0..matrix.cols())
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let dec = Decryptor::new(&f.params, &f.sk);
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();

    // Reference: one standalone (shardless) server computing the whole
    // matrix.
    let single = Server::start(
        "127.0.0.1:0",
        Arc::clone(&f.params),
        &ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut sc =
        ClusterClient::connect(single.local_addr().to_string(), Arc::clone(&f.params)).unwrap();
    let key_id = sc.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = sc.load_matrix(&matrix).unwrap();
    let reference = sc.hmvp(key_id, matrix_id, &cts, None).unwrap();
    single.shutdown();

    // Cluster: 3 shards, bands spread by content id.
    let (mut servers, topology) = start_fleet(2, 1, None);
    let mut cc = ClusterClient::with_config(
        topology,
        Arc::clone(&f.params),
        ClientConfig::default(),
        quick_policy(0xFA0),
    );
    let ckey_id = cc.load_keys(&f.gkeys, &f.indices).unwrap();
    assert_eq!(ckey_id, key_id, "key content ids are address-independent");
    let sharded = cc.load_matrix_sharded(&matrix, DEGREE).unwrap();
    assert_eq!(sharded.bands.len(), 3);
    assert_eq!(
        sharded.bands.iter().map(|b| b.rows).collect::<Vec<_>>(),
        [64, 64, 32]
    );
    let fanned = cc.hmvp_sharded(ckey_id, &sharded, &cts, None).unwrap();

    assert_bit_identical(&reference, &fanned);
    let got = hmvp.decrypt_result(&fanned, &dec).unwrap();
    assert_eq!(got, matrix.mul_vector_mod(&v, t).unwrap());

    // One logical request, one trace id: every band's sub-request
    // reached its node's flight recorder under the same id.
    let trace_ids: BTreeSet<u64> = servers
        .iter()
        .flatten()
        .flat_map(|s| s.flight().snapshot().traces)
        .map(|tr| tr.trace_id.as_u64())
        .collect();
    assert_eq!(trace_ids.len(), 1, "bands carried {trace_ids:x?}");

    for s in &mut servers {
        s.take().unwrap().shutdown();
    }
}

/// Killing a replica mid-run: zero failed requests, failover observed —
/// with one client on a healthy fleet, and with three concurrent clients
/// on six bands while seeded faults fire on a replica that survives.
#[test]
fn replica_kill_mid_run_loses_no_requests() {
    kill_replica_mid_run(3, 1, None);
    kill_replica_mid_run(
        6,
        3,
        Some("seed=7,conn_reset=0.05,corrupt_frame=0.03,spurious_busy=0.05"),
    );
}

/// `clients` closed-loop [`ClusterClient`]s each send `REQUESTS`
/// decrypt-verified requests against a `bands`-band matrix; client 0
/// kills a replica after its first half, whatever the others are doing
/// at that instant.
fn kill_replica_mid_run(bands: usize, clients: usize, faults: Option<&str>) {
    const REQUESTS: usize = 8;
    let f = fixture();
    let t = f.params.plain_modulus();
    let matrix = Matrix::random(
        bands * DEGREE,
        DEGREE,
        t.value(),
        &mut rand::rngs::StdRng::seed_from_u64(0x6B1),
    );
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let dec = Decryptor::new(&f.params, &f.sk);

    let (servers, topology) = start_fleet(2, 1, faults);
    let servers = Mutex::new(servers);
    let stats: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (topology, matrix, servers) = (topology.clone(), &matrix, &servers);
                let (hmvp, enc, dec) = (&hmvp, &enc, &dec);
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6B1 + c as u64);
                    let mut cc = ClusterClient::with_config(
                        topology,
                        Arc::clone(&f.params),
                        ClientConfig::default(),
                        patient_policy(0x6B1 + c as u64),
                    );
                    // Uploads are content-addressed and idempotent, so
                    // every client does its own.
                    let key_id = cc.load_keys(&f.gkeys, &f.indices).unwrap();
                    let sharded = cc.load_matrix_sharded(matrix, DEGREE).unwrap();
                    assert_eq!(sharded.bands.len(), bands);
                    // The victim is the first band primary that is not the
                    // faulted slot — serving at least that band when the
                    // axe falls. Placement is a pure function of the band
                    // content ids, so every client names the same one.
                    let victim = sharded
                        .bands
                        .iter()
                        .map(|b| b.replicas[0])
                        .find(|&p| faults.is_none() || p != FAULTED)
                        .unwrap();
                    // Once it is gone, a band replicated on {victim, s} can
                    // only be answered by s: with such a band for each
                    // survivor, "every survivor served" below does not
                    // depend on which request draws which fault.
                    for s in (0..NODES).filter(|&s| s != victim) {
                        assert!(
                            sharded
                                .bands
                                .iter()
                                .any(|b| b.replicas.contains(&victim) && b.replicas.contains(&s)),
                            "slot {s} shares no band with victim {victim}: {:?}",
                            sharded.bands
                        );
                    }
                    for i in 0..REQUESTS {
                        if c == 0 && i == REQUESTS / 2 {
                            let server = servers.lock().unwrap()[usize::from(victim)].take();
                            server.unwrap().shutdown();
                        }
                        let v: Vec<u64> = (0..matrix.cols())
                            .map(|_| rng.gen_range(0..t.value()))
                            .collect();
                        let cts = hmvp.encrypt_vector(&v, enc, &mut rng).unwrap();
                        let result = cc.hmvp_sharded(key_id, &sharded, &cts, None).unwrap();
                        let got = hmvp.decrypt_result(&result, dec).unwrap();
                        assert_eq!(
                            got,
                            matrix.mul_vector_mod(&v, t).unwrap(),
                            "client {c} request {i}"
                        );
                    }
                    cc.stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(
        stats.iter().map(|s| s.failovers).sum::<u64>() >= 1,
        "the killed primary was never failed over: {stats:?}"
    );
    // The survivors' books balance: each one served, and completed at
    // least the band requests the clients credit to it (a retried request
    // may complete twice).
    let mut served = vec![0u64; usize::from(NODES)];
    for s in &stats {
        for (slot, n) in s.per_node_requests.iter().enumerate() {
            served[slot] += n;
        }
    }
    assert_eq!(
        served.iter().sum::<u64>(),
        (clients * REQUESTS * bands) as u64,
        "every band request is credited to the slot that answered: {served:?}"
    );
    let mut survivors = 0;
    for (slot, server) in servers.into_inner().unwrap().into_iter().enumerate() {
        let Some(server) = server else { continue };
        survivors += 1;
        let completed = server.shutdown().completed;
        assert!(served[slot] > 0, "slot {slot} served nothing: {served:?}");
        assert!(
            completed >= served[slot],
            "slot {slot} completed {completed}, credited {served:?}"
        );
    }
    assert_eq!(survivors, usize::from(NODES) - 1);
}

/// A stale (rotated) address map heals through one typed `WrongShard`
/// and a topology refresh — not a blind retry loop.
#[test]
fn wrong_shard_triggers_reroute_not_retry_loop() {
    let f = fixture();
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57A1E);
    let matrix = Matrix::random(DEGREE, DEGREE, t.value(), &mut rng);
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let dec = Decryptor::new(&f.params, &f.sk);

    // Replication 1: exactly one correct home per id, so a rotated map
    // *always* misroutes.
    let (mut servers, topology) = start_fleet(1, 7, None);
    let mut rotated_nodes = topology.nodes().to_vec();
    rotated_nodes.rotate_left(1);
    let stale = Topology::new(rotated_nodes)
        .unwrap()
        .with_vnodes(VNODES)
        .with_replication(1)
        .with_epoch(0);
    let mut cc = ClusterClient::with_config(
        stale,
        Arc::clone(&f.params),
        ClientConfig::default(),
        quick_policy(0x57A1E),
    );

    let key_id = cc.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = cc.load_matrix(&matrix).unwrap();
    let v: Vec<u64> = (0..matrix.cols())
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let result = cc.hmvp(key_id, matrix_id, &cts, None).unwrap();
    let got = hmvp.decrypt_result(&result, &dec).unwrap();
    assert_eq!(got, matrix.mul_vector_mod(&v, t).unwrap());

    let stats = cc.stats();
    assert!(
        stats.refreshes >= 1,
        "misrouting never triggered a topology refresh: {stats:?}"
    );
    assert_eq!(
        stats.retries, 0,
        "WrongShard must re-route, not blind-retry: {stats:?}"
    );
    // The refreshed map matches the fleet's real slot order and adopted
    // the fleet's epoch.
    assert_eq!(cc.topology().nodes(), topology.nodes());
    assert_eq!(cc.topology().epoch(), 7);

    for s in &mut servers {
        s.take().unwrap().shutdown();
    }
}

/// A down verdict delivered to a client that has not dialed anything
/// yet still binds its first request: the condemned primary is never
/// contacted, and skipping it is not a failover.
#[test]
fn down_verdict_before_first_dial_is_honoured() {
    let f = fixture();
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD0A);
    let matrix = Matrix::random(DEGREE, DEGREE, t.value(), &mut rng);
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let dec = Decryptor::new(&f.params, &f.sk);
    let (mut servers, topology) = start_fleet(2, 1, None);
    let connect = |seed| {
        ClusterClient::with_config(
            topology.clone(),
            Arc::clone(&f.params),
            ClientConfig::default(),
            quick_policy(seed),
        )
    };

    let mut uploader = connect(0xD0A);
    let key_id = uploader.load_keys(&f.gkeys, &f.indices).unwrap();
    let sharded = uploader.load_matrix_sharded(&matrix, DEGREE).unwrap();
    assert_eq!(sharded.bands.len(), 1);
    let (primary, secondary) = (sharded.bands[0].replicas[0], sharded.bands[0].replicas[1]);

    // A second, fresh client hears the monitor's verdict before its
    // first operation.
    let mut cc = connect(0xD0B);
    assert!(cc.quarantine_node(topology.addr(primary)));
    let v: Vec<u64> = (0..matrix.cols())
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let result = cc.hmvp_sharded(key_id, &sharded, &cts, None).unwrap();
    let got = hmvp.decrypt_result(&result, &dec).unwrap();
    assert_eq!(got, matrix.mul_vector_mod(&v, t).unwrap());

    let stats = cc.stats();
    assert_eq!((stats.retries, stats.failovers), (0, 0), "{stats:?}");
    assert_eq!(
        stats.per_node_requests[usize::from(primary)],
        0,
        "{stats:?}"
    );
    assert_eq!(
        stats.per_node_requests[usize::from(secondary)],
        1,
        "{stats:?}"
    );

    for s in &mut servers {
        s.take().unwrap().shutdown();
    }
}

/// The self-healing loop end to end: a replica dies under load (zero
/// failed requests), the heartbeat condemns it and quarantines routing,
/// the node rejoins empty, and anti-entropy repair streams its replica
/// share back over resumable chunks until the inventory diff is zero —
/// with post-repair answers bit-identical to pre-kill.
#[test]
fn killed_replica_rejoins_and_repair_converges() {
    let f = fixture();
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4EA1);
    // 192 rows over a 64-degree ring: three full bands.
    let matrix = Matrix::random(192, DEGREE, t.value(), &mut rng);
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);

    let (mut servers, topology) = start_fleet(2, 1, None);
    let mut cc = ClusterClient::with_config(
        topology.clone(),
        Arc::clone(&f.params),
        ClientConfig::default(),
        quick_policy(0x4EA1),
    );
    let key_id = cc.load_keys(&f.gkeys, &f.indices).unwrap();
    let sharded = cc.load_matrix_sharded(&matrix, DEGREE).unwrap();
    let band_ids: Vec<u64> = sharded.bands.iter().map(|b| b.id).collect();

    // Fixed ciphertext inputs: encryption is randomized, so bit-level
    // reproducibility must replay the *same* ciphertexts pre- and
    // post-repair (the server-side pipeline is deterministic).
    let cts_list: Vec<_> = (0..3)
        .map(|_| {
            let v: Vec<u64> = (0..matrix.cols())
                .map(|_| rng.gen_range(0..t.value()))
                .collect();
            hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap()
        })
        .collect();
    let reference: Vec<HmvpResult> = cts_list
        .iter()
        .map(|cts| cc.hmvp_sharded(key_id, &sharded, cts, None).unwrap())
        .collect();

    // Kill the primary of the first band.
    let victim = sharded.bands[0].replicas[0];
    let victim_addr = topology.nodes()[usize::from(victim)].clone();
    servers[usize::from(victim)].take().unwrap().shutdown();

    // The heartbeat loop condemns it over real probes — Up -> Suspect
    // -> Down — and the Down verdict feeds the router's quarantine.
    let mut monitor = HealthMonitor::new(
        topology.clone(),
        Arc::clone(&f.params),
        HealthConfig {
            suspect_after: 1,
            down_after: 2,
            recover_after: 1,
            probe_timeout: Duration::from_millis(200),
            ..HealthConfig::default()
        },
    );
    let t1 = monitor.tick();
    assert_eq!(t1.len(), 1);
    assert_eq!((t1[0].slot, t1[0].to), (victim, NodeHealth::Suspect));
    let t2 = monitor.tick();
    assert_eq!(t2.len(), 1);
    assert_eq!(
        (t2[0].from, t2[0].to),
        (NodeHealth::Suspect, NodeHealth::Down)
    );
    assert_eq!(monitor.down_slots(), vec![victim]);
    for tr in &t2 {
        if tr.to == NodeHealth::Down {
            assert!(
                cc.quarantine_node(&tr.addr),
                "the dead node is not in the topology"
            );
        }
    }

    // Degraded window: every request still answers, bit-identical.
    for (cts, expect) in cts_list.iter().zip(&reference) {
        let got = cc.hmvp_sharded(key_id, &sharded, cts, None).unwrap();
        assert_bit_identical(expect, &got);
    }

    // Rejoin: same slot and node id, fresh (empty) state, new port —
    // loopback tests cannot rebind the old port without tripping
    // TIME_WAIT, so the topology is patched to the new address.
    let ring = HashRing::new(NODES, VNODES, 2);
    let restarted = Server::start(
        "127.0.0.1:0",
        Arc::clone(&f.params),
        &ServerConfig {
            workers: 1,
            queue_capacity: 16,
            shard: Some(ShardSpec::new(ring, victim, 1)),
            node_id: 0xA0 + u64::from(victim),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let new_addr = restarted.local_addr().to_string();
    servers[usize::from(victim)] = Some(restarted);
    let mut nodes2 = topology.nodes().to_vec();
    nodes2[usize::from(victim)] = new_addr.clone();
    let topology2 = Topology::new(nodes2)
        .unwrap()
        .with_vnodes(VNODES)
        .with_replication(2)
        .with_epoch(1);

    // Health sees it come back sticky: Down -> Suspect on the first
    // answered probe, Up only after the recover streak. The monitor
    // still probes the old address, so the probe maps it to the new
    // port — exactly what a same-port restart looks like to it.
    let mut probe = |addr: &str| {
        let real = if addr == victim_addr {
            new_addr.as_str()
        } else {
            addr
        };
        ServeClient::connect_with(real, Arc::clone(&f.params), &ClientConfig::default())
            .and_then(|mut c| c.ping())
            .is_ok()
    };
    let back = monitor.tick_with(&mut probe);
    assert_eq!(back.len(), 1);
    assert_eq!(
        (back[0].from, back[0].to),
        (NodeHealth::Down, NodeHealth::Suspect)
    );
    let back = monitor.tick_with(&mut probe);
    assert_eq!(back.len(), 1);
    assert_eq!(
        (back[0].from, back[0].to),
        (NodeHealth::Suspect, NodeHealth::Up)
    );
    assert!(monitor.down_slots().is_empty());

    // Anti-entropy: the first plan is exactly "backfill the rejoiner",
    // then rounds run until one plans nothing.
    let repair_cfg = ClientConfig::default();
    let inv = repair::fetch_inventories(&topology2, &f.params, &repair_cfg);
    let pre = repair::plan(&topology2.ring(), &inv, &band_ids);
    assert!(!pre.is_converged(), "the empty rejoiner must need repair");
    assert!(
        pre.transfers.iter().all(|tr| tr.target == victim),
        "survivors lost nothing: {:?}",
        pre.transfers
    );

    let mut repaired = 0u64;
    let mut chunks_sent = 0u64;
    let mut rounds = 0;
    loop {
        let (plan, report) = repair::repair_round(&topology2, &f.params, &repair_cfg);
        repaired += report.repaired_segments;
        chunks_sent += report.chunks_sent;
        assert_eq!(report.unsourced, 0, "survivors hold every band");
        if plan.is_converged() {
            break;
        }
        rounds += 1;
        assert!(rounds < 8, "repair failed to converge");
    }
    assert!(repaired > 0, "the rejoin must transfer segments");
    assert!(chunks_sent > 0, "repair must ride the chunked path");

    // Converged exactly: the diff against the known upload set is
    // empty, and the rejoined node holds precisely its replica share.
    let inv_after = repair::fetch_inventories(&topology2, &f.params, &repair_cfg);
    assert!(repair::plan(&topology2.ring(), &inv_after, &band_ids).is_converged());
    let victim_inv: BTreeSet<u64> = inv_after[usize::from(victim)]
        .clone()
        .unwrap()
        .into_iter()
        .collect();
    let ring2 = topology2.ring();
    for &id in &band_ids {
        assert_eq!(
            victim_inv.contains(&id),
            ring2.replicas(id).contains(&victim),
            "band {id:#x} placement after repair"
        );
    }

    // And it serves: a fresh client on the patched topology replays the
    // same ciphertexts and gets bits identical to the pre-kill fleet —
    // with the rejoined node actually answering (it is the primary of
    // at least band 0).
    let mut cc2 = ClusterClient::with_config(
        topology2,
        Arc::clone(&f.params),
        ClientConfig::default(),
        quick_policy(0x4EA2),
    );
    assert_eq!(cc2.load_keys(&f.gkeys, &f.indices).unwrap(), key_id);
    for (cts, expect) in cts_list.iter().zip(&reference) {
        let got = cc2.hmvp_sharded(key_id, &sharded, cts, None).unwrap();
        assert_bit_identical(expect, &got);
    }
    let served = cc2.stats().per_node_requests;
    assert!(
        served[usize::from(victim)] > 0,
        "the rejoined node never served: {served:?}"
    );

    for s in &mut servers {
        if let Some(s) = s.take() {
            s.shutdown();
        }
    }
}
