//! The five workloads. Each generates its inputs from the seed once,
//! can set itself up repeatedly (that is what `setup_s` times), hands out
//! one closed-loop operation per client, and in a traced run reads its
//! layers.
//!
//! Shapes are fixed; only the measuring time scales. See `README.md` for
//! why each workload exists and which layer each is meant to expose.

use crate::harness::{call_ms, count, ClientLog, ClientOp, OpCtx};
use crate::json::Json;
use crate::layers::{kernel_layers, Layers, Prober, Replay};
use crate::stats::{mean, median, percentile};
use crate::sut::{
    self, ClusterConn, ClusterCounts, Conn, Cts, Encoded, Fleet, Kernels, Node, NodeConfig,
    NodeReport, Output, Phase, Plain, Res, Ring, Rng, Session, Sharded, StoreProbe,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

pub trait Workload {
    /// Key generation, matrix encode/upload, server or fleet start, input
    /// encryption. Replaces (and tears down) any earlier set-up.
    fn setup(&mut self) -> Res<()>;
    /// Operations per client that run before anything is timed.
    fn warmup_ops(&self) -> u64 {
        3
    }
    /// Whether everything the workload runs is on the one client thread
    /// (in-process call, kernel pool of 1). Only then is a host-speed
    /// reading between operations taken on a quiet core, and only then
    /// are times reported at reference speed.
    fn single_threaded(&self) -> bool {
        false
    }
    fn clients(&mut self) -> Vec<ClientOp<'_>>;
    /// Traced run: called once warm-up is over, before the timed drives.
    fn mark(&mut self) {}
    /// Traced run: fills the per-layer values. `logs` are the timed drives.
    fn layers(&mut self, p: &mut Prober, logs: &[ClientLog], m: &mut Layers) -> Res<()>;
    fn teardown(&mut self);
    /// Shape and sizing, for the run record.
    fn describe(&self) -> Json;
}

pub fn build(name: &str, seed: u64, out_dir: &Path) -> Res<Box<dyn Workload>> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rng = sut::rng(seed);
    Ok(match name {
        "hmvp_tall" => {
            sut::configure_pool(1);
            Box::new(HmvpLocal::generate(128, 4096, &mut rng))
        }
        "hmvp_wide" => {
            sut::configure_pool(1);
            Box::new(HmvpLocal::generate(8, 262_144, &mut rng))
        }
        "serve_wide" => {
            sut::configure_pool(nproc);
            Box::new(ServeWide::generate(nproc, &mut rng))
        }
        "serve_churn" => {
            sut::configure_pool(nproc);
            Box::new(ServeChurn::generate(nproc, seed, out_dir, &mut rng))
        }
        "cluster_fanout" => {
            sut::configure_pool(nproc);
            Box::new(ClusterFanout::generate(seed, &mut rng)?)
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Decrypts a reply and compares it with the oracle; the two ways an
/// operation fails are told apart by kind.
fn settle(
    ctx: &mut OpCtx,
    call_kind: &'static str,
    reply: Res<Output>,
    session: &Session,
    expected: &[u64],
) {
    match reply {
        Err(e) => ctx.outcome(call_kind, Err(e)),
        Ok(out) => {
            let verdict = ctx.aside("verify", || match session.decrypt(&out) {
                Ok(got) if got == expected => Ok(()),
                Ok(got) => Err(format!(
                    "decrypted {} values, first mismatch at row {:?}",
                    got.len(),
                    got.iter().zip(expected).position(|(g, e)| g != e)
                )),
                Err(e) => Err(e),
            });
            ctx.outcome(WRONG_RESULT, verdict);
        }
    }
}

/// Failure kind of a reply that decrypts to something else than the
/// plaintext product.
pub const WRONG_RESULT: &str = "wrong_result";

/// Vectors with their plaintext products, generated before any set-up.
struct Inputs {
    vectors: Vec<Vec<u64>>,
    expected: Vec<Vec<u64>>,
}

impl Inputs {
    fn generate(ring: Ring, a: &Plain, count: usize, rng: &mut Rng) -> Self {
        let vectors: Vec<Vec<u64>> = (0..count)
            .map(|_| ring.random_vector(a.cols(), rng))
            .collect();
        let expected = vectors.iter().map(|v| ring.reference(a, v)).collect();
        Self { vectors, expected }
    }

    fn encrypt(&self, session: &Session, rng: &mut Rng) -> Res<Vec<Cts>> {
        self.vectors
            .iter()
            .map(|v| session.encrypt(v, rng))
            .collect()
    }
}

fn shape(ring: Ring, rows: usize, cols: usize, clients: usize) -> Vec<(&'static str, Json)> {
    vec![
        ("ring_degree", ring.degree().into()),
        ("rows", rows.into()),
        ("cols", cols.into()),
        ("col_tiles", cols.div_ceil(ring.degree()).into()),
        ("clients", clients.into()),
        ("loop", "closed".into()),
    ]
}

fn describe(fields: Vec<(&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

// ------------------------------------------------- hmvp_tall / hmvp_wide

/// In-process `Hmvp::multiply` on one caller thread, kernel pool of 1.
struct HmvpLocal {
    matrix: Plain,
    inputs: Inputs,
    rng: Rng,
    state: Option<LocalState>,
}

struct LocalState {
    session: Session,
    encoded: Encoded,
    cts: Vec<Cts>,
}

impl HmvpLocal {
    fn generate(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let matrix = Ring::Paper.random_matrix(rows, cols, rng);
        let inputs = Inputs::generate(Ring::Paper, &matrix, 3, rng);
        Self {
            matrix,
            inputs,
            rng: rng.clone(),
            state: None,
        }
    }
}

impl Workload for HmvpLocal {
    fn setup(&mut self) -> Res<()> {
        self.state = None;
        let session = Session::new(Ring::Paper, self.matrix.rows(), &mut self.rng)?;
        let encoded = session.encode_matrix(&self.matrix)?;
        let cts = self.inputs.encrypt(&session, &mut self.rng)?;
        self.state = Some(LocalState {
            session,
            encoded,
            cts,
        });
        Ok(())
    }

    fn single_threaded(&self) -> bool {
        true
    }

    fn clients(&mut self) -> Vec<ClientOp<'_>> {
        let st = self.state.as_ref().expect("set up");
        let expected = &self.inputs.expected;
        vec![Box::new(move |ctx: &mut OpCtx| {
            let i = ctx.iter() as usize % st.cts.len();
            let reply = ctx.clock("call.multiply", || {
                st.session.multiply(&st.encoded, &st.cts[i])
            });
            settle(ctx, "multiply", reply, &st.session, &expected[i]);
        })]
    }

    fn layers(&mut self, p: &mut Prober, _logs: &[ClientLog], m: &mut Layers) -> Res<()> {
        let st = self.state.as_ref().expect("set up");
        kernel_layers(
            p,
            &Replay {
                session: &st.session,
                matrix: &self.matrix,
                encoded: &st.encoded,
                vector: &self.inputs.vectors[0],
                cts: &st.cts[0],
            },
            &mut self.rng,
            m,
        )
    }

    fn teardown(&mut self) {
        self.state = None;
    }

    fn describe(&self) -> Json {
        let mut f = shape(Ring::Paper, self.matrix.rows(), self.matrix.cols(), 1);
        f.push(("operation", "Hmvp::multiply".into()));
        f.push(("pool_threads", 1usize.into()));
        describe(f)
    }
}

// ------------------------------------------------------------- serving

const PHASES: [(&str, &str); 8] = [
    ("queue", "serve.phase.queue_ms"),
    ("batch", "serve.phase.batch_ms"),
    ("encode", "serve.phase.encode_ms"),
    ("dot", "serve.phase.dot_ms"),
    ("rescale", "serve.phase.rescale_ms"),
    ("keyswitch", "serve.phase.keyswitch_ms"),
    ("serialize", "serve.phase.serialize_ms"),
    ("total", "serve.phase.total_ms"),
];

/// A phase's count and time between two reports of one node.
fn phase_between(after: &NodeReport, before: &NodeReport, name: &str) -> Option<Phase> {
    let a = after.phase(name)?;
    let b = before.phase(name).unwrap_or_default();
    Some(Phase {
        count: a.count.saturating_sub(b.count),
        sum_ms: a.sum_ms - b.sum_ms,
    })
}

fn phase_mean(p: Phase) -> f64 {
    if p.count == 0 {
        0.0
    } else {
        p.sum_ms / p.count as f64
    }
}

/// `serve.*` values of one node between `before` and `after`;
/// `request_ms` are the clients' request latencies over the same window
/// and `ops` the workload operations in it.
fn serve_layers(
    m: &mut Layers,
    before: &NodeReport,
    after: &NodeReport,
    request_ms: &[f64],
    ops: u64,
) {
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    let mut means = Vec::new();
    for (phase, metric) in PHASES {
        let v = phase_between(after, before, phase).map(phase_mean);
        means.push(v.unwrap_or(0.0));
        m.set_opt(metric, v);
    }
    let total = means[7];
    if total > 0.0 {
        m.set(
            "serve.kernel_share",
            (means[2] + means[3] + means[4] + means[5]) / total,
        );
        m.set("serve.wire_ms", mean(request_ms) - total);
    }
    m.set("serve.req_ms_p99", percentile(request_ms, 0.99));
    m.set("serve.avg_batch", after.avg_batch);
    m.set("serve.peak_queue_depth", after.peak_queue_depth as f64);
    m.set(
        "serve.rejected_busy",
        (after.rejected_busy - before.rejected_busy) as f64,
    );
    m.set(
        "serve.timed_out",
        (after.timed_out - before.timed_out) as f64,
    );
    let encodes = phase_between(after, before, "matrix_encode");
    m.set_opt("serve.matrix_encode_ms", encodes.map(phase_mean));
    m.set_opt("serve.fresh_encodes", encodes.map(|p| per_op(p.count)));
    m.set(
        "serve.store.restores",
        per_op(after.store_restores - before.store_restores),
    );
    if let (Some((h1, m1)), Some((h0, m0))) = (after.store_lookups, before.store_lookups) {
        let (hits, misses) = (h1 - h0, m1 - m0);
        if hits + misses > 0 {
            m.set(
                "serve.store.hit_share",
                hits as f64 / (hits + misses) as f64,
            );
        }
    }
}

/// One node, one cached wide matrix, `nproc` clients sending 3 MB requests.
struct ServeWide {
    clients: usize,
    matrix: Plain,
    /// One input set per client.
    inputs: Vec<Inputs>,
    rng: Rng,
    state: Option<ServeState>,
    marked: NodeReport,
}

struct ServeState {
    session: Session,
    node: Node,
    key_id: u64,
    matrix_id: u64,
    conns: Vec<(Conn, Vec<Cts>)>,
}

impl ServeWide {
    const ROWS: usize = 4;
    const COLS: usize = 65_536;

    fn generate(clients: usize, rng: &mut Rng) -> Self {
        let matrix = Ring::Paper.random_matrix(Self::ROWS, Self::COLS, rng);
        let inputs = (0..clients)
            .map(|_| Inputs::generate(Ring::Paper, &matrix, 3, rng))
            .collect();
        Self {
            clients,
            matrix,
            inputs,
            rng: rng.clone(),
            state: None,
            marked: NodeReport::default(),
        }
    }
}

impl Workload for ServeWide {
    fn setup(&mut self) -> Res<()> {
        self.teardown();
        let session = Session::new(Ring::Paper, Self::ROWS, &mut self.rng)?;
        let node = Node::start(
            &session,
            &NodeConfig {
                workers: 2,
                ..NodeConfig::default()
            },
        )?;
        let mut conns = Vec::new();
        for inputs in &self.inputs {
            let conn = Conn::connect(&node.addr(), &session)?;
            conns.push((conn, inputs.encrypt(&session, &mut self.rng)?));
        }
        let key_id = conns[0].0.load_keys(&session)?;
        let matrix_id = conns[0].0.load_matrix(&self.matrix)?;
        self.state = Some(ServeState {
            session,
            node,
            key_id,
            matrix_id,
            conns,
        });
        Ok(())
    }

    fn clients(&mut self) -> Vec<ClientOp<'_>> {
        let st = self.state.as_mut().expect("set up");
        let (session, key_id, matrix_id) = (&st.session, st.key_id, st.matrix_id);
        st.conns
            .iter_mut()
            .zip(&self.inputs)
            .map(|((conn, cts), inputs)| -> ClientOp<'_> {
                Box::new(move |ctx: &mut OpCtx| {
                    let i = ctx.iter() as usize % cts.len();
                    let reply = ctx.clock("call.hmvp", || conn.hmvp(key_id, matrix_id, &cts[i]));
                    settle(ctx, "hmvp", reply, session, &inputs.expected[i]);
                })
            })
            .collect()
    }

    fn mark(&mut self) {
        self.marked = self.state.as_ref().expect("set up").node.report();
    }

    fn layers(&mut self, p: &mut Prober, logs: &[ClientLog], m: &mut Layers) -> Res<()> {
        let st = self.state.as_ref().expect("set up");
        let requests = call_ms(logs, "call.hmvp");
        serve_layers(
            m,
            &self.marked,
            &st.node.report(),
            &requests,
            requests.len() as u64,
        );
        let encoded = st.session.encode_matrix(&self.matrix)?;
        kernel_layers(
            p,
            &Replay {
                session: &st.session,
                matrix: &self.matrix,
                encoded: &encoded,
                vector: &self.inputs[0].vectors[0],
                cts: &st.conns[0].1[0],
            },
            &mut self.rng,
            m,
        )
    }

    fn teardown(&mut self) {
        if let Some(st) = self.state.take() {
            drop(st.conns);
            st.node.shutdown();
        }
    }

    fn describe(&self) -> Json {
        let mut f = shape(Ring::Paper, Self::ROWS, Self::COLS, self.clients);
        f.push(("operation", "ServeClient::hmvp".into()));
        f.push(("server_workers", 2usize.into()));
        f.push(("pool_threads", sut::pool_threads().into()));
        describe(f)
    }
}

/// The same node with a store and a small cache: every round writes a
/// fresh matrix, reads it four times, and reads one evicted ten rounds ago.
struct ServeChurn {
    clients: usize,
    seed: u64,
    /// A matrix of the churn shape for the in-process layer replay.
    sample: Plain,
    /// Per client: the vectors it sends (products depend on the round's
    /// matrix, so they are computed as think time).
    vectors: Vec<Vec<Vec<u64>>>,
    dir: PathBuf,
    setups: u32,
    rng: Rng,
    state: Option<ChurnState>,
    marked: NodeReport,
}

struct ChurnState {
    session: Session,
    node: Node,
    key_id: u64,
    store_dir: PathBuf,
    conns: Vec<ChurnClient>,
}

struct ChurnClient {
    conn: Conn,
    cts: Vec<Cts>,
    rng: Rng,
    /// `(matrix id, product per vector)` of the last `COLD_AGE` rounds.
    history: VecDeque<(u64, Vec<Vec<u64>>)>,
}

impl ServeChurn {
    const ROWS: usize = 4;
    const COLS: usize = 16_384;
    const HOT: usize = 4;
    const COLD_AGE: usize = 10;
    const MATRIX_CACHE: usize = 8;
    const STORE_CAP: u64 = 128 << 20;

    fn generate(clients: usize, seed: u64, out_dir: &Path, rng: &mut Rng) -> Self {
        let sample = Ring::Paper.random_matrix(Self::ROWS, Self::COLS, rng);
        let vectors = (0..clients)
            .map(|_| {
                (0..2)
                    .map(|_| Ring::Paper.random_vector(Self::COLS, rng))
                    .collect()
            })
            .collect();
        Self {
            clients,
            seed,
            sample,
            vectors,
            dir: out_dir.join(format!("serve_churn.{}.tmp", std::process::id())),
            setups: 0,
            rng: rng.clone(),
            state: None,
            marked: NodeReport::default(),
        }
    }
}

impl Workload for ServeChurn {
    fn setup(&mut self) -> Res<()> {
        self.teardown();
        self.setups += 1;
        let store_dir = self.dir.join(format!("store{}", self.setups));
        std::fs::create_dir_all(&store_dir).map_err(|e| e.to_string())?;
        let session = Session::new(Ring::Paper, Self::ROWS, &mut self.rng)?;
        let node = Node::start(
            &session,
            &NodeConfig {
                workers: 2,
                matrix_cache: Some(Self::MATRIX_CACHE),
                store_dir: Some(store_dir.clone()),
                store_cap_bytes: Self::STORE_CAP,
            },
        )?;
        let mut conns = Vec::new();
        for (c, vectors) in self.vectors.iter().enumerate() {
            let cts = vectors
                .iter()
                .map(|v| session.encrypt(v, &mut self.rng))
                .collect::<Res<_>>()?;
            conns.push(ChurnClient {
                conn: Conn::connect(&node.addr(), &session)?,
                cts,
                // Each client uploads its own stream of matrices.
                rng: sut::rng(self.seed ^ ((c as u64 + 1) << 40)),
                history: VecDeque::new(),
            });
        }
        let key_id = conns[0].conn.load_keys(&session)?;
        self.state = Some(ChurnState {
            session,
            node,
            key_id,
            store_dir,
            conns,
        });
        Ok(())
    }

    /// Ten rounds fill each client's history, so every timed round has
    /// its cold request.
    fn warmup_ops(&self) -> u64 {
        Self::COLD_AGE as u64 + 2
    }

    fn clients(&mut self) -> Vec<ClientOp<'_>> {
        let st = self.state.as_mut().expect("set up");
        let (session, key_id) = (&st.session, st.key_id);
        st.conns
            .iter_mut()
            .zip(&self.vectors)
            .map(|(c, vectors)| -> ClientOp<'_> {
                Box::new(move |ctx: &mut OpCtx| {
                    let (a, expected) = ctx.aside("generate", || {
                        let a = Ring::Paper.random_matrix(Self::ROWS, Self::COLS, &mut c.rng);
                        let expected: Vec<Vec<u64>> = vectors
                            .iter()
                            .map(|v| Ring::Paper.reference(&a, v))
                            .collect();
                        (a, expected)
                    });
                    let uploaded = ctx.clock("call.upload", || c.conn.upload_matrix(&a));
                    let id = match uploaded {
                        Ok((id, chunks)) => {
                            ctx.outcome("upload", Ok(()));
                            ctx.count("chunks_sent", u64::from(chunks));
                            id
                        }
                        Err(e) => return ctx.outcome("upload", Err(e)),
                    };
                    for h in 0..Self::HOT {
                        let j = h % c.cts.len();
                        let reply =
                            ctx.clock("call.hmvp_hot", || c.conn.hmvp(key_id, id, &c.cts[j]));
                        settle(ctx, "hmvp_hot", reply, session, &expected[j]);
                    }
                    if c.history.len() == Self::COLD_AGE {
                        let (old_id, old_expected) = c.history.pop_front().expect("non-empty");
                        let reply =
                            ctx.clock("call.hmvp_cold", || c.conn.hmvp(key_id, old_id, &c.cts[0]));
                        settle(ctx, "hmvp_cold", reply, session, &old_expected[0]);
                    }
                    c.history.push_back((id, expected));
                })
            })
            .collect()
    }

    fn mark(&mut self) {
        self.marked = self.state.as_ref().expect("set up").node.report();
    }

    fn layers(&mut self, p: &mut Prober, logs: &[ClientLog], m: &mut Layers) -> Res<()> {
        let st = self.state.as_ref().expect("set up");
        let mut requests = call_ms(logs, "call.hmvp_hot");
        let hot = median(&requests);
        let cold = call_ms(logs, "call.hmvp_cold");
        requests.extend(&cold);
        let uploads = call_ms(logs, "call.upload");
        let rounds = uploads.len() as u64;
        serve_layers(m, &self.marked, &st.node.report(), &requests, rounds);
        m.set("serve.upload_ms_p50", median(&uploads));
        m.set("serve.hot_req_ms_p50", hot);
        m.set("serve.cold_req_ms_p50", median(&cold));
        m.set(
            "serve.upload.chunks_sent",
            count(logs, "chunks_sent") as f64 / rounds.max(1) as f64,
        );

        let encoded = st.session.encode_matrix(&self.sample)?;
        // put/get on a store of the benchmark's own, with the segment
        // size this workload spills.
        let segment = Kernels::segment_bytes(&encoded)?;
        let probe_dir = self.dir.join("probe");
        std::fs::create_dir_all(&probe_dir).map_err(|e| e.to_string())?;
        let store = StoreProbe::open(&probe_dir, Self::STORE_CAP)?;
        p.next_request();
        let mut put = Vec::new();
        let mut get = Vec::new();
        for id in 1..=5u64 {
            let (r, ms) = p.time("serve.store.put", || store.put(id, &segment));
            r?;
            put.push(ms);
        }
        for id in 1..=5u64 {
            let (r, ms) = p.time("serve.store.get", || store.get(id));
            r.ok_or("store probe lost a segment")?;
            get.push(ms);
        }
        m.set("serve.store.put_ms", median(&put));
        m.set("serve.store.get_ms", median(&get));

        let cts = st.session.encrypt(&self.vectors[0][0], &mut self.rng)?;
        kernel_layers(
            p,
            &Replay {
                session: &st.session,
                matrix: &self.sample,
                encoded: &encoded,
                vector: &self.vectors[0][0],
                cts: &cts,
            },
            &mut self.rng,
            m,
        )
    }

    fn teardown(&mut self) {
        if let Some(st) = self.state.take() {
            drop(st.conns);
            st.node.shutdown();
            let _ = std::fs::remove_dir_all(&st.store_dir);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn describe(&self) -> Json {
        let mut f = shape(Ring::Paper, Self::ROWS, Self::COLS, self.clients);
        f.push((
            "operation",
            "round: upload fresh matrix + 4 hot requests + 1 request on the matrix of 10 rounds ago".into(),
        ));
        f.push(("server_workers", 2usize.into()));
        f.push(("matrix_cache", Self::MATRIX_CACHE.into()));
        f.push(("store_cap_bytes", Self::STORE_CAP.into()));
        f.push(("pool_threads", sut::pool_threads().into()));
        describe(f)
    }
}

// -------------------------------------------------------------- cluster

/// Three in-process nodes, one sharded matrix, one fan-out client.
struct ClusterFanout {
    seed: u64,
    matrix: Plain,
    inputs: Inputs,
    /// Draws it took to find a matrix whose bands have distinct primaries.
    draws: u32,
    rng: Rng,
    state: Option<FleetState>,
    marked: (Vec<NodeReport>, ClusterCounts),
}

struct FleetState {
    session: Session,
    fleet: Fleet,
    conn: ClusterConn,
    key_id: u64,
    sharded: Sharded,
    cts: Vec<Cts>,
}

impl ClusterFanout {
    const NODES: u16 = 3;
    const REPLICATION: u16 = 2;
    const VNODES: u32 = 128;
    const BANDS: usize = 3;
    const MAX_DRAWS: u32 = 200;

    fn start_fleet(session: &Session, matrix_cache: Option<usize>) -> Res<Fleet> {
        Fleet::start(
            session,
            Self::NODES,
            Self::REPLICATION,
            Self::VNODES,
            &NodeConfig {
                workers: 2,
                matrix_cache,
                ..NodeConfig::default()
            },
        )
    }

    /// Band placement follows the content hash of each band, so it varies
    /// with the seed. A request is as slow as its busiest node; to keep
    /// runs comparable across seeds (and across a later change of the
    /// hash), matrices are drawn until each band has its own primary.
    fn generate(seed: u64, rng: &mut Rng) -> Res<Self> {
        let n = Ring::Small.degree();
        let mut scratch_rng = rng.clone();
        let session = Session::new(Ring::Small, n, &mut scratch_rng)?;
        // A cache of one keeps this search from setting the process's
        // peak memory, which would then vary with the number of draws.
        let fleet = Self::start_fleet(&session, Some(1))?;
        let mut found = None;
        for draw in 1..=Self::MAX_DRAWS {
            let a = Ring::Small.random_matrix(Self::BANDS * n, n, rng);
            // A client keeps what it uploaded; a fresh one per draw does not.
            let mut conn = fleet.client(&session, seed);
            let mut primaries = ClusterConn::primaries(&conn.load_sharded(&a, n)?);
            primaries.sort_unstable();
            primaries.dedup();
            if primaries.len() == Self::BANDS {
                found = Some((a, draw));
                break;
            }
        }
        fleet.shutdown();
        let (matrix, draws) = found.ok_or("no balanced band placement found")?;
        let inputs = Inputs::generate(Ring::Small, &matrix, 4, rng);
        Ok(Self {
            seed,
            matrix,
            inputs,
            draws,
            rng: rng.clone(),
            state: None,
            marked: Default::default(),
        })
    }
}

impl Workload for ClusterFanout {
    fn setup(&mut self) -> Res<()> {
        self.teardown();
        let n = Ring::Small.degree();
        let session = Session::new(Ring::Small, n, &mut self.rng)?;
        let fleet = Self::start_fleet(&session, None)?;
        let mut conn = fleet.client(&session, self.seed);
        let key_id = conn.load_keys(&session)?;
        let sharded = conn.load_sharded(&self.matrix, n)?;
        let cts = self.inputs.encrypt(&session, &mut self.rng)?;
        self.state = Some(FleetState {
            session,
            fleet,
            conn,
            key_id,
            sharded,
            cts,
        });
        Ok(())
    }

    fn clients(&mut self) -> Vec<ClientOp<'_>> {
        let st = self.state.as_mut().expect("set up");
        let expected = &self.inputs.expected;
        let (session, key_id, sharded, cts) = (&st.session, st.key_id, &st.sharded, &st.cts);
        let conn = &mut st.conn;
        vec![Box::new(move |ctx: &mut OpCtx| {
            let i = ctx.iter() as usize % cts.len();
            let reply = ctx.clock("call.hmvp_sharded", || conn.hmvp(key_id, sharded, &cts[i]));
            settle(ctx, "hmvp_sharded", reply, session, &expected[i]);
        })]
    }

    fn mark(&mut self) {
        let st = self.state.as_ref().expect("set up");
        self.marked = (st.fleet.reports(), st.conn.counts());
    }

    fn layers(&mut self, p: &mut Prober, logs: &[ClientLog], m: &mut Layers) -> Res<()> {
        let st = self.state.as_ref().expect("set up");
        let requests = call_ms(logs, "call.hmvp_sharded");
        let n = requests.len().max(1) as f64;
        // A node's share of one cluster request is all the band
        // sub-requests it served, so sum, then divide by cluster requests.
        let after = st.fleet.reports();
        let node_ms: Vec<Option<f64>> = after
            .iter()
            .zip(&self.marked.0)
            .map(|(a, b)| phase_between(a, b, "total").map(|ph| ph.sum_ms / n))
            .collect();
        if node_ms.iter().all(Option::is_some) {
            let slowest = node_ms.iter().flatten().copied().fold(0.0, f64::max);
            m.set("cluster.node_total_ms_max", slowest);
            m.set("cluster.fanout_overhead_ms", mean(&requests) - slowest);
        } else {
            m.set_opt("cluster.node_total_ms_max", None);
        }
        let counts = st.conn.counts();
        let before = &self.marked.1;
        let busiest = counts
            .per_node_requests
            .iter()
            .zip(&before.per_node_requests)
            .map(|(a, b)| a - b)
            .max()
            .unwrap_or(0);
        m.set("cluster.max_bands_per_node", busiest as f64 / n);
        m.set(
            "cluster.failovers",
            (counts.failovers - before.failovers) as f64,
        );
        m.set("cluster.retries", (counts.retries - before.retries) as f64);
        m.set(
            "cluster.refreshes",
            (counts.refreshes - before.refreshes) as f64,
        );

        let encoded = st.session.encode_matrix(&self.matrix)?;
        kernel_layers(
            p,
            &Replay {
                session: &st.session,
                matrix: &self.matrix,
                encoded: &encoded,
                vector: &self.inputs.vectors[0],
                cts: &st.cts[0],
            },
            &mut self.rng,
            m,
        )
    }

    fn teardown(&mut self) {
        if let Some(st) = self.state.take() {
            drop(st.conn);
            st.fleet.shutdown();
        }
    }

    fn describe(&self) -> Json {
        let n = Ring::Small.degree();
        let mut f = shape(Ring::Small, Self::BANDS * n, n, 1);
        f.push(("operation", "ClusterClient::hmvp_sharded".into()));
        f.push(("nodes", u64::from(Self::NODES).into()));
        f.push(("replication", u64::from(Self::REPLICATION).into()));
        f.push(("vnodes", u64::from(Self::VNODES).into()));
        f.push(("bands", Self::BANDS.into()));
        f.push(("placement_draws", u64::from(self.draws).into()));
        f.push(("pool_threads", sut::pool_threads().into()));
        describe(f)
    }
}
