//! The adapter: the only module that names the program's types.
//!
//! Everything the benchmark does to the system under test goes through
//! the handful of public entry points below, so a later refactor of the
//! program breaks at most this file. Errors cross the boundary as
//! strings; introspection crosses it as plain numbers, with `None` where
//! the program no longer reports a phase or counter (the caller lists a
//! warning and carries on).

use cham_cluster::{ClusterClient, ShardedMatrix, Topology};
use cham_he::ciphertext::{LweCiphertext, RlweCiphertext};
use cham_he::encoding::CoeffEncoder;
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::extract::extract_lwe;
use cham_he::hmvp::{EncodedMatrix, Hmvp, HmvpResult, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::ops::{keyswitch_mask, lift_plaintext_ntt, rescale};
use cham_he::pack::{pack_lwes, pack_two};
use cham_he::params::ChamParams;
use cham_he::wire;
use cham_math::rns::{FusedAccumulator, RnsPoly};
use cham_serve::{
    ClientConfig, HashRing, RetryPolicy, SegmentStore, ServeClient, Server, ServerConfig, ShardSpec,
};
use rand::{Rng as _, SeedableRng as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

pub type Rng = rand::rngs::StdRng;
pub type Plain = Matrix;
pub type Encoded = EncodedMatrix;
pub type Cts = Vec<RlweCiphertext>;
pub type Lwe = LweCiphertext;
pub type Rlwe = RlweCiphertext;
pub type Output = HmvpResult;
pub type Sharded = ShardedMatrix;
pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

pub fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

// ------------------------------------------------------------ process facts

/// Sizes the shared kernel pool; only the first call in a process counts.
pub fn configure_pool(threads: usize) {
    cham_pool::configure_global(threads);
}

pub fn pool_threads() -> usize {
    cham_pool::current_threads()
}

pub fn simd_backend() -> String {
    cham_math::Backend::active().to_string()
}

/// Always-on counters of the math, HE and pool layers, read before and
/// after a timed window.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// `(kernel family, vector elements, scalar-tail elements)`.
    pub simd: Vec<(&'static str, u64, u64)>,
    pub lazy_flushes: u64,
    pub scratch_hits: u64,
    pub scratch_misses: u64,
    pub pool_tasks: u64,
    pub pool_steals: u64,
    pub pool_parks: u64,
    pub pool_idle_ns: u64,
}

pub fn counters() -> Counters {
    let simd = cham_math::simd_stats();
    let (scratch_hits, scratch_misses) = cham_he::scratch::scratch_stats();
    let pool = cham_pool::global_stats();
    Counters {
        simd: cham_math::simd::Kernel::ALL
            .iter()
            .zip(simd.kernels)
            .map(|(k, st)| (k.name(), st.vector_elems, st.tail_elems))
            .collect(),
        lazy_flushes: cham_math::modulus::lazy_flush_count(),
        scratch_hits,
        scratch_misses,
        pool_tasks: pool.map_or(0, |p| p.tasks),
        pool_steals: pool.map_or(0, |p| p.steals),
        pool_parks: pool.map_or(0, |p| p.parks),
        pool_idle_ns: pool.map_or(0, |p| p.idle_ns),
    }
}

impl Counters {
    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            simd: self
                .simd
                .iter()
                .zip(&earlier.simd)
                .map(|(now, then)| (now.0, now.1 - then.1, now.2 - then.2))
                .collect(),
            lazy_flushes: self.lazy_flushes - earlier.lazy_flushes,
            scratch_hits: self.scratch_hits - earlier.scratch_hits,
            scratch_misses: self.scratch_misses - earlier.scratch_misses,
            pool_tasks: self.pool_tasks - earlier.pool_tasks,
            pool_steals: self.pool_steals - earlier.pool_steals,
            pool_parks: self.pool_parks - earlier.pool_parks,
            pool_idle_ns: self.pool_idle_ns - earlier.pool_idle_ns,
        }
    }
}

// ------------------------------------------------------------------ session

/// Which parameter set a workload runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ring {
    /// The paper's `N = 4096`.
    Paper,
    /// `insecure_test_default`, `N = 256`.
    Small,
}

impl Ring {
    /// The parameter set, built once per process (table derivation is not
    /// part of any timed step).
    fn params(self) -> Arc<ChamParams> {
        static PAPER: OnceLock<Arc<ChamParams>> = OnceLock::new();
        static SMALL: OnceLock<Arc<ChamParams>> = OnceLock::new();
        let (cell, build): (_, fn() -> cham_he::Result<ChamParams>) = match self {
            Ring::Paper => (&PAPER, ChamParams::cham_default),
            Ring::Small => (&SMALL, ChamParams::insecure_test_default),
        };
        Arc::clone(cell.get_or_init(|| Arc::new(build().expect("built-in parameter set"))))
    }

    pub fn degree(self) -> usize {
        self.params().degree()
    }

    pub fn random_matrix(self, rows: usize, cols: usize, rng: &mut Rng) -> Plain {
        Matrix::random(rows, cols, self.params().plain_modulus().value(), rng)
    }

    pub fn random_vector(self, len: usize, rng: &mut Rng) -> Vec<u64> {
        let t = self.params().plain_modulus().value();
        (0..len).map(|_| rng.gen_range(0..t)).collect()
    }

    /// The plaintext oracle every result is checked against.
    pub fn reference(self, a: &Plain, v: &[u64]) -> Vec<u64> {
        a.mul_vector_mod(v, self.params().plain_modulus())
            .expect("reference shapes are the benchmark's own")
    }
}

/// One party's keys and engine: what a HeteroLR participant holds.
pub struct Session {
    params: Arc<ChamParams>,
    hmvp: Hmvp,
    enc: Encryptor,
    dec: Decryptor,
    gkeys: GaloisKeys,
    /// Automorphism indices shipped to a server (`2^j + 1`).
    indices: Vec<usize>,
}

impl Session {
    /// Key generation. Galois keys cover packing up to `pack_rows` rows.
    pub fn new(ring: Ring, pack_rows: usize, rng: &mut Rng) -> Res<Self> {
        let params = ring.params();
        let sk = SecretKey::generate(&params, rng);
        let pack_rows = pack_rows.clamp(2, params.degree());
        let max_log = pack_rows.next_power_of_two().trailing_zeros();
        let gkeys = GaloisKeys::generate_for_packing(&sk, max_log, rng).map_err(err)?;
        Ok(Self {
            hmvp: Hmvp::new(&params),
            enc: Encryptor::new(&params, &sk),
            dec: Decryptor::new(&params, &sk),
            gkeys,
            indices: (1..=max_log).map(|j| (1usize << j) + 1).collect(),
            params,
        })
    }

    pub fn degree(&self) -> usize {
        self.params.degree()
    }

    pub fn encode_matrix(&self, a: &Plain) -> Res<Encoded> {
        self.hmvp.encode_matrix(a).map_err(err)
    }

    pub fn encrypt(&self, v: &[u64], rng: &mut Rng) -> Res<Cts> {
        self.hmvp.encrypt_vector(v, &self.enc, rng).map_err(err)
    }

    pub fn multiply(&self, m: &Encoded, cts: &Cts) -> Res<Output> {
        self.hmvp.multiply(m, cts, &self.gkeys).map_err(err)
    }

    pub fn dot_products(&self, m: &Encoded, cts: &Cts) -> Res<Vec<Lwe>> {
        self.hmvp.dot_products(m, cts).map_err(err)
    }

    /// The packing half of `multiply`: `pack_lwes` per `N`-row chunk.
    pub fn pack(&self, lwes: &[Lwe]) -> Res<usize> {
        let mut packed = 0;
        for chunk in lwes.chunks(self.degree()) {
            pack_lwes(chunk, &self.gkeys, &self.params).map_err(err)?;
            packed += 1;
        }
        Ok(packed)
    }

    pub fn decrypt(&self, out: &Output) -> Res<Vec<u64>> {
        self.hmvp.decrypt_result(out, &self.dec).map_err(err)
    }

    /// Smallest remaining noise budget over the packed outputs.
    pub fn noise_budget_bits(&self, out: &Output) -> f64 {
        out.packed
            .iter()
            .map(|p| self.dec.decrypt_with_noise(&p.ciphertext).budget_bits)
            .fold(f64::INFINITY, f64::min)
    }
}

// ------------------------------------------------------------ layer kernels

/// The pieces `multiply` is made of, callable one at a time on the
/// workload's own matrix and input, so each can be timed as its own span.
pub struct Kernels<'a> {
    s: &'a Session,
    /// `rows × col_tiles` NTT-form plaintext tiles, built as
    /// `encode_matrix` builds them.
    tiles: Vec<Vec<RnsPoly>>,
    acc_b: Vec<u128>,
    acc_a: Vec<u128>,
    limb: Vec<u64>,
}

impl<'a> Kernels<'a> {
    pub fn new(s: &'a Session, a: &Plain) -> Res<Self> {
        let n = s.degree();
        let aug = s.params.augmented_context();
        let coder = CoeffEncoder::new(&s.params);
        let tiles = (0..a.rows())
            .map(|i| {
                a.row(i)
                    .chunks(n)
                    .map(|chunk| {
                        let pt = coder.encode_row(chunk).map_err(err)?;
                        lift_plaintext_ntt(&pt, &s.params, aug).map_err(err)
                    })
                    .collect::<Res<Vec<_>>>()
            })
            .collect::<Res<Vec<_>>>()?;
        let lanes = aug.len() * n;
        let limb = tiles[0][0].limbs()[0].coeffs().to_vec();
        Ok(Self {
            s,
            tiles,
            acc_b: vec![0; lanes],
            acc_a: vec![0; lanes],
            limb,
        })
    }

    pub fn rows(&self) -> usize {
        self.tiles.len()
    }

    pub fn tile_count(&self) -> usize {
        self.tiles.len() * self.tiles[0].len()
    }

    /// Input lift: every input ciphertext to NTT form (`to_ntt`).
    pub fn lift(&self, cts: &Cts) -> Cts {
        cts.iter()
            .map(|ct| {
                let mut c = ct.clone();
                c.to_ntt();
                c
            })
            .collect()
    }

    /// The fused MAC of every row against lifted inputs: the product
    /// ciphertexts `rescale`/`extract_lwe` consume.
    pub fn mac(&mut self, lifted: &Cts) -> Res<Vec<Rlwe>> {
        let aug = self.s.params.augmented_context();
        let mut out = Vec::with_capacity(self.tiles.len());
        for row in &self.tiles {
            let mut b_acc = FusedAccumulator::new(aug, &mut self.acc_b).map_err(err)?;
            let mut a_acc = FusedAccumulator::new(aug, &mut self.acc_a).map_err(err)?;
            for (tile, ct) in row.iter().zip(lifted) {
                b_acc.accumulate(ct.b(), tile).map_err(err)?;
                a_acc.accumulate(ct.a(), tile).map_err(err)?;
            }
            out.push(RlweCiphertext::new(b_acc.finish(), a_acc.finish()).map_err(err)?);
        }
        Ok(out)
    }

    /// The per-row tail: `rescale` then `extract_lwe(_, 0)`.
    pub fn row_tail(&self, product: &Rlwe) -> Res<Lwe> {
        extract_lwe(&self.rescale(product)?, 0).map_err(err)
    }

    pub fn rescale(&self, product: &Rlwe) -> Res<Rlwe> {
        rescale(product, &self.s.params).map_err(err)
    }

    /// One `PACKTWOLWES` step at level 1 on two normal-basis ciphertexts.
    pub fn pack_two(&self, even: &Rlwe, odd: &Rlwe) -> Res<Rlwe> {
        pack_two(1, even, odd, &self.s.gkeys, &self.s.params).map_err(err)
    }

    /// One key-switch of a normal-basis mask under the level-1 Galois key.
    pub fn keyswitch(&self, ct: &Rlwe) -> Res<()> {
        let ksk = self.s.gkeys.get(3).map_err(err)?;
        keyswitch_mask(ct.a(), ksk, &self.s.params)
            .map(drop)
            .map_err(err)
    }

    /// One forward NTT over the first augmented limb.
    pub fn ntt_forward(&mut self) {
        self.s.params.augmented_context().tables()[0].forward(&mut self.limb);
    }

    pub fn ntt_inverse(&mut self) {
        self.s.params.augmented_context().tables()[0].inverse(&mut self.limb);
    }

    /// A coefficient-form augmented polynomial for `rescale_by_last`.
    pub fn coeff_poly(&self, product: &Rlwe) -> RnsPoly {
        let mut p = product.b().clone();
        p.to_coeff();
        p
    }

    pub fn rescale_by_last(&self, coeff: &RnsPoly) -> Res<()> {
        coeff
            .rescale_by_last(self.s.params.ciphertext_context())
            .map(drop)
            .map_err(err)
    }

    /// `calls` accumulates of one tile pair that stays in cache.
    pub fn mac_hot(&mut self, lifted: &Cts, calls: usize) -> Res<()> {
        let aug = self.s.params.augmented_context();
        let mut acc = FusedAccumulator::new(aug, &mut self.acc_b).map_err(err)?;
        for _ in 0..calls {
            acc.accumulate(lifted[0].b(), &self.tiles[0][0])
                .map_err(err)?;
        }
        acc.flush();
        Ok(())
    }

    /// One accumulate per distinct tile, walking the whole tile set once;
    /// returns the number of calls made.
    pub fn mac_stream(&mut self, lifted: &Cts) -> Res<usize> {
        let aug = self.s.params.augmented_context();
        let mut acc = FusedAccumulator::new(aug, &mut self.acc_b).map_err(err)?;
        for row in &self.tiles {
            for (tile, ct) in row.iter().zip(lifted) {
                acc.accumulate(ct.b(), tile).map_err(err)?;
            }
        }
        acc.flush();
        Ok(self.tile_count())
    }

    pub fn wire_encode(ct: &Rlwe) -> Vec<u8> {
        wire::rlwe_to_bytes(ct)
    }

    pub fn wire_decode(&self, bytes: &[u8]) -> Res<Rlwe> {
        wire::rlwe_from_bytes(bytes, &self.s.params).map_err(err)
    }

    /// The segment `cham-serve` would spill for `m` (its size sets the
    /// store probe's payload).
    pub fn segment_bytes(m: &Encoded) -> Res<Vec<u8>> {
        wire::encoded_matrix_to_bytes(m).map_err(err)
    }
}

// --------------------------------------------------------------- one server

/// The part of `ServerConfig` a workload varies; the rest stays default.
#[derive(Debug, Clone, Default)]
pub struct NodeConfig {
    pub workers: usize,
    pub matrix_cache: Option<usize>,
    pub store_dir: Option<PathBuf>,
    pub store_cap_bytes: u64,
}

/// `count` and summed milliseconds of one introspect phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phase {
    pub count: u64,
    pub sum_ms: f64,
}

/// What one node reports after a run, as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    phases: Vec<(String, Phase)>,
    pub avg_batch: f64,
    pub peak_queue_depth: u64,
    pub rejected_busy: u64,
    pub timed_out: u64,
    pub store_restores: u64,
    /// `(hits, misses)` of the attached store, when there is one.
    pub store_lookups: Option<(u64, u64)>,
}

impl NodeReport {
    /// `None` when the program no longer reports a phase of that name.
    pub fn phase(&self, name: &str) -> Option<Phase> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, p)| *p)
    }
}

pub struct Node {
    server: Server,
}

impl Node {
    pub fn start(session: &Session, cfg: &NodeConfig) -> Res<Self> {
        Self::start_with(session, cfg, None, 0)
    }

    fn start_with(
        session: &Session,
        cfg: &NodeConfig,
        shard: Option<ShardSpec>,
        node_id: u64,
    ) -> Res<Self> {
        let defaults = ServerConfig::default();
        let config = ServerConfig {
            workers: cfg.workers,
            matrix_cache: cfg.matrix_cache.unwrap_or(defaults.matrix_cache),
            store_dir: cfg.store_dir.clone(),
            store_cap_bytes: cfg.store_cap_bytes,
            shard,
            node_id,
            ..defaults
        };
        let server =
            Server::start("127.0.0.1:0", Arc::clone(&session.params), &config).map_err(err)?;
        Ok(Self { server })
    }

    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    pub fn report(&self) -> NodeReport {
        let snap = self.server.introspect();
        let cache = self.server.cache();
        NodeReport {
            phases: snap
                .phases
                .iter()
                .map(|p| {
                    (
                        p.name.clone(),
                        Phase {
                            count: p.count,
                            sum_ms: p.sum_ns as f64 / 1e6,
                        },
                    )
                })
                .collect(),
            avg_batch: snap.stats.avg_batch_size(),
            peak_queue_depth: snap.stats.peak_queue_depth,
            rejected_busy: snap.stats.rejected_busy,
            timed_out: snap.stats.timed_out,
            store_restores: cache.store_restores(),
            store_lookups: cache.store().map(|st| {
                let stats = st.stats();
                (stats.hits, stats.misses)
            }),
        }
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// One client connection to one node.
pub struct Conn {
    client: ServeClient,
}

impl Conn {
    pub fn connect(addr: &str, session: &Session) -> Res<Self> {
        ServeClient::connect(addr, Arc::clone(&session.params))
            .map(|client| Self { client })
            .map_err(err)
    }

    pub fn load_keys(&mut self, session: &Session) -> Res<u64> {
        self.client
            .load_keys(&session.gkeys, &session.indices)
            .map_err(err)
    }

    pub fn load_matrix(&mut self, a: &Plain) -> Res<u64> {
        self.client.load_matrix(a).map_err(err)
    }

    /// `load_matrix` as the client performs it today (chunked), also
    /// returning how many chunks went over the wire.
    pub fn upload_matrix(&mut self, a: &Plain) -> Res<(u64, u32)> {
        self.client
            .load_matrix_streamed(a, cham_serve::protocol::DEFAULT_CHUNK_BYTES)
            .map(|up| (up.matrix_id, up.chunks_sent))
            .map_err(err)
    }

    pub fn hmvp(&mut self, key_id: u64, matrix_id: u64, cts: &Cts) -> Res<Output> {
        self.client.hmvp(key_id, matrix_id, cts, None).map_err(err)
    }
}

/// A bench-owned `SegmentStore`, for timing `put`/`get` on their own.
pub struct StoreProbe {
    store: SegmentStore,
}

impl StoreProbe {
    pub fn open(dir: &Path, cap_bytes: u64) -> Res<Self> {
        SegmentStore::open(dir, cap_bytes)
            .map(|store| Self { store })
            .map_err(err)
    }

    pub fn put(&self, id: u64, payload: &[u8]) -> Res<()> {
        self.store.put(id, payload).map_err(err)
    }

    pub fn get(&self, id: u64) -> Option<Vec<u8>> {
        self.store.get(id)
    }
}

// ------------------------------------------------------------------ a fleet

pub struct Fleet {
    nodes: Vec<Node>,
    topology: Topology,
}

impl Fleet {
    /// `count` in-process nodes on loopback sharing one ring.
    pub fn start(
        session: &Session,
        count: u16,
        replication: u16,
        vnodes: u32,
        cfg: &NodeConfig,
    ) -> Res<Self> {
        let ring = HashRing::new(count, vnodes, replication);
        let nodes = (0..count)
            .map(|i| {
                let shard = ShardSpec::new(ring.clone(), i, 1);
                Node::start_with(session, cfg, Some(shard), 0xC0DE + u64::from(i))
            })
            .collect::<Res<Vec<_>>>()?;
        let topology = Topology::new(nodes.iter().map(Node::addr).collect())
            .map_err(err)?
            .with_vnodes(vnodes)
            .with_replication(replication)
            .with_epoch(1);
        Ok(Self { nodes, topology })
    }

    pub fn client(&self, session: &Session, jitter_seed: u64) -> ClusterConn {
        let policy = RetryPolicy {
            jitter_seed,
            ..RetryPolicy::default()
        };
        ClusterConn {
            client: ClusterClient::with_config(
                self.topology.clone(),
                Arc::clone(&session.params),
                ClientConfig::default(),
                policy,
            ),
        }
    }

    pub fn reports(&self) -> Vec<NodeReport> {
        self.nodes.iter().map(Node::report).collect()
    }

    pub fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct ClusterCounts {
    pub failovers: u64,
    pub retries: u64,
    pub refreshes: u64,
    pub per_node_requests: Vec<u64>,
}

pub struct ClusterConn {
    client: ClusterClient,
}

impl ClusterConn {
    pub fn load_keys(&mut self, session: &Session) -> Res<u64> {
        self.client
            .load_keys(&session.gkeys, &session.indices)
            .map_err(err)
    }

    pub fn load_sharded(&mut self, a: &Plain, band_rows: usize) -> Res<Sharded> {
        self.client.load_matrix_sharded(a, band_rows).map_err(err)
    }

    /// The slot that serves each band first.
    pub fn primaries(sharded: &Sharded) -> Vec<u16> {
        sharded
            .bands
            .iter()
            .filter_map(|b| b.replicas.first().copied())
            .collect()
    }

    pub fn hmvp(&mut self, key_id: u64, sharded: &Sharded, cts: &Cts) -> Res<Output> {
        self.client
            .hmvp_sharded(key_id, sharded, cts, None)
            .map_err(err)
    }

    pub fn counts(&self) -> ClusterCounts {
        let st = self.client.stats();
        ClusterCounts {
            failovers: st.failovers,
            retries: st.retries,
            refreshes: st.refreshes,
            per_node_requests: st.per_node_requests,
        }
    }
}
