//! Runtime-dispatched SIMD backend for the NTT/modmul hot kernels.
//!
//! This is the CPU analogue of CHAM's BFU array: where the FPGA instantiates
//! `n_bf` butterfly units that chew through a stage in lock-step, a vector
//! register processes `lanes` butterflies per instruction. The hot kernels
//! of the lazy datapath (PR 4) are dispatched from here:
//!
//! * the forward Harvey butterfly (`[0, 4q)` lazy, one conditional `−2q`),
//! * the inverse Gentleman–Sande butterfly (`[0, 2q)` lazy),
//! * element-wise [`Modulus::mul_shoup_lazy`] against a constant table
//!   (the CG ψ-twist and any Shoup-prepared pointwise multiply),
//! * the `u128` multiply-accumulate lanes behind
//!   [`crate::rns::FusedAccumulator`] / [`crate::poly::mul_pointwise_accumulate`]
//!   (the HMVP row MAC),
//! * the key-switch **digit product** ([`digit_product`]): both key
//!   components' digit sums for one limb in one pass, reduced in registers
//!   — no accumulator plane,
//! * the **rescale** by the last prime of a chain ([`rescale_into`] /
//!   [`rescale_add`], behind [`crate::rns::RnsContext::rescale_limb_into`]),
//!
//! plus the `[0, 4q) → [0, q)` normalization pass that finishes a lazy
//! forward transform.
//!
//! ## Dispatch model
//!
//! A [`Backend`] is resolved **once** per process — `CHAM_SIMD`
//! (`scalar|avx2|avx512ifma|auto`, default `auto`) combined with
//! runtime feature detection (`is_x86_feature_detected!`) — and then stored
//! on every [`crate::NttTable`] at construction.
//! Kernel entry points take the backend as a value, so there is exactly one
//! branch per *transform, stage or slice*, never per butterfly. Benches and
//! tests can pin a table to a specific backend with
//! [`crate::NttTable::with_backend`] (for in-process A/B ablations) or flip
//! the process default with [`Backend::force`].
//!
//! ## Why the lazy ranges make the vector kernels branch-free
//!
//! Every arithmetic step of the lazy datapath is a pure function of the lane:
//! wrapping multiplies, wrapping add/sub, and *conditional subtraction* —
//! which vectorizes as `x - (m & (x >= m))` with an unsigned compare mask
//! (or `min(x, x − m)` where an unsigned 64-bit minimum exists). There is
//! no carry chain between lanes and no data-dependent branch. The strict
//! datapath's per-butterfly canonical corrections would need two such
//! masked subtractions per leg; the lazy discipline pays one, which is why
//! the vector kernels target the lazy twins only.
//!
//! ## Backends
//!
//! * `scalar` — the PR 4 lazy datapath; always available and the
//!   correctness oracle for everything else.
//! * `avx2` — `std::arch::x86_64`, 4 × u64 lanes, forward butterfly
//!   stages and the normalization pass. AVX2 has no 64×64→128 multiply, so
//!   the Shoup high-half is computed exactly with the classic 32-bit split
//!   (`_mm256_mul_epu32` partial products + carry folding) — the same
//!   construction Intel HEXL uses on pre-IFMA parts.
//!   Strides below four butterflies run the scalar kernel. Its `u128` MAC
//!   arm lost to scalar (0.47–0.63×), its element-wise multiply arm never
//!   beat it beyond noise (0.71–1.14× across records), and its inverse
//!   stage arm made `hmvp_tall` slower in 9 of 10 pairs, so all three were
//!   deleted: on every backend those kernels *are* the scalar ones.
//!   ([`crate::CgNttTable`] — the hardware golden model, reached by no HE
//!   path and no committed record — runs scalar stage loops of its own.)
//! * `avx512ifma` — 8 × u64 lanes on the 52-bit multiply-add
//!   (`vpmadd52{lo,hi}uq`), with arms of its own for three kernels:
//!   whole [`crate::NttTable`] transforms (every stage, the forward
//!   normalization and the inverse's `n⁻¹` last stage in 512-bit
//!   registers, strides 8/4/2/1 in-register with lane permutes — the HEXL
//!   recipe), the key-switch digit product, and the rescale. Every 52-bit
//!   Shoup companion is a 64-bit one shifted right by 12, so the tier adds
//!   no tables. It needs every value it multiplies to fit 52 bits: a
//!   modulus of 2^50 or more — a property of the input, nothing to
//!   configure — resolves the table to `avx2`, and the element-wise
//!   kernels follow the table's backend, so they run scalar there (as they
//!   do for `n < 16`, a slice shorter than one register, and every tail).
//!   Every other kernel under this backend runs the best arm that exists
//!   (AVX2 stages/normalization, scalar row MAC and element-wise multiply).
//!   `auto` picks it when `avx512f` + `avx512ifma` are detected.
//!
//! ## The equivalence contract
//!
//! Every public kernel output is bit-identical to the scalar twin's on
//! every backend: canonical transform outputs — and therefore every
//! ciphertext byte the layers above produce — and, for the per-stage and
//! per-slice kernels, the lazy representatives too. The one place
//! representatives may differ is *inside* an `avx512ifma` transform: its
//! quotient estimate is 52-bit where the scalar one is 64-bit, so an
//! intermediate may sit a multiple of `q` from the scalar kernel's — always
//! congruent, always inside the documented `[0, 4q)` / `[0, 2q)` range, and
//! gone by the time the last stage writes canonical values. The digit
//! product and the rescale write canonical residues on every arm — a sum
//! of products mod `q` is exact in any order and the rescale's Shoup
//! multiply is finished with one conditional subtraction — so their
//! outputs are bit-identical to the scalar arm's, lane for lane.
//! `tests/simd_equivalence.rs`, the per-backend golden KATs and the
//! per-stage congruence test beside the IFMA kernels pin this.

use crate::modulus::Modulus;
use cham_telemetry::Counter;
use std::sync::atomic::{AtomicU8, Ordering};

/// The vector datapath a table or kernel call dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Backend {
    /// Per-element lazy datapath — the PR 4 scalar kernels, unchanged.
    Scalar = 0,
    /// AVX2 (`std::arch::x86_64`): 4 × u64 lanes, split-multiply Shoup.
    Avx2 = 1,
    // Code 2 is retired (the two-lane blocked "neon" backend): it stays
    // unassigned so an old stats frame can never be misnamed.
    /// AVX-512 IFMA52 (`std::arch::x86_64`): 8 × u64 lanes, 52-bit Shoup
    /// butterflies on `vpmadd52{lo,hi}uq`, every stage of an
    /// [`crate::NttTable`] transform in 512-bit registers.
    Avx512Ifma = 3,
}

/// Global backend choice: `u8::MAX` = not yet resolved, otherwise a
/// [`Backend`] code. Resolved lazily from `CHAM_SIMD` + feature detection;
/// overridable via [`Backend::force`] (last write wins — tables capture the
/// value at construction, so a flip never changes an existing table).
static GLOBAL: AtomicU8 = AtomicU8::new(u8::MAX);

/// Largest modulus width the IFMA kernels take: lazy values reach `4q − 1`
/// and must fit the 52-bit multiplier inputs.
const IFMA_MAX_MODULUS_BITS: u32 = 50;
/// Smallest transform the IFMA kernels take: one two-register block.
const IFMA_MIN_N: usize = 16;

impl Backend {
    /// Number of `u64` lanes one kernel step processes.
    #[inline]
    #[must_use]
    pub const fn lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Avx2 => 4,
            Backend::Avx512Ifma => 8,
        }
    }

    /// Canonical lowercase name (the `CHAM_SIMD` vocabulary).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512Ifma => "avx512ifma",
        }
    }

    /// Stable numeric code for wire formats and run records.
    #[inline]
    #[must_use]
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Backend::code`].
    #[must_use]
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Backend::Scalar),
            1 => Some(Backend::Avx2),
            3 => Some(Backend::Avx512Ifma),
            _ => None,
        }
    }

    /// Parses a `CHAM_SIMD` value. `auto` (and only `auto`) returns the
    /// detected best backend; unknown strings return `None`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "avx512ifma" => Some(Backend::Avx512Ifma),
            "auto" | "" => Some(Self::detect_auto()),
            _ => None,
        }
    }

    /// True when this backend processes more than one lane per step.
    #[inline]
    #[must_use]
    pub const fn is_vector(self) -> bool {
        self.lanes() > 1
    }

    /// True when this backend can execute on the current host. `scalar`
    /// always can; `avx2` needs an x86-64 with the feature bit set, and
    /// `avx512ifma` needs `avx512f` + `avx512ifma` on top of it (the kernels
    /// it has no arm of its own for run the AVX2 ones).
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512Ifma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512ifma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 | Backend::Avx512Ifma => false,
        }
    }

    /// Every backend executable on this host, scalar first — the iteration
    /// order of the per-backend equivalence suites and golden KATs.
    #[must_use]
    pub fn all_available() -> Vec<Self> {
        [Backend::Scalar, Backend::Avx2, Backend::Avx512Ifma]
            .into_iter()
            .filter(|b| b.available())
            .collect()
    }

    /// The best backend the host supports: AVX-512 IFMA, else AVX2, on
    /// x86-64 with the feature bits; scalar everywhere else (aarch64
    /// included, until a record measured there supports a vector tier).
    #[must_use]
    pub fn detect_auto() -> Self {
        [Backend::Avx512Ifma, Backend::Avx2]
            .into_iter()
            .find(|b| b.available())
            .unwrap_or(Backend::Scalar)
    }

    /// The backend an [`crate::NttTable`] of size `n` over `q` actually
    /// runs when asked for `self`. The IFMA kernels keep every lazy value
    /// (`< 4q`) in 52 bits and work on 16-element blocks, so a modulus of
    /// 2^50 or more, or a transform smaller than one block, runs the AVX2
    /// kernels instead — a property of the table's input, not a switch.
    #[must_use]
    pub(crate) fn for_table(self, n: usize, q: &Modulus) -> Self {
        if self == Backend::Avx512Ifma && (q.bits() > IFMA_MAX_MODULUS_BITS || n < IFMA_MIN_N) {
            Backend::Avx2
        } else {
            self
        }
    }

    /// The process-wide backend, resolving `CHAM_SIMD` on first call.
    /// An unknown value or a backend the host cannot run degrades to the
    /// detected default / scalar rather than failing — a fleet config
    /// naming `avx2` must not crash the one aarch64 node.
    #[must_use]
    pub fn active() -> Self {
        match Self::from_code(GLOBAL.load(Ordering::Relaxed)) {
            Some(b) => b,
            None => {
                let requested = std::env::var("CHAM_SIMD").unwrap_or_default();
                let resolved = Self::from_name(&requested)
                    .unwrap_or_else(Self::detect_auto)
                    .or_available();
                Self::force(resolved);
                resolved
            }
        }
    }

    /// The backend whose arm the per-stage and normalization kernels run
    /// under `self`: `Avx512Ifma` has no per-stage arm (its transforms are
    /// whole-table kernels), so those kernels run it on the AVX2 arm.
    #[inline]
    const fn stage_arm(self) -> Self {
        match self {
            Backend::Avx512Ifma => Backend::Avx2,
            b => b,
        }
    }

    /// True when the forward per-stage kernel runs a stage of `stride`
    /// butterflies per twiddle group in vector lanes rather than on the
    /// scalar kernel (no backend has an inverse per-stage arm).
    #[inline]
    pub(crate) const fn vectorises_stage(self, stride: usize) -> bool {
        let arm = self.stage_arm();
        arm.is_vector() && stride >= arm.lanes()
    }

    /// This backend if the host can run it, else the scalar fallback.
    #[must_use]
    fn or_available(self) -> Self {
        if self.available() {
            self
        } else {
            Backend::Scalar
        }
    }

    /// Pins the process-wide backend (benches, tests, embedders). Tables
    /// built *before* the call keep their captured backend.
    pub fn force(backend: Self) {
        GLOBAL.store(backend.code(), Ordering::Relaxed);
        record_dispatch(backend);
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ------------------------------------------------------------- telemetry

/// The instrumented kernel families (indices into the stats arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kernel {
    /// Forward Harvey butterflies (count unit: butterflies).
    FwdButterfly = 0,
    /// Inverse Gentleman–Sande butterflies (count unit: butterflies).
    InvButterfly = 1,
    /// Element-wise Shoup-lazy multiplies (count unit: elements).
    MulShoupLazy = 2,
    /// Fused multiply-accumulate lanes (count unit: elements).
    Mac = 3,
    /// `[0, 4q) → [0, q)` normalization passes (count unit: elements).
    Normalize = 4,
}

const KERNELS: usize = 5;

impl Kernel {
    /// Kernel family name as used in counter keys and run records.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Kernel::FwdButterfly => "fwd_butterfly",
            Kernel::InvButterfly => "inv_butterfly",
            Kernel::MulShoupLazy => "mul_shoup_lazy",
            Kernel::Mac => "mac",
            Kernel::Normalize => "normalize",
        }
    }

    /// All kernel families, in stats-array order.
    pub const ALL: [Kernel; KERNELS] = [
        Kernel::FwdButterfly,
        Kernel::InvButterfly,
        Kernel::MulShoupLazy,
        Kernel::Mac,
        Kernel::Normalize,
    ];
}

/// Elements processed by full vector lanes vs the scalar tail, per kernel
/// family, indexed like [`Kernel::ALL`]. These named counters are the one
/// booking: [`simd_stats`] and run records both read them.
static VECTOR: [Counter; KERNELS] = [
    Counter::new("cham_math.simd.fwd_butterfly.vector"),
    Counter::new("cham_math.simd.inv_butterfly.vector"),
    Counter::new("cham_math.simd.mul_shoup_lazy.vector"),
    Counter::new("cham_math.simd.mac.vector"),
    Counter::new("cham_math.simd.normalize.vector"),
];
static TAIL: [Counter; KERNELS] = [
    Counter::new("cham_math.simd.fwd_butterfly.tail"),
    Counter::new("cham_math.simd.inv_butterfly.tail"),
    Counter::new("cham_math.simd.mul_shoup_lazy.tail"),
    Counter::new("cham_math.simd.mac.tail"),
    Counter::new("cham_math.simd.normalize.tail"),
];

/// Records one kernel invocation's lane accounting. Callers batch: one call
/// per transform or per slice pass, never per butterfly.
#[inline]
pub(crate) fn record_kernel(kernel: Kernel, vector_elems: u64, tail_elems: u64) {
    VECTOR[kernel as usize].add(vector_elems);
    TAIL[kernel as usize].add(tail_elems);
}

/// Records a backend selection into the `cham_math.simd.dispatch.*` family.
fn record_dispatch(backend: Backend) {
    match backend {
        Backend::Scalar => cham_telemetry::counter_add!("cham_math.simd.dispatch.scalar", 1),
        Backend::Avx2 => cham_telemetry::counter_add!("cham_math.simd.dispatch.avx2", 1),
        Backend::Avx512Ifma => {
            cham_telemetry::counter_add!("cham_math.simd.dispatch.avx512ifma", 1);
        }
    }
}

/// One kernel family's lane accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Elements (or butterflies) processed by full vector lanes.
    pub vector_elems: u64,
    /// Elements processed by the scalar tail / sub-lane-width fallback.
    pub tail_elems: u64,
}

/// Point-in-time dispatch statistics: the active backend plus per-kernel
/// vector-vs-tail element counts since process start. Surfaced in run
/// records and the `cham-serve` Introspect snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdStats {
    /// The process-wide backend at snapshot time.
    pub backend: Backend,
    /// Per-kernel counts, indexed like [`Kernel::ALL`].
    pub kernels: [KernelStats; KERNELS],
}

impl SimdStats {
    /// Total `(vector, tail)` elements across every kernel family.
    #[must_use]
    pub fn totals(&self) -> (u64, u64) {
        self.kernels
            .iter()
            .fold((0, 0), |(v, t), k| (v + k.vector_elems, t + k.tail_elems))
    }
}

/// Snapshot of the dispatch counters.
#[must_use]
pub fn simd_stats() -> SimdStats {
    let mut kernels = [KernelStats::default(); KERNELS];
    for (i, k) in kernels.iter_mut().enumerate() {
        k.vector_elems = VECTOR[i].get();
        k.tail_elems = TAIL[i].get();
    }
    SimdStats {
        backend: Backend::active(),
        kernels,
    }
}

// ------------------------------------------------------- kernel dispatch
//
// `Avx512Ifma` has arms of its own for the whole `NttTable` transforms
// (`ifma_forward`/`ifma_inverse`), the digit product and the rescale; every
// other per-stage and per-slice kernel below runs it on the best arm that
// exists — `stage_arm()` (AVX2) for the forward stage and normalization
// kernels, scalar for the inverse stage, the row MAC and the element-wise
// multiply.

/// One forward CT stage over `a` in Harvey lazy form: `m` twiddle groups of
/// `t` butterflies, constants from `roots[m..2m]`. Inputs/outputs `[0, 4q)`.
#[inline]
pub(crate) fn fwd_ntt_stage(
    backend: Backend,
    a: &mut [u64],
    m: usize,
    t: usize,
    roots: &[u64],
    shoups: &[u64],
    q: &Modulus,
) {
    match backend.stage_arm() {
        #[cfg(target_arch = "x86_64")]
        // Safety: the `Avx2` arm comes from an `Avx2` or `Avx512Ifma` value,
        // which only exists where detection of `avx2` succeeded
        // (`or_available` in dispatch, `available()` in `with_backend`).
        Backend::Avx2 => unsafe { avx2::fwd_ntt_stage(a, m, t, roots, shoups, q) },
        _ => scalar::fwd_ntt_stage(a, m, t, roots, shoups, q),
    }
}

/// One inverse GS stage over `a` in lazy form: `h` twiddle groups of `t`
/// butterflies, constants from `roots[h..2h]`. Values stay in `[0, 2q)`.
/// Every backend runs the scalar kernel here: `avx512ifma` runs whole
/// inverse transforms instead, and the AVX2 arm lost to scalar end to end
/// (DESIGN.md §16) and was deleted.
#[inline]
pub(crate) fn inv_ntt_stage(
    a: &mut [u64],
    h: usize,
    t: usize,
    roots: &[u64],
    shoups: &[u64],
    q: &Modulus,
) {
    scalar::inv_ntt_stage(a, h, t, roots, shoups, q);
}

/// Panics unless the IFMA kernels can run a transform of `n` points over
/// `q` on this host — the detection their call sites cite. A table only
/// resolves to `Avx512Ifma` where all of this holds, so the check (three
/// cached feature-bit loads) never fires from one.
fn assert_ifma_runs(n: usize, q: &Modulus) {
    assert!(
        Backend::Avx512Ifma.for_table(n, q) == Backend::Avx512Ifma
            && Backend::Avx512Ifma.available(),
        "avx512ifma transform outside what the tier takes on this host"
    );
}

/// A whole lazy forward transform in 512-bit registers: every stage, and
/// the `[0, 4q) → [0, q)` normalization fused into the last one. `roots` /
/// `shoups` are the table's Harvey-layout constants with their **64-bit**
/// Shoup companions; the 52-bit companions are derived in-register.
///
/// # Panics
/// Panics if the table should not have resolved to `Avx512Ifma`.
pub(crate) fn ifma_forward(a: &mut [u64], roots: &[u64], shoups: &[u64], q: &Modulus) {
    assert_ifma_runs(a.len(), q);
    #[cfg(target_arch = "x86_64")]
    // Safety: `assert_ifma_runs` just detected `avx512f` + `avx512ifma`.
    unsafe {
        ifma::forward(a, roots, shoups, q);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (roots, shoups);
}

/// The inverse twin of [`ifma_forward`]: every GS stage in 512-bit
/// registers, the last one multiplying by the `n⁻¹`-scaled constants
/// `last = [(n⁻¹, shoup), (ψ-twiddle · n⁻¹, shoup)]` and writing canonical
/// output.
///
/// # Panics
/// Panics if the table should not have resolved to `Avx512Ifma`.
pub(crate) fn ifma_inverse(
    a: &mut [u64],
    roots: &[u64],
    shoups: &[u64],
    last: [(u64, u64); 2],
    q: &Modulus,
) {
    assert_ifma_runs(a.len(), q);
    #[cfg(target_arch = "x86_64")]
    // Safety: `assert_ifma_runs` just detected `avx512f` + `avx512ifma`.
    unsafe {
        ifma::inverse(a, roots, shoups, last, q);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (roots, shoups, last);
}

/// Element-wise lazy Shoup multiply against a prepared constant table:
/// `a[i] = mul_shoup_lazy(a[i], w[i], ws[i])`. Any `u64` input, output in
/// `[0, 2q)` — the ψ-twist or a prepared pointwise multiply. Every backend
/// runs the scalar kernel (see the module docs), so all elements are
/// booked as tail.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn mul_shoup_lazy_slice(_backend: Backend, a: &mut [u64], w: &[u64], ws: &[u64], q: &Modulus) {
    assert_eq!(a.len(), w.len(), "operand length mismatch");
    assert_eq!(a.len(), ws.len(), "operand length mismatch");
    scalar::mul_shoup_lazy_slice(a, w, ws, q);
    record_kernel(Kernel::MulShoupLazy, 0, a.len() as u64);
}

/// Fused multiply-accumulate: `acc[i] += a[i] · b[i]` with the reduction
/// deferred — the lanes behind [`crate::poly::mul_pointwise_accumulate`].
/// Callers own the [`crate::poly::LAZY_ACC_BOUND`] headroom obligation.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn mac_accumulate(_backend: Backend, acc: &mut [u128], a: &[u64], b: &[u64]) {
    mac(acc, a, b, false);
}

/// Overwriting MAC: `acc[i] = a[i] · b[i]` — lets the first term of an
/// accumulation reuse a dirty scratch buffer without a zeroing pass.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn mac_write(_backend: Backend, acc: &mut [u128], a: &[u64], b: &[u64]) {
    mac(acc, a, b, true);
}

/// Every backend runs the scalar `u128` MAC (see the module docs), so all
/// elements are booked as tail.
fn mac(acc: &mut [u128], a: &[u64], b: &[u64], overwrite: bool) {
    assert_eq!(acc.len(), a.len(), "operand length mismatch");
    assert_eq!(acc.len(), b.len(), "operand length mismatch");
    scalar::mac(acc, a, b, overwrite);
    record_kernel(Kernel::Mac, 0, acc.len() as u64);
}

/// True when an element-wise IFMA arm asked for by an `Avx512Ifma` backend
/// may run over `moduli`: the values it multiplies stay below 2^52 only
/// when every modulus is below 2^50, and it needs the host's `avx512ifma`.
/// The backend is normally a table's ([`crate::NttTable::backend`]), which
/// is `Avx512Ifma` only where this already held at construction.
#[cfg(target_arch = "x86_64")]
fn ifma_elementwise(moduli: &[&Modulus]) -> bool {
    moduli.iter().all(|q| q.bits() <= IFMA_MAX_MODULUS_BITS) && Backend::Avx512Ifma.available()
}

/// The most digits one [`digit_product`] call sums, on every arm.
///
/// Digits and key limbs are canonical, so each product is at most
/// `(q − 1)²`. **Scalar arm** (`q < 2^62`): sixteen products stay below
/// `16·(2^62 − 1)² < 2^128`, the `u128` sum. **IFMA arm** (`q < 2^50`): the
/// low and high 52-bit halves of each product are summed in separate
/// `u64` lanes — sixteen low halves stay below `16·2^52 = 2^56` — and the
/// exact sum `V ≤ 16·(q − 1)² < 2^104`, so its high part
/// `⌊V / 2^52⌋ < 2^52` is still a valid input of the 52-bit Shoup multiply
/// that folds it. A 17th digit could break both bounds, so a longer digit
/// list is refused rather than summed with a wrap.
pub const DIGIT_PRODUCT_MAX_DIGITS: usize = 16;

/// The key-switch digit product for one limb over `q`: for every
/// coefficient `j`,
///
/// `x₀[j] ← Σ_d x_d[j]·kb[d][j]` and `x₁[j] ← Σ_d x_d[j]·ka[d][j]` mod `q`,
///
/// canonical, written over the first two digit slots. Digit `d` of the limb
/// is `x[d·stride..][..n]` (canonical NTT-domain residues, `n = kb[0].len()`,
/// `stride ≥ n`); with one digit, slot 1 is an output only. Each sum is
/// exact before its one reduction, so every arm writes the same residues.
/// Books `2 · digits · n` products under [`Kernel::Mac`].
///
/// # Panics
/// Panics unless `kb` and `ka` hold the same number of digits, between one
/// and [`DIGIT_PRODUCT_MAX_DIGITS`], every key slice has length `n`, and
/// `x` holds both output slots and every digit.
pub fn digit_product(
    backend: Backend,
    x: &mut [u64],
    stride: usize,
    kb: &[&[u64]],
    ka: &[&[u64]],
    q: &Modulus,
) {
    let digits = kb.len();
    assert!(
        digits == ka.len() && (1..=DIGIT_PRODUCT_MAX_DIGITS).contains(&digits),
        "digit product over {digits} digits: outside 1..={DIGIT_PRODUCT_MAX_DIGITS}"
    );
    let n = kb[0].len();
    assert!(
        kb.iter().chain(ka).all(|k| k.len() == n)
            && stride >= n
            && x.len() >= (digits.max(2) - 1) * stride + n,
        "operand length mismatch"
    );
    let done = match backend {
        #[cfg(target_arch = "x86_64")]
        // Safety: `ifma_elementwise` just detected `avx512f` + `avx512ifma`.
        Backend::Avx512Ifma if ifma_elementwise(&[q]) => unsafe {
            ifma::digit_product(x, stride, kb, ka, q)
        },
        _ => 0,
    };
    scalar::digit_product(x, stride, kb, ka, done, q);
    let products = 2 * digits as u64;
    record_kernel(
        Kernel::Mac,
        products * done as u64,
        products * (n - done) as u64,
    );
}

/// One surviving limb's constants for the rescale by the last prime `p` of
/// a chain: `p^{−1} mod q` with its Shoup companion, and the smallest
/// multiple of `q` that is `≥ p` — added before the dropped residue is
/// subtracted so the difference never goes negative.
#[derive(Debug, Clone, Copy)]
pub struct RescaleLimb {
    q: Modulus,
    p: Modulus,
    inv: u64,
    inv_shoup: u64,
    offset: u64,
}

impl RescaleLimb {
    /// The constants for dropping `p` from a chain in which `q` survives.
    ///
    /// # Errors
    /// [`crate::MathError::NotInvertible`] when `p` is a multiple of `q`.
    pub fn new(q: Modulus, p: Modulus) -> crate::Result<Self> {
        let inv = q.inv(p.value() % q.value())?;
        Ok(Self {
            q,
            p,
            inv,
            inv_shoup: q.shoup(inv),
            offset: p.value().div_ceil(q.value()) * q.value(),
        })
    }
}

/// The rescale kernel: `out[j] = (x[j] − [last[j]]) · p^{−1} mod q`, where
/// `[·]` is the centred lift of the dropped residue (`r > p/2 ? r − p : r`)
/// — see [`crate::rns::RnsContext::rescale_limb_into`]. `x` holds canonical
/// residues mod `q`, `last` the matching ones mod `p`; any common length.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn rescale_into(backend: Backend, r: &RescaleLimb, x: &[u64], last: &[u64], out: &mut [u64]) {
    rescale::<false>(backend, r, x, last, out);
}

/// [`rescale_into`] that adds the rescaled values to the canonical residues
/// `out` already holds, mod `q`.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn rescale_add(backend: Backend, r: &RescaleLimb, x: &[u64], last: &[u64], out: &mut [u64]) {
    rescale::<true>(backend, r, x, last, out);
}

fn rescale<const ADD: bool>(
    backend: Backend,
    r: &RescaleLimb,
    x: &[u64],
    last: &[u64],
    out: &mut [u64],
) {
    assert!(
        x.len() == last.len() && x.len() == out.len(),
        "operand length mismatch"
    );
    let done = match backend {
        #[cfg(target_arch = "x86_64")]
        // Safety: `ifma_elementwise` just detected `avx512f` + `avx512ifma`.
        Backend::Avx512Ifma if ifma_elementwise(&[&r.q, &r.p]) => unsafe {
            ifma::rescale::<ADD>(x, last, out, r)
        },
        _ => 0,
    };
    scalar::rescale::<ADD>(&x[done..], &last[done..], &mut out[done..], r);
}

/// Normalization pass: maps every `a[i] ∈ [0, 4q)` to canonical `[0, q)`
/// with two masked subtractions — the single pass that finishes a lazy
/// forward transform.
pub fn reduce_from_lazy_slice(backend: Backend, a: &mut [u64], q: &Modulus) {
    let arm = backend.stage_arm();
    let (vec, tail) = split_elems(arm.lanes(), a.len());
    match arm {
        #[cfg(target_arch = "x86_64")]
        // Safety: see `fwd_ntt_stage`.
        Backend::Avx2 => unsafe { avx2::reduce_from_lazy_slice(a, q) },
        _ => scalar::reduce_from_lazy_slice(a, q),
    }
    record_kernel(Kernel::Normalize, vec, tail);
}

/// Splits a slice length into `(vector, tail)` element counts for an arm
/// `lanes` wide.
#[inline]
fn split_elems(lanes: usize, len: usize) -> (u64, u64) {
    if lanes > 1 {
        let tail = len % lanes;
        ((len - tail) as u64, tail as u64)
    } else {
        (0, len as u64)
    }
}

// ----------------------------------------------------------- scalar twin

/// The PR 4 scalar lazy datapath — the always-available fallback and the
/// oracle the vector paths are tested against. The stage loops walk
/// `chunks_exact_mut`/`split_at_mut` pairs, so the butterflies carry no
/// bounds checks.
mod scalar {
    use super::{Modulus, RescaleLimb};

    pub(super) fn fwd_ntt_stage(
        a: &mut [u64],
        m: usize,
        t: usize,
        roots: &[u64],
        shoups: &[u64],
        q: &Modulus,
    ) {
        let two_q = q.two_q();
        let groups = a.chunks_exact_mut(2 * t);
        for ((group, &w), &ws) in groups.zip(&roots[m..2 * m]).zip(&shoups[m..2 * m]) {
            let (lo, hi) = group.split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi) {
                // Harvey butterfly: operands live in [0, 4q); one
                // conditional −2q on u is the only correction.
                let mut u = *x;
                if u >= two_q {
                    u -= two_q;
                }
                let v = q.mul_shoup_lazy(*y, w, ws);
                *x = u + v;
                *y = u + two_q - v;
            }
        }
    }

    pub(super) fn inv_ntt_stage(
        a: &mut [u64],
        h: usize,
        t: usize,
        roots: &[u64],
        shoups: &[u64],
        q: &Modulus,
    ) {
        let two_q = q.two_q();
        let groups = a.chunks_exact_mut(2 * t);
        for ((group, &w), &ws) in groups.zip(&roots[h..2 * h]).zip(&shoups[h..2 * h]) {
            let (lo, hi) = group.split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi) {
                let (u, v) = (*x, *y);
                // Lazy GS: one conditional −2q on the sum; the difference
                // leg absorbs its 2q offset in the Shoup multiply's
                // implicit reduction to [0, 2q).
                let mut s = u + v;
                if s >= two_q {
                    s -= two_q;
                }
                *x = s;
                *y = q.mul_shoup_lazy(u + two_q - v, w, ws);
            }
        }
    }

    pub(super) fn mul_shoup_lazy_slice(a: &mut [u64], w: &[u64], ws: &[u64], q: &Modulus) {
        for (x, (&wi, &wsi)) in a.iter_mut().zip(w.iter().zip(ws)) {
            *x = q.mul_shoup_lazy(*x, wi, wsi);
        }
    }

    pub(super) fn mac(acc: &mut [u128], a: &[u64], b: &[u64], overwrite: bool) {
        if overwrite {
            for ((acc, &x), &y) in acc.iter_mut().zip(a).zip(b) {
                *acc = x as u128 * y as u128;
            }
        } else {
            for ((acc, &x), &y) in acc.iter_mut().zip(a).zip(b) {
                *acc += x as u128 * y as u128;
            }
        }
    }

    pub(super) fn reduce_from_lazy_slice(a: &mut [u64], q: &Modulus) {
        for x in a.iter_mut() {
            *x = q.reduce_from_lazy(*x);
        }
    }

    /// The digit product from coefficient `from` on: exact `u128` sums
    /// (see [`super::DIGIT_PRODUCT_MAX_DIGITS`]), one Barrett reduction per
    /// output.
    pub(super) fn digit_product(
        x: &mut [u64],
        stride: usize,
        kb: &[&[u64]],
        ka: &[&[u64]],
        from: usize,
        q: &Modulus,
    ) {
        for j in from..kb[0].len() {
            let (mut b, mut a) = (0u128, 0u128);
            for (d, (kb, ka)) in kb.iter().zip(ka).enumerate() {
                let v = u128::from(x[d * stride + j]);
                b += v * u128::from(kb[j]);
                a += v * u128::from(ka[j]);
            }
            x[j] = q.reduce_u128(b);
            x[stride + j] = q.reduce_u128(a);
        }
    }

    /// The rescale, one coefficient at a time. The centred lift never
    /// materialises: `x + offset (+ p) − r` is a non-negative
    /// representative of the difference, and a Shoup multiply by `p^{−1}`
    /// accepts any `u64` operand; `q, p < 2^62`, so
    /// `x + offset + p < q + (p + q) + p < 2^64`. The add form's
    /// conditional subtraction is `min(s, s − q)`: a data-dependent branch
    /// here mispredicts on half the coefficients (measured 1.9× slower
    /// than rescaling and adding in two loops).
    pub(super) fn rescale<const ADD: bool>(
        x: &[u64],
        last: &[u64],
        out: &mut [u64],
        r: &RescaleLimb,
    ) {
        let (q, p) = (&r.q, r.p.value());
        let half = p / 2;
        let (keep, wrap) = (r.offset, r.offset + p);
        for ((o, &xi), &ri) in out.iter_mut().zip(x).zip(last) {
            let lifted = xi + if ri > half { wrap } else { keep } - ri;
            let v = q.mul_shoup(lifted, r.inv, r.inv_shoup);
            *o = if ADD {
                let sum = *o + v;
                sum.min(sum.wrapping_sub(q.value()))
            } else {
                v
            };
        }
    }
}

// ------------------------------------------------------------------ AVX2

/// AVX2 datapath: 4 × u64 lanes. Every function is `target_feature(avx2)`
/// and must only be reached through a [`Backend::Avx2`] or
/// [`Backend::Avx512Ifma`] value, either of which existence-proves
/// detection of `avx2`.
///
/// AVX2 has no 64×64→128 multiply, so the Shoup high half is assembled
/// exactly from `_mm256_mul_epu32` 32-bit partial products with full carry
/// folding (`mul_hi_exact`); low halves wrap mod 2^64 like the scalar
/// `wrapping_mul`. Unsigned 64-bit compares flip the sign bit and use the
/// signed `_mm256_cmpgt_epi64`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Modulus;
    use std::arch::x86_64::*;

    const LANES: usize = 4;

    /// Low 64 bits of the lane-wise 64×64 product (matches `wrapping_mul`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_lo(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let lolo = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32))
    }

    /// Exact high 64 bits of the lane-wise 64×64 product. The two partial
    /// carry sums each stay below 2^64: `(2^32−1)^2 + (2^32−1) < 2^64`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_hi_exact(a: __m256i, b: __m256i) -> __m256i {
        let mask = _mm256_set1_epi64x(0xffff_ffff);
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let lolo = _mm256_mul_epu32(a, b);
        let hilo = _mm256_mul_epu32(a_hi, b);
        let lohi = _mm256_mul_epu32(a, b_hi);
        let hihi = _mm256_mul_epu32(a_hi, b_hi);
        let cross = _mm256_add_epi64(hilo, _mm256_srli_epi64(lolo, 32));
        let cross2 = _mm256_add_epi64(lohi, _mm256_and_si256(cross, mask));
        _mm256_add_epi64(
            hihi,
            _mm256_add_epi64(_mm256_srli_epi64(cross, 32), _mm256_srli_epi64(cross2, 32)),
        )
    }

    /// Lane-wise unsigned `x >= m` mask (all-ones where true).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ge_mask(x: __m256i, m: __m256i, sign: __m256i) -> __m256i {
        // x >= m  ⟺  !(m > x); compute (m > x) signed on sign-flipped lanes.
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(m, sign), _mm256_xor_si256(x, sign));
        // Invert by andnot at the use site; returning gt keeps one op.
        gt
    }

    /// `x - (x >= m ? m : 0)` per lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn csub(x: __m256i, m: __m256i, sign: __m256i) -> __m256i {
        let lt = ge_mask(x, m, sign); // all-ones where x < m
        _mm256_sub_epi64(x, _mm256_andnot_si256(lt, m))
    }

    /// Lane-wise [`Modulus::mul_shoup_lazy`]: `a·w − ⌊a·ws/2^64⌋·q`,
    /// wrapping — result in `[0, 2q)` for `w < q`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_shoup_lazy_v(a: __m256i, w: __m256i, ws: __m256i, qv: __m256i) -> __m256i {
        let hi = mul_hi_exact(a, ws);
        _mm256_sub_epi64(mul_lo(a, w), mul_lo(hi, qv))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fwd_ntt_stage(
        a: &mut [u64],
        m: usize,
        t: usize,
        roots: &[u64],
        shoups: &[u64],
        q: &Modulus,
    ) {
        if t < LANES {
            return super::scalar::fwd_ntt_stage(a, m, t, roots, shoups, q);
        }
        let qv = _mm256_set1_epi64x(q.value() as i64);
        let two_qv = _mm256_set1_epi64x(q.two_q() as i64);
        let sign = _mm256_set1_epi64x(i64::MIN);
        let base = a.as_mut_ptr();
        for i in 0..m {
            let wv = _mm256_set1_epi64x(roots[m + i] as i64);
            let wsv = _mm256_set1_epi64x(shoups[m + i] as i64);
            let lo = base.add(2 * i * t);
            let hi = lo.add(t);
            for j in (0..t).step_by(LANES) {
                let u = csub(
                    _mm256_loadu_si256(lo.add(j).cast::<__m256i>()),
                    two_qv,
                    sign,
                );
                let v =
                    mul_shoup_lazy_v(_mm256_loadu_si256(hi.add(j).cast::<__m256i>()), wv, wsv, qv);
                _mm256_storeu_si256(lo.add(j).cast::<__m256i>(), _mm256_add_epi64(u, v));
                _mm256_storeu_si256(
                    hi.add(j).cast::<__m256i>(),
                    _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v),
                );
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn reduce_from_lazy_slice(a: &mut [u64], q: &Modulus) {
        let qv = _mm256_set1_epi64x(q.value() as i64);
        let two_qv = _mm256_set1_epi64x(q.two_q() as i64);
        let sign = _mm256_set1_epi64x(i64::MIN);
        let n = a.len();
        let vec = n - n % LANES;
        let p = a.as_mut_ptr();
        for j in (0..vec).step_by(LANES) {
            let x = _mm256_loadu_si256(p.add(j).cast::<__m256i>());
            let r = csub(csub(x, two_qv, sign), qv, sign);
            _mm256_storeu_si256(p.add(j).cast::<__m256i>(), r);
        }
        for j in vec..n {
            a[j] = q.reduce_from_lazy(a[j]);
        }
    }
}

// -------------------------------------------------------- AVX-512 IFMA52

/// AVX-512 IFMA52 datapath: 8 × u64 lanes — whole transforms, the digit
/// product and the rescale. The transforms are reached through
/// [`ifma_forward`]/[`ifma_inverse`], i.e. only from a table that resolved
/// to [`Backend::Avx512Ifma`] (`n ≥ 16`, `q < 2^50`); the element-wise
/// kernels through [`digit_product`] / [`rescale_into`] / [`rescale_add`]
/// under the same modulus bound, with the scalar arm finishing the tail.
///
/// `vpmadd52{lo,hi}uq` multiply the low 52 bits of two lanes and add the
/// low / high 52 bits of the 104-bit product to a third. With every lazy
/// value below `4q < 2^52`, the Shoup multiply becomes
/// `x·w − ⌊x·w'/2^52⌋·q mod 2^52` with `w' = ⌊w·2^52/q⌋`, which is the
/// table's 64-bit companion shifted right by 12
/// (`⌊⌊w·2^64/q⌋/2^12⌋ = ⌊w·2^52/q⌋`) — no second table. The result lies in
/// `[0, 2q)` by the same argument as the 64-bit form, but the 52-bit
/// quotient estimate can differ from the 64-bit one by one, so a lazy
/// intermediate may sit one `q` away from the scalar kernel's; canonical
/// outputs are equal. Conditional subtraction is `min(x, x − m)` unsigned:
/// `x − m` wraps above `x` exactly when `x < m`.
///
/// Strides of 16 and more broadcast one twiddle per group. Strides 8, 4, 2
/// and 1 never leave a 16-element block, so each block is loaded into two
/// registers once, taken through all four stages with lane permutes in
/// between, and stored once — the forward pass normalizing to `[0, q)` on
/// the way out.
///
/// Everything here is safe code over bounds-checked slices except the
/// `load`/`store`/`tile` wrappers; the entry points are `target_feature`
/// functions, so calling them is what needs the detection proof.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{Modulus, RescaleLimb};
    use std::arch::x86_64::*;

    const LANES: usize = 8;
    type Lanes = [u64; LANES];

    /// Per-transform broadcast constants.
    struct Consts {
        q: __m512i,
        /// `−q`: its low 52 bits are `2^52 − q`.
        neg_q: __m512i,
        two_q: __m512i,
        mask52: __m512i,
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(x: &Lanes) -> __m512i {
        // Safety: `x` is 64 readable bytes; `loadu` takes any alignment.
        unsafe { _mm512_loadu_si512(x.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(x: &mut Lanes, v: __m512i) {
        // Safety: `x` is 64 writable bytes; `storeu` takes any alignment.
        unsafe { _mm512_storeu_si512(x.as_mut_ptr().cast(), v) }
    }

    /// A twiddle and its 52-bit Shoup companion, lane for lane.
    type Twiddle = (__m512i, __m512i);

    /// One twiddle and its 52-bit companion in every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(w: u64, shoup64: u64) -> Twiddle {
        (
            _mm512_set1_epi64(w as i64),
            _mm512_set1_epi64((shoup64 >> 12) as i64),
        )
    }

    /// `x − (x ≥ m ? m : 0)` per lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn csub(x: __m512i, m: __m512i) -> __m512i {
        _mm512_min_epu64(x, _mm512_sub_epi64(x, m))
    }

    /// Lane-wise lazy Shoup multiply of `x < 2^52` by a twiddle `< q`;
    /// result in `[0, 2q)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_lazy(x: __m512i, (w, ws): Twiddle, c: &Consts) -> __m512i {
        let zero = _mm512_setzero_si512();
        let quot = _mm512_madd52hi_epu64(zero, x, ws);
        let prod = _mm512_madd52lo_epu64(zero, x, w);
        // Adding lo52(quot · (2^52 − q)) subtracts quot·q mod 2^52; the sum
        // can carry into bit 52, which the mask drops.
        _mm512_and_si512(_mm512_madd52lo_epu64(prod, quot, c.neg_q), c.mask52)
    }

    /// One butterfly on `(x, y)`: Gentleman–Sande (lazy `[0, 2q)` in and
    /// out) when `INVERSE`, else Harvey (lazy `[0, 4q)` in and out).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn butterfly<const INVERSE: bool>(x: &mut __m512i, y: &mut __m512i, tw: Twiddle, c: &Consts) {
        if INVERSE {
            let (u, v) = (*x, *y);
            *x = csub(_mm512_add_epi64(u, v), c.two_q);
            *y = mul_lazy(_mm512_sub_epi64(_mm512_add_epi64(u, c.two_q), v), tw, c);
        } else {
            let u = csub(*x, c.two_q);
            let v = mul_lazy(*y, tw, c);
            *x = _mm512_add_epi64(u, v);
            *y = _mm512_sub_epi64(_mm512_add_epi64(u, c.two_q), v);
        }
    }

    /// One stage of `groups` twiddle groups whose stride is a whole number
    /// of registers, over `v` = the polynomial as 8-lane rows.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn wide_stage<const INVERSE: bool>(
        v: &mut [Lanes],
        groups: usize,
        roots: &[u64],
        shoups: &[u64],
        c: &Consts,
    ) {
        let rows = v.len() / (2 * groups);
        let twiddles = roots[groups..2 * groups]
            .iter()
            .zip(&shoups[groups..2 * groups]);
        for (group, (&w, &ws)) in v.chunks_exact_mut(2 * rows).zip(twiddles) {
            let tw = splat(w, ws);
            let (lo, hi) = group.split_at_mut(rows);
            for (l, h) in lo.iter_mut().zip(hi) {
                let (mut x, mut y) = (load(l), load(h));
                butterfly::<INVERSE>(&mut x, &mut y, tw, c);
                store(l, x);
                store(h, y);
            }
        }
    }

    /// `w` (1, 2, 4 or 8 words) repeated until it fills the lanes:
    /// `[w0 … w_{k−1}, w0 …]` — a broadcasting load, no shuffle.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tile(w: &[u64]) -> __m512i {
        let p = w.as_ptr();
        // Safety (all three): the matched length is the number of words
        // the load reads; `loadu` takes any alignment.
        match w.len() {
            1 => _mm512_set1_epi64(w[0] as i64),
            2 => _mm512_broadcast_i32x4(unsafe { _mm_loadu_si128(p.cast()) }),
            4 => _mm512_broadcast_i64x4(unsafe { _mm256_loadu_si256(p.cast()) }),
            LANES => unsafe { _mm512_loadu_si512(p.cast()) },
            _ => unreachable!("stage strides divide the lane count"),
        }
    }

    // A 16-element block lives in a (low, high) register pair. In the
    // layout for stride `t` (8, 4, 2 or 1) the block's `8 / t` twiddle
    // groups are interleaved across the lanes: lane `p` of `low` holds the
    // low butterfly leg number `p / groups` of group `p % groups`, and
    // `high` holds its partner `t` elements later. That order makes every
    // stage's twiddle vector a `tile` of consecutive table words, and makes
    // stride 8 the block's memory order (`low` = elements 0–7).

    /// The block element in lane `lane` of `low` in the stride-`t` layout.
    const fn element(t: usize, lane: usize) -> usize {
        let groups = LANES / t;
        (lane % groups) * 2 * t + lane / groups
    }

    /// Where block element `e` sits in the stride-`t` layout, as a
    /// two-source permute index: lanes of `low`, then 8 + lanes of `high`.
    const fn locate(t: usize, e: usize) -> u64 {
        let groups = LANES / t;
        let (group, leg) = (e / (2 * t), e % (2 * t));
        let lane = (leg % t) * groups + group;
        (if leg < t { lane } else { LANES + lane }) as u64
    }

    /// Permute indices taking a pair from the stride-`from` layout to the
    /// stride-`to` one: `[low, high]`.
    const fn relayout(from: usize, to: usize) -> [Lanes; 2] {
        let mut idx = [[0; LANES]; 2];
        let mut lane = 0;
        while lane < LANES {
            let e = element(to, lane);
            idx[0][lane] = locate(from, e);
            idx[1][lane] = locate(from, e + to);
            lane += 1;
        }
        idx
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn relay<const FROM: usize, const TO: usize>(low: &mut __m512i, high: &mut __m512i) {
        let idx = const { relayout(FROM, TO) };
        (*low, *high) = (
            _mm512_permutex2var_epi64(*low, load(&idx[0]), *high),
            _mm512_permutex2var_epi64(*low, load(&idx[1]), *high),
        );
    }

    /// The stride-`T` stage of block `i − blocks` on a pair in that
    /// stride's layout; `i` is the block's stride-8 twiddle index, so its
    /// `8 / T` twiddles for this stage start at `roots[8 / T · i]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn block_stage<const T: usize, const INVERSE: bool>(
        low: &mut __m512i,
        high: &mut __m512i,
        roots: &[u64],
        shoups: &[u64],
        i: usize,
        c: &Consts,
    ) {
        let groups = LANES / T;
        let span = groups * i..groups * (i + 1);
        let tw = (
            tile(&roots[span.clone()]),
            _mm512_srli_epi64::<12>(tile(&shoups[span])),
        );
        butterfly::<INVERSE>(low, high, tw, c);
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn consts(q: &Modulus) -> Consts {
        Consts {
            q: _mm512_set1_epi64(q.value() as i64),
            neg_q: _mm512_set1_epi64((q.value() as i64).wrapping_neg()),
            two_q: _mm512_set1_epi64(q.two_q() as i64),
            mask52: _mm512_set1_epi64((1i64 << 52) - 1),
        }
    }

    /// The polynomial as 8-lane rows (`n` is a power of two ≥ 16).
    #[inline]
    fn rows(a: &mut [u64]) -> &mut [Lanes] {
        let (rows, rest) = a.as_chunks_mut::<LANES>();
        debug_assert!(rest.is_empty() && rows.len() >= 2);
        rows
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn forward(a: &mut [u64], roots: &[u64], shoups: &[u64], q: &Modulus) {
        let c = consts(q);
        let v = rows(a);
        let blocks = v.len() / 2;
        let mut groups = 1;
        while groups < blocks {
            wide_stage::<false>(v, groups, roots, shoups, &c);
            groups *= 2;
        }
        for (block, i) in v.chunks_exact_mut(2).zip(blocks..) {
            let [lo, hi] = block else { unreachable!() };
            let (mut x, mut y) = (load(lo), load(hi));
            block_stage::<8, false>(&mut x, &mut y, roots, shoups, i, &c);
            relay::<8, 4>(&mut x, &mut y);
            block_stage::<4, false>(&mut x, &mut y, roots, shoups, i, &c);
            relay::<4, 2>(&mut x, &mut y);
            block_stage::<2, false>(&mut x, &mut y, roots, shoups, i, &c);
            relay::<2, 1>(&mut x, &mut y);
            block_stage::<1, false>(&mut x, &mut y, roots, shoups, i, &c);
            relay::<1, 8>(&mut x, &mut y);
            store(lo, csub(csub(x, c.two_q), c.q));
            store(hi, csub(csub(y, c.two_q), c.q));
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn inverse(
        a: &mut [u64],
        roots: &[u64],
        shoups: &[u64],
        last: [(u64, u64); 2],
        q: &Modulus,
    ) {
        let c = consts(q);
        let v = rows(a);
        let blocks = v.len() / 2;
        for (block, i) in v.chunks_exact_mut(2).zip(blocks..) {
            let [lo, hi] = block else { unreachable!() };
            let (mut x, mut y) = (load(lo), load(hi));
            relay::<8, 1>(&mut x, &mut y);
            block_stage::<1, true>(&mut x, &mut y, roots, shoups, i, &c);
            relay::<1, 2>(&mut x, &mut y);
            block_stage::<2, true>(&mut x, &mut y, roots, shoups, i, &c);
            relay::<2, 4>(&mut x, &mut y);
            block_stage::<4, true>(&mut x, &mut y, roots, shoups, i, &c);
            relay::<4, 8>(&mut x, &mut y);
            // At n = 16 the stride-8 stage is the scaled last one, below.
            if blocks > 1 {
                block_stage::<8, true>(&mut x, &mut y, roots, shoups, i, &c);
            }
            store(lo, x);
            store(hi, y);
        }
        let mut groups = blocks / 2;
        while groups > 1 {
            wide_stage::<true>(v, groups, roots, shoups, &c);
            groups /= 2;
        }
        // Last stage: one group, both legs scaled by n⁻¹ through the
        // pre-scaled constants and reduced to canonical form.
        let [scale, twiddle] = last.map(|(w, shoup64)| splat(w, shoup64));
        let (lo, hi) = v.split_at_mut(blocks);
        for (l, h) in lo.iter_mut().zip(hi) {
            let (x, y) = (load(l), load(h));
            let sum = _mm512_add_epi64(x, y);
            let diff = _mm512_sub_epi64(_mm512_add_epi64(x, c.two_q), y);
            store(l, csub(mul_lazy(sum, scale, &c), c.q));
            store(h, csub(mul_lazy(diff, twiddle, &c), c.q));
        }
    }

    /// The 8 words of `s` from `at` on.
    #[inline]
    fn lanes_at(s: &[u64], at: usize) -> &Lanes {
        s[at..at + LANES].try_into().expect("a whole register")
    }

    #[inline]
    fn lanes_at_mut(s: &mut [u64], at: usize) -> &mut Lanes {
        (&mut s[at..at + LANES])
            .try_into()
            .expect("a whole register")
    }

    /// `V mod q`, canonical, for `V = hi·2^52 + lo` summed from products
    /// of values below `q < 2^50` (headroom: `DIGIT_PRODUCT_MAX_DIGITS`).
    /// The carry out of `lo` moves into `hi`, which then stays below 2^52;
    /// `hi·(2^52 mod q)` and `lo mod q` are each one 52-bit Shoup multiply
    /// into `[0, 2q)`, and their sum below `4q` takes two conditional
    /// subtractions.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn fold(lo: __m512i, hi: __m512i, radix: Twiddle, one: Twiddle, c: &Consts) -> __m512i {
        let hi = _mm512_add_epi64(hi, _mm512_srli_epi64::<52>(lo));
        let lo = _mm512_and_si512(lo, c.mask52);
        let sum = _mm512_add_epi64(mul_lazy(hi, radix, c), mul_lazy(lo, one, c));
        csub(csub(sum, c.two_q), c.q)
    }

    /// The digit product over the whole registers of the limb; returns how
    /// many coefficients it wrote (the caller's scalar arm takes the rest).
    /// Both sums of a register live in four accumulators that never leave
    /// the register file: `vpmadd52lo/hi` add the low and high 52-bit
    /// halves of each product to their own lane.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn digit_product(
        x: &mut [u64],
        stride: usize,
        kb: &[&[u64]],
        ka: &[&[u64]],
        q: &Modulus,
    ) -> usize {
        let n = kb[0].len();
        let whole = n - n % LANES;
        let c = consts(q);
        let radix = (1u64 << 52) % q.value();
        let (radix, one) = (splat(radix, q.shoup(radix)), splat(1, q.shoup(1)));
        for j in (0..whole).step_by(LANES) {
            let zero = _mm512_setzero_si512();
            let [mut b_lo, mut b_hi, mut a_lo, mut a_hi] = [zero; 4];
            for (d, (kb, ka)) in kb.iter().zip(ka).enumerate() {
                let v = load(lanes_at(x, d * stride + j));
                let (wb, wa) = (load(lanes_at(kb, j)), load(lanes_at(ka, j)));
                b_lo = _mm512_madd52lo_epu64(b_lo, v, wb);
                b_hi = _mm512_madd52hi_epu64(b_hi, v, wb);
                a_lo = _mm512_madd52lo_epu64(a_lo, v, wa);
                a_hi = _mm512_madd52hi_epu64(a_hi, v, wa);
            }
            store(lanes_at_mut(x, j), fold(b_lo, b_hi, radix, one, &c));
            store(
                lanes_at_mut(x, stride + j),
                fold(a_lo, a_hi, radix, one, &c),
            );
        }
        whole
    }

    /// The rescale over the whole registers of the slice; returns how many
    /// coefficients it wrote. The lifted difference `x + offset (+ p) − r`
    /// is below `q + (p + q) + p = 2q + 2p < 2^52` for `q, p < 2^50`, so
    /// the 52-bit Shoup multiply by `p^{−1}` (companion: the 64-bit one
    /// shifted right by 12, as in the transforms) lands in `[0, 2q)` and
    /// one conditional subtraction makes it canonical — the scalar arm's
    /// value exactly.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn rescale<const ADD: bool>(
        x: &[u64],
        last: &[u64],
        out: &mut [u64],
        r: &RescaleLimb,
    ) -> usize {
        let c = consts(&r.q);
        let p = r.p.value();
        let half = _mm512_set1_epi64((p / 2) as i64);
        let keep = _mm512_set1_epi64(r.offset as i64);
        let wrap = _mm512_set1_epi64((r.offset + p) as i64);
        let inv = splat(r.inv, r.inv_shoup);
        let (out, _) = out.as_chunks_mut::<LANES>();
        let rows = x.as_chunks::<LANES>().0.iter().zip(last.as_chunks().0);
        for (o, (x, last)) in out.iter_mut().zip(rows) {
            let (x, last) = (load(x), load(last));
            let centre = _mm512_mask_blend_epi64(_mm512_cmpgt_epu64_mask(last, half), keep, wrap);
            let lifted = _mm512_sub_epi64(_mm512_add_epi64(x, centre), last);
            let mut v = csub(mul_lazy(lifted, inv, &c), c.q);
            if ADD {
                v = csub(_mm512_add_epi64(load(o), v), c.q);
            }
            store(o, v);
        }
        out.len() * LANES
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::modulus::{Q0, Q1, SPECIAL_P};
        use crate::simd::{scalar, Backend};
        use rand::{Rng, SeedableRng};

        /// One IFMA stage of `groups` twiddle groups on its own: the wide
        /// kernel, or the block kernel between a relay to its layout and
        /// one back to memory order.
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn stage<const INVERSE: bool>(
            a: &mut [u64],
            groups: usize,
            roots: &[u64],
            shoups: &[u64],
            q: &Modulus,
        ) {
            let c = consts(q);
            let v = rows(a);
            let blocks = v.len() / 2;
            if groups < blocks {
                return wide_stage::<INVERSE>(v, groups, roots, shoups, &c);
            }
            for (block, i) in v.chunks_exact_mut(2).zip(blocks..) {
                let [lo, hi] = block else { unreachable!() };
                let (mut x, mut y) = (load(lo), load(hi));
                macro_rules! at_stride {
                    ($t:literal) => {{
                        relay::<8, $t>(&mut x, &mut y);
                        block_stage::<$t, INVERSE>(&mut x, &mut y, roots, shoups, i, &c);
                        relay::<$t, 8>(&mut x, &mut y);
                    }};
                }
                match groups / blocks {
                    1 => at_stride!(8),
                    2 => at_stride!(4),
                    4 => at_stride!(2),
                    _ => at_stride!(1),
                }
                store(lo, x);
                store(hi, y);
            }
        }

        /// Every stage of every size, over the whole lazy input domain:
        /// the 52-bit quotient may pick a different representative than
        /// the scalar kernel, never a different residue or one outside the
        /// documented range.
        #[test]
        fn every_stage_is_congruent_to_scalar_and_in_lazy_range() {
            if !Backend::Avx512Ifma.available() {
                return;
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x1F3A);
            for q in [Q0, Q1, SPECIAL_P].map(|q| Modulus::new(q).unwrap()) {
                for n in [16usize, 32, 256, 4096] {
                    // A stage is correct for any canonical constants, so
                    // random ones stand in for a table's twiddles.
                    let w: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
                    let ws: Vec<u64> = w.iter().map(|&x| q.shoup(x)).collect();
                    // (domain bound, inverse?) — forward legs live in
                    // [0, 4q), inverse legs in [0, 2q).
                    for (bound, inverse) in [(4 * q.value(), false), (2 * q.value(), true)] {
                        let inputs = [
                            (0..n).map(|_| rng.gen_range(0..bound)).collect(),
                            vec![bound - 1; n],
                            vec![0u64; n],
                        ];
                        let mut groups = 1;
                        while groups < n {
                            let t = n / (2 * groups);
                            for input in &inputs {
                                let (mut expect, mut got): (Vec<u64>, Vec<u64>) =
                                    (input.clone(), input.clone());
                                // Safety: `available()` was checked above.
                                if inverse {
                                    scalar::inv_ntt_stage(&mut expect, groups, t, &w, &ws, &q);
                                    unsafe { stage::<true>(&mut got, groups, &w, &ws, &q) };
                                } else {
                                    scalar::fwd_ntt_stage(&mut expect, groups, t, &w, &ws, &q);
                                    unsafe { stage::<false>(&mut got, groups, &w, &ws, &q) };
                                }
                                for (g, e) in got.iter().zip(&expect) {
                                    assert!(*g < bound, "n={n} q={q} t={t} inverse={inverse}");
                                    assert_eq!(
                                        g % q.value(),
                                        e % q.value(),
                                        "n={n} q={q} t={t} inverse={inverse}"
                                    );
                                }
                            }
                            groups *= 2;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::{Q0, Q1, SPECIAL_P};
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x51D0)
    }

    fn moduli() -> Vec<Modulus> {
        [Q0, Q1, SPECIAL_P, (1u64 << 62) - 57]
            .iter()
            .map(|&q| Modulus::new(q).unwrap())
            .collect()
    }

    #[test]
    fn backend_codes_roundtrip() {
        // Codes and names resolve on every host, runnable there or not:
        // a stats frame from an IFMA node must still be nameable here.
        for (code, b) in [
            (0, Backend::Scalar),
            (1, Backend::Avx2),
            (3, Backend::Avx512Ifma),
        ] {
            assert_eq!(b.code(), code);
            assert_eq!(Backend::from_code(code), Some(b));
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        // The retired two-lane backend: its code stays unassigned, and its
        // name is an unknown value (`active()` degrades that to detection).
        assert_eq!(Backend::from_code(2), None);
        assert_eq!(Backend::from_name("neon"), None);
        assert_eq!(Backend::Avx512Ifma.name(), "avx512ifma");
        assert_eq!(Backend::Avx512Ifma.lanes(), 8);
        assert_eq!(Backend::from_code(7), None);
        assert_eq!(Backend::from_name("amx"), None);
        assert_eq!(Backend::from_name("auto"), Some(Backend::detect_auto()));
        assert_eq!(Backend::from_name("  AVX2 "), Some(Backend::Avx2));
    }

    #[test]
    fn lane_counters_are_named_in_kernel_order() {
        for k in Kernel::ALL {
            let (v, t) = (&VECTOR[k as usize], &TAIL[k as usize]);
            assert_eq!(v.name(), format!("cham_math.simd.{}.vector", k.name()));
            assert_eq!(t.name(), format!("cham_math.simd.{}.tail", k.name()));
        }
    }

    #[test]
    fn scalar_always_available() {
        assert!(Backend::Scalar.available());
        let all = Backend::all_available();
        assert_eq!(all[0], Backend::Scalar);
        assert!(Backend::detect_auto().available());
    }

    #[test]
    fn mul_shoup_lazy_slice_matches_scalar_per_backend() {
        let mut rng = rng();
        for q in moduli() {
            // Inputs cover the full lazy domain [0, 4q), constants < q.
            let n = 67; // odd: exercises every tail length
            let a0: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4 * q.value())).collect();
            let w: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let ws: Vec<u64> = w.iter().map(|&x| q.shoup(x)).collect();
            let mut expect = a0.clone();
            for (i, x) in expect.iter_mut().enumerate() {
                *x = q.mul_shoup_lazy(*x, w[i], ws[i]);
            }
            for backend in Backend::all_available() {
                let mut got = a0.clone();
                mul_shoup_lazy_slice(backend, &mut got, &w, &ws, &q);
                assert_eq!(got, expect, "backend={backend} q={q}");
            }
        }
    }

    #[test]
    fn mac_matches_scalar_per_backend_including_worst_case() {
        let mut rng = rng();
        for q in moduli() {
            let n = 37;
            let worst = vec![q.value() - 1; n];
            let rand_a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let rand_b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            for (a, b) in [(&worst, &worst), (&rand_a, &rand_b)] {
                let mut expect = vec![0u128; n];
                let mut got = vec![u128::MAX; n]; // dirty scratch
                for backend in Backend::all_available() {
                    expect.fill(0);
                    // LAZY_ACC_BOUND accumulations on top of an overwrite.
                    for round in 0..crate::poly::LAZY_ACC_BOUND {
                        for i in 0..n {
                            let p = a[i] as u128 * b[i] as u128;
                            if round == 0 {
                                expect[i] = p;
                            } else {
                                expect[i] += p;
                            }
                        }
                    }
                    mac_write(backend, &mut got, a, b);
                    for _ in 1..crate::poly::LAZY_ACC_BOUND {
                        mac_accumulate(backend, &mut got, a, b);
                    }
                    assert_eq!(got, expect, "backend={backend} q={q}");
                }
            }
        }
    }

    #[test]
    fn reduce_from_lazy_slice_matches_scalar_per_backend() {
        let mut rng = rng();
        for q in moduli() {
            let n = 33;
            let mut a0: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4 * q.value())).collect();
            // Pin the boundary representatives.
            a0[0] = 0;
            a0[1] = q.value() - 1;
            a0[2] = q.value();
            a0[3] = 2 * q.value() - 1;
            a0[4] = 2 * q.value();
            a0[5] = 4 * q.value() - 1;
            let expect: Vec<u64> = a0.iter().map(|&x| q.reduce_from_lazy(x)).collect();
            for backend in Backend::all_available() {
                let mut got = a0.clone();
                reduce_from_lazy_slice(backend, &mut got, &q);
                assert_eq!(got, expect, "backend={backend} q={q}");
            }
        }
    }

    #[test]
    fn stats_accounting_splits_vector_and_tail() {
        let q = Modulus::new(Q0).unwrap();
        let before = simd_stats();
        let mut a = vec![1u64; 11];
        // Four lanes where the host has a vector arm, all tail otherwise.
        let (backend, vector, tail) = if Backend::Avx2.available() {
            (Backend::Avx2, 8, 3)
        } else {
            (Backend::Scalar, 0, 11)
        };
        reduce_from_lazy_slice(backend, &mut a, &q);
        let after = simd_stats();
        let k = Kernel::Normalize as usize;
        assert_eq!(
            after.kernels[k].vector_elems - before.kernels[k].vector_elems,
            vector
        );
        assert_eq!(
            after.kernels[k].tail_elems - before.kernels[k].tail_elems,
            tail
        );
        assert!(after.totals().0 >= after.kernels[k].vector_elems);
    }
}
