//! NTT/INTT known-answer tests against the checked-in golden vectors in
//! `tests/golden/`.
//!
//! Each golden file carries a seeded `(a, b)` pair and the negacyclic
//! product `c = a * b mod (X^n + 1, q)` computed by the O(n²) schoolbook
//! oracle — never by an NTT — so a systematic transform bug (wrong
//! twiddle, wrong ordering, missed reduction) cannot also corrupt the
//! expected answers. Both transform variants must reproduce `c`:
//! the iterative Cooley-Tukey/Gentleman-Sande pair ([`NttTable`]) and
//! the constant-geometry Pease datapath ([`CgNttTable`]), whose
//! forward outputs must additionally agree lane for lane.
//!
//! Regenerate the vectors (only after an intentional format change) with
//! `cargo run --release -p cham-math --example gen_ntt_golden`.

use cham_math::ntt_cg::CgNttTable;
use cham_math::{Backend, Modulus, NttTable};
use std::path::Path;

struct Golden {
    n: usize,
    q: Modulus,
    a: Vec<u64>,
    b: Vec<u64>,
    c: Vec<u64>,
}

fn load(name: &str) -> Golden {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<u64> = lines
        .next()
        .expect("header line")
        .split_whitespace()
        .map(|t| t.parse().expect("header number"))
        .collect();
    let (n, q) = (header[0] as usize, header[1]);
    let mut row = |what: &str| -> Vec<u64> {
        let v: Vec<u64> = lines
            .next()
            .unwrap_or_else(|| panic!("{name}: missing {what} row"))
            .split_whitespace()
            .map(|t| t.parse().expect("coefficient"))
            .collect();
        assert_eq!(v.len(), n, "{name}: {what} row length");
        v
    };
    let (a, b, c) = (row("a"), row("b"), row("c"));
    Golden {
        n,
        q: Modulus::new(q).expect("NTT-friendly modulus"),
        a,
        b,
        c,
    }
}

fn pointwise(x: &[u64], y: &[u64], q: &Modulus) -> Vec<u64> {
    x.iter().zip(y).map(|(&a, &b)| q.mul(a, b)).collect()
}

/// Negacyclic multiply through the iterative CT/GS tables, pinned to one
/// SIMD backend.
fn mul_via_ntt(g: &Golden, backend: Backend) -> Vec<u64> {
    let table = NttTable::with_backend(g.n, g.q, backend).expect("NttTable");
    let fa = table.forward_to_vec(&g.a);
    let fb = table.forward_to_vec(&g.b);
    table.inverse_to_vec(&pointwise(&fa, &fb, &g.q))
}

/// Negacyclic multiply through the constant-geometry (Pease) datapath
/// (scalar stages under every backend).
fn mul_via_cg(g: &Golden) -> Vec<u64> {
    let table = CgNttTable::new(g.n, g.q).expect("CgNttTable");
    let fa = table.forward_to_vec(&g.a);
    let fb = table.forward_to_vec(&g.b);
    table.inverse_to_vec(&pointwise(&fa, &fb, &g.q))
}

const GOLDEN_FILES: [&str; 5] = [
    "ntt_n16_q0.txt",
    "ntt_n16_q1.txt",
    "ntt_n16_p.txt",
    "ntt_n1024_q0.txt",
    "ntt_n4096_q0.txt",
];

/// Negacyclic multiply through the strict-reduction reference datapath.
fn mul_via_ntt_strict(g: &Golden) -> Vec<u64> {
    let table = NttTable::new(g.n, g.q).expect("NttTable");
    let mut fa = g.a.clone();
    table.forward_strict(&mut fa);
    let mut fb = g.b.clone();
    table.forward_strict(&mut fb);
    let mut c = pointwise(&fa, &fb, &g.q);
    table.inverse_strict(&mut c);
    c
}

#[test]
fn cooley_tukey_matches_schoolbook_golden() {
    // `forward`/`inverse` run the lazy Harvey datapath, so this KAT pins
    // the production path to the schoolbook oracle — once per SIMD backend
    // the host can execute, so every vector variant answers to the same
    // golden vectors.
    for backend in Backend::all_available() {
        for name in GOLDEN_FILES {
            let g = load(name);
            assert_eq!(mul_via_ntt(&g, backend), g.c, "{name} backend={backend}");
        }
    }
}

#[test]
fn strict_datapath_matches_schoolbook_golden() {
    for name in GOLDEN_FILES {
        let g = load(name);
        assert_eq!(mul_via_ntt_strict(&g), g.c, "{name}");
    }
}

#[test]
fn lazy_and_strict_agree_lane_for_lane_on_golden_inputs() {
    // The strict twins always run scalar, so with the table pinned to each
    // available backend this doubles as the SIMD-vs-scalar lane-for-lane
    // KAT on the golden inputs.
    for backend in Backend::all_available() {
        for name in GOLDEN_FILES {
            let g = load(name);
            let table = NttTable::with_backend(g.n, g.q, backend).expect("NttTable");
            for input in [&g.a, &g.b] {
                let mut lazy = input.clone();
                table.forward(&mut lazy);
                let mut strict = input.clone();
                table.forward_strict(&mut strict);
                assert_eq!(lazy, strict, "{name}: forward backend={backend}");
                table.inverse(&mut lazy);
                table.inverse_strict(&mut strict);
                assert_eq!(lazy, strict, "{name}: inverse backend={backend}");
            }
        }
    }
}

#[test]
fn constant_geometry_matches_schoolbook_golden() {
    for name in GOLDEN_FILES {
        let g = load(name);
        assert_eq!(mul_via_cg(&g), g.c, "{name}");
    }
}

#[test]
fn variants_agree_in_the_transform_domain() {
    // Stronger than product equality: the Pease network must land every
    // lane exactly where the iterative transform does, or downstream
    // pointwise kernels could not mix outputs from the two datapaths.
    for name in GOLDEN_FILES {
        let g = load(name);
        let cg = CgNttTable::new(g.n, g.q).expect("CgNttTable");
        let (cg_a, cg_b) = (cg.forward_to_vec(&g.a), cg.forward_to_vec(&g.b));
        for backend in Backend::all_available() {
            let ct = NttTable::with_backend(g.n, g.q, backend).expect("NttTable");
            assert_eq!(ct.forward_to_vec(&g.a), cg_a, "{name} backend={backend}");
            assert_eq!(ct.forward_to_vec(&g.b), cg_b, "{name} backend={backend}");
        }
    }
}

#[test]
fn inverse_recovers_golden_inputs() {
    for name in GOLDEN_FILES {
        let g = load(name);
        let cg = CgNttTable::new(g.n, g.q).expect("CgNttTable");
        assert_eq!(cg.inverse_to_vec(&cg.forward_to_vec(&g.a)), g.a, "{name}");
        for backend in Backend::all_available() {
            let ct = NttTable::with_backend(g.n, g.q, backend).expect("NttTable");
            let tag = format!("{name} backend={backend}");
            assert_eq!(ct.inverse_to_vec(&ct.forward_to_vec(&g.a)), g.a, "{tag}");
        }
    }
}

#[test]
fn backends_agree_lane_for_lane_in_the_transform_domain() {
    // Cross-backend KAT: scalar is the oracle; every vector backend must
    // reproduce its transform-domain output (not just the roundtrip) on
    // the golden inputs.
    for name in GOLDEN_FILES {
        let g = load(name);
        let ct_ref = NttTable::with_backend(g.n, g.q, Backend::Scalar).expect("NttTable");
        let ct_fwd = ct_ref.forward_to_vec(&g.a);
        let ct_inv = ct_ref.inverse_to_vec(&ct_fwd);
        for backend in Backend::all_available() {
            if backend == Backend::Scalar {
                continue;
            }
            let ct = NttTable::with_backend(g.n, g.q, backend).expect("NttTable");
            let tag = format!("{name} backend={backend}");
            assert_eq!(ct.forward_to_vec(&g.a), ct_fwd, "{tag}: ct fwd");
            assert_eq!(ct.inverse_to_vec(&ct_fwd), ct_inv, "{tag}: ct inv");
        }
    }
}
