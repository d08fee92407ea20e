//! Emits RTL golden vectors for the CHAM functional units on stdout.
//!
//! ```sh
//! cargo run -p cham-bench --release --bin golden_dump > cham_golden.txt
//! ```
//!
//! Arguments (positional, optional): `degree` (default 4096), `per_unit`
//! vector count (default 2), `seed` (default 1).

use cham_math::modulus::{Modulus, Q0};
use cham_sim::golden::GoldenGenerator;

fn main() {
    let positional: Vec<String> = std::env::args().skip(1).collect();
    let degree: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096);
    let per_unit: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let seed: u64 = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);

    let q = Modulus::new(Q0).expect("Q0 is valid");
    let mut generator = GoldenGenerator::new(degree, q, seed);
    match generator.full_dump(per_unit) {
        Ok(dump) => {
            println!("# CHAM golden vectors: degree={degree} q={Q0} seed={seed}");
            print!("{dump}");
        }
        Err(e) => {
            eprintln!("golden-vector generation failed: {e}");
            std::process::exit(1);
        }
    }
}
