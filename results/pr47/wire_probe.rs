//! The split probe behind this record: where a `serve_wide` request's
//! wire time goes. At the paper's parameters (N = 4096) it builds that
//! workload's request — a 4 × 65536 matrix, so 16 NTT-form ciphertexts
//! over the augmented basis, 3.1 MB — and times, in ms per call:
//!
//! - `client encode`: `protocol::hmvp_request_payload` of the 16
//!   ciphertexts;
//! - `server decode`: `protocol::hmvp_request_from_bytes` of the whole
//!   request body;
//! - `loopback frame`: the same body written as one `Hmvp` frame to an
//!   echo thread over loopback TCP, read there by `protocol::read_frame`
//!   and answered with a frame the size of the packed reply — the bytes a
//!   request moves, with no ciphertext codec at either end;
//! - `served request`: `ServeClient::hmvp` against an in-process
//!   `cham-serve` node (2 workers, keys and matrix cached), followed by
//!   the mean of each server phase over the timed calls.
//!
//! Each row is the median (and min–max) of `rounds` rounds of `reps`
//! calls. The served reply is first checked against the plain product
//! `A·v mod t`.
//!
//! Build it as the `main.rs` of a package of its own, outside the
//! workspace (an empty `[workspace]` table), with path dependencies on the
//! checkout's `crates/cham-he`, `crates/cham-serve` and `vendor/rand`,
//! once per side, and run the two binaries alternately:
//!
//! ```text
//! probe <rounds> <reps>     # e.g. probe 7 20
//! ```

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::protocol::{self, FrameKind, DEADLINE_NONE};
use cham_serve::{Server, ServerConfig, ServeClient};
use rand::{Rng, SeedableRng};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

fn row(name: &str, rounds: usize, reps: usize, mut op: impl FnMut()) {
    op();
    let mut ms: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                op();
            }
            t0.elapsed().as_secs_f64() * 1e3 / reps as f64
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    println!(
        "{name:<18} {:>7.3} ms  ({:.3}–{:.3})",
        ms[rounds / 2],
        ms[0],
        ms[rounds - 1]
    );
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("usage: probe <rounds> <reps>"))
        .collect();
    let (rounds, reps) = (args[0], args[1]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    let params = Arc::new(ChamParams::cham_default().unwrap());
    let t = params.plain_modulus();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let indices = [3, 5];
    let gkeys = GaloisKeys::generate_for_packing(&sk, 2, &mut rng).unwrap();
    let hmvp = Hmvp::new(&params);
    let (rows, cols) = (4, 65_536);
    let a = Matrix::random(rows, cols, t.value(), &mut rng);
    let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let body = protocol::hmvp_request_to_bytes(1, 2, DEADLINE_NONE, 3, &cts);
    let reply = hmvp.multiply(&hmvp.encode_matrix(&a).unwrap(), &cts, &gkeys).unwrap();
    let reply_len = protocol::Response::HmvpDone {
        len: rows as u64,
        packed: reply.packed,
    }
    .to_bytes()
    .len();
    println!(
        "request at N = {}: {} ciphertexts, {} bytes; reply {reply_len} bytes; \
         {rounds} rounds of {reps} calls",
        params.degree(),
        cts.len(),
        body.len()
    );

    row("client encode", rounds, reps, || {
        std::hint::black_box(protocol::hmvp_request_payload(&cts));
    });
    row("server decode", rounds, reps, || {
        std::hint::black_box(protocol::hmvp_request_from_bytes(&body, &params).unwrap());
    });

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_nodelay(true).unwrap();
        let answer = vec![7u8; reply_len];
        while let Ok((_, req)) = protocol::read_frame(&mut s) {
            std::hint::black_box(req);
            protocol::write_frame(&mut s, FrameKind::Result, &answer).unwrap();
        }
    });
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    row("loopback frame", rounds, reps, || {
        protocol::write_frame(&mut s, FrameKind::Hmvp, &body).unwrap();
        std::hint::black_box(protocol::read_frame(&mut s).unwrap());
    });
    drop(s);
    echo.join().unwrap();

    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", Arc::clone(&params), &config).unwrap();
    let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&params)).unwrap();
    let key_id = client.load_keys(&gkeys, &indices).unwrap();
    let matrix_id = client.load_matrix(&a).unwrap();
    let out = client.hmvp(key_id, matrix_id, &cts, None).unwrap();
    assert_eq!(
        hmvp.decrypt_result(&out, &dec).unwrap(),
        a.mul_vector_mod(&v, t).unwrap(),
        "the served reply decrypts to A·v"
    );
    let before = server.introspect().phases;
    row("served request", rounds, reps, || {
        std::hint::black_box(client.hmvp(key_id, matrix_id, &cts, None).unwrap());
    });
    for p in server.introspect().phases {
        let Some(b) = before.iter().find(|b| b.name == p.name) else {
            continue;
        };
        let calls = p.count - b.count;
        if calls > 0 {
            let mean_ms = (p.sum_ns - b.sum_ns) as f64 / calls as f64 / 1e6;
            println!("  server {:<14} {mean_ms:>7.3} ms", p.name);
        }
    }
    drop(client);
    server.shutdown();
}
