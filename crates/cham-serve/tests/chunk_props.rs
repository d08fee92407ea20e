//! Property tests for the chunked-upload protocol.
//!
//! The invariant under test: *however* a matrix reaches the server —
//! orderly chunks of any size, shuffled chunks, duplicated chunks, or a
//! resumed upload after a disconnect — it lands under the content
//! address of its declared body and serves the same bytes. The chunk
//! protocol is a transport detail; content addressing is the contract.
//!
//! Uses the insecure N=256 test parameters; every case runs a real
//! server on an ephemeral loopback port.

use cham_he::hmvp::Matrix;
use cham_he::params::ChamParams;
use cham_serve::cache::content_hash;
use cham_serve::protocol::{self, FrameKind, Hello, MatrixChunkStart, Response};
use cham_serve::server::{Server, ServerConfig};
use cham_serve::{ClientConfig, ServeClient};
use proptest::prelude::*;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

fn params() -> &'static Arc<ChamParams> {
    static PARAMS: OnceLock<Arc<ChamParams>> = OnceLock::new();
    PARAMS.get_or_init(|| Arc::new(ChamParams::insecure_test_default().unwrap()))
}

fn start_server() -> Server {
    Server::start(
        "127.0.0.1:0",
        Arc::clone(params()),
        &ServerConfig::default(),
    )
    .unwrap()
}

/// Builds a matrix from proptest-supplied cells, reduced mod t.
fn matrix_from_cells(rows: usize, cols: usize, cells: &[u64]) -> Matrix {
    let t = params().plain_modulus().value();
    let data: Vec<u64> = (0..rows * cols)
        .map(|i| cells[i % cells.len()].wrapping_add(i as u64) % t)
        .collect();
    Matrix::from_data(rows, cols, data).unwrap()
}

/// A raw connection: hello exchanged, ready for hand-built
/// frames. Lets a test send chunks in whatever order it likes.
fn raw_connect(server: &Server) -> TcpStream {
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Hello::for_params(params());
    protocol::write_frame(&mut s, FrameKind::Hello, &hello.to_bytes()).unwrap();
    let (kind, _) = protocol::read_frame(&mut s).unwrap();
    assert_eq!(kind, FrameKind::Result);
    s
}

/// Round-trips one chunk-op frame and returns the `ChunkAck` bitmap.
fn roundtrip_ack(s: &mut TcpStream, kind: FrameKind, body: &[u8]) -> Vec<u8> {
    protocol::write_frame(s, kind, body).unwrap();
    let (kind, body) = protocol::read_frame(s).unwrap();
    assert_eq!(kind, FrameKind::Result, "expected ack, got {kind:?}");
    match Response::from_bytes(&body, params()).unwrap() {
        Response::ChunkAck { bitmap, .. } => bitmap,
        other => panic!("expected ChunkAck, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A chunked upload resolves to the content address of the whole
    /// declared body — for arbitrary shapes and chunk sizes, including
    /// chunk sizes that leave a short final chunk or exceed the body.
    #[test]
    fn streamed_upload_matches_monolithic_content_address(
        rows in 1usize..5,
        cols in 1usize..9,
        chunk_bytes in 1usize..700,
        cells in prop::collection::vec(any::<u64>(), 1..16)
    ) {
        let server = start_server();
        let matrix = matrix_from_cells(rows, cols, &cells);
        let body = protocol::matrix_to_bytes(&matrix);

        let mut streaming = ServeClient::connect(server.local_addr(), Arc::clone(params())).unwrap();
        let up = streaming.load_matrix_streamed(&matrix, chunk_bytes).unwrap();
        prop_assert_eq!(up.matrix_id, content_hash(&body));
        // A fresh upload sends every chunk and skips none.
        let clamped = chunk_bytes.clamp(1, protocol::MAX_CHUNK_BYTES);
        prop_assert_eq!(up.chunks_sent as usize, body.len().div_ceil(clamped));
        prop_assert_eq!(up.chunks_skipped, 0);

        prop_assert_eq!(server.cache().lens().1, 1);
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chunks may arrive in any order, and duplicates are acknowledged
    /// idempotently — the reassembled body still commits under the
    /// declared content address.
    #[test]
    fn shuffled_and_duplicated_chunks_reassemble_identically(
        rows in 1usize..4,
        cols in 2usize..10,
        chunk_bytes in 1usize..64,
        shuffle_seed in any::<u64>(),
        dup_every in 1usize..4,
        cells in prop::collection::vec(any::<u64>(), 1..12)
    ) {
        let server = start_server();
        let matrix = matrix_from_cells(rows, cols, &cells);
        let body = protocol::matrix_to_bytes(&matrix);
        let matrix_id = content_hash(&body);
        let start = MatrixChunkStart::new(matrix_id, body.len(), chunk_bytes, rows as u32, cols as u32);

        let mut order: Vec<u32> = (0..start.chunk_count).collect();
        // Deterministic Fisher–Yates from the proptest-supplied seed.
        let mut state = shuffle_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        // Duplicate a sample of chunks by sending them twice.
        let dups: Vec<u32> = order.iter().copied().step_by(dup_every).collect();

        let mut s = raw_connect(&server);
        let bitmap = roundtrip_ack(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes());
        prop_assert!(bitmap.iter().all(|b| *b == 0), "fresh upload acked non-empty bitmap");
        for &index in order.iter().chain(&dups) {
            let off = index as usize * chunk_bytes;
            let data = &body[off..(off + chunk_bytes).min(body.len())];
            let chunk = protocol::matrix_chunk_to_bytes(matrix_id, index, content_hash(data), data);
            let bitmap = roundtrip_ack(&mut s, FrameKind::MatrixChunk, &chunk);
            prop_assert!(protocol::bitmap_get(&bitmap, index as usize));
        }
        protocol::write_frame(&mut s, FrameKind::MatrixChunkCommit,
            &protocol::matrix_chunk_commit_to_bytes(matrix_id)).unwrap();
        let (kind, resp) = protocol::read_frame(&mut s).unwrap();
        prop_assert_eq!(kind, FrameKind::Result);
        match Response::from_bytes(&resp, params()).unwrap() {
            Response::MatrixLoaded { matrix_id: got, rows: r, cols: c } => {
                prop_assert_eq!(got, matrix_id);
                prop_assert_eq!((r as usize, c as usize), (rows, cols));
            }
            other => panic!("expected MatrixLoaded, got {other:?}"),
        }
        // The entry is the one an orderly upload lands on: a second
        // client's upload dedups onto it without sending a chunk or
        // growing the cache.
        let mut again = ServeClient::connect(server.local_addr(), Arc::clone(params())).unwrap();
        let up = again.load_matrix_streamed(&matrix, protocol::DEFAULT_CHUNK_BYTES).unwrap();
        prop_assert_eq!((up.matrix_id, up.chunks_sent), (matrix_id, 0));
        prop_assert_eq!(server.cache().lens().1, 1);
        server.shutdown();
    }

    /// The server hashes chunks that land in order as they arrive and
    /// the rest at commit. Whatever the split — all in order, none, or an
    /// in-order prefix then a shuffled tail — the body commits under its
    /// own id and is kept byte for byte.
    #[test]
    fn partly_shuffled_uploads_commit_under_the_right_id(
        rows in 1usize..4,
        cols in 2usize..10,
        chunk_bytes in 1usize..64,
        prefix_pick in any::<u32>(),
        shuffle_seed in any::<u64>(),
        cells in prop::collection::vec(any::<u64>(), 1..12)
    ) {
        let server = start_server();
        let matrix = matrix_from_cells(rows, cols, &cells);
        let body = protocol::matrix_to_bytes(&matrix);
        let matrix_id = content_hash(&body);
        let start = MatrixChunkStart::new(matrix_id, body.len(), chunk_bytes, rows as u32, cols as u32);
        // Anywhere from no chunk in order to all of them.
        let prefix = prefix_pick as usize % (start.chunk_count as usize + 1);
        let mut order: Vec<u32> = (0..start.chunk_count).collect();
        let mut state = shuffle_seed | 1;
        for i in (prefix + 1..order.len()).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            order.swap(i, prefix + (state >> 33) as usize % (i + 1 - prefix));
        }

        let mut s = raw_connect(&server);
        roundtrip_ack(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes());
        for &index in &order {
            let off = index as usize * chunk_bytes;
            let data = &body[off..(off + chunk_bytes).min(body.len())];
            let chunk = protocol::matrix_chunk_to_bytes(matrix_id, index, content_hash(data), data);
            roundtrip_ack(&mut s, FrameKind::MatrixChunk, &chunk);
        }
        protocol::write_frame(&mut s, FrameKind::MatrixChunkCommit,
            &protocol::matrix_chunk_commit_to_bytes(matrix_id)).unwrap();
        let (kind, resp) = protocol::read_frame(&mut s).unwrap();
        prop_assert_eq!(kind, FrameKind::Result);
        match Response::from_bytes(&resp, params()).unwrap() {
            Response::MatrixLoaded { matrix_id: got, .. } => prop_assert_eq!(got, matrix_id),
            other => panic!("expected MatrixLoaded, got {other:?}"),
        }
        prop_assert_eq!(server.cache().segment_bytes(matrix_id).unwrap(), body);
        server.shutdown();
    }

    /// A resumed upload after a disconnect re-sends *only* the chunks
    /// the server never received — pinned by the per-chunk counters in
    /// [`cham_serve::ChunkUpload`].
    #[test]
    fn resumed_upload_sends_only_missing_chunks(
        rows in 1usize..4,
        cols in 2usize..10,
        chunk_bytes in 1usize..64,
        sent_fraction in 0.0f64..1.0,
        cells in prop::collection::vec(any::<u64>(), 1..12)
    ) {
        let server = start_server();
        let matrix = matrix_from_cells(rows, cols, &cells);
        let body = protocol::matrix_to_bytes(&matrix);
        let matrix_id = content_hash(&body);
        let start = MatrixChunkStart::new(matrix_id, body.len(), chunk_bytes, rows as u32, cols as u32);
        let sent_before = ((start.chunk_count as f64) * sent_fraction) as u32;

        // First attempt: declare, send a prefix of the chunks, vanish
        // mid-upload (simulated disconnect — the socket just drops).
        {
            let mut s = raw_connect(&server);
            roundtrip_ack(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes());
            for index in 0..sent_before {
                let off = index as usize * chunk_bytes;
                let data = &body[off..(off + chunk_bytes).min(body.len())];
                let chunk = protocol::matrix_chunk_to_bytes(matrix_id, index, content_hash(data), data);
                roundtrip_ack(&mut s, FrameKind::MatrixChunk, &chunk);
            }
        }

        // Resume on a fresh connection: the Start ack's bitmap steers the
        // client around everything the server already holds.
        let mut client = ServeClient::connect_with(
            server.local_addr(),
            Arc::clone(params()),
            &ClientConfig::default(),
        ).unwrap();
        let up = client.load_matrix_streamed(&matrix, chunk_bytes).unwrap();
        prop_assert_eq!(up.matrix_id, matrix_id);
        prop_assert_eq!(up.chunks_skipped, sent_before);
        prop_assert_eq!(up.chunks_sent, start.chunk_count - sent_before);
        server.shutdown();
    }
}
