//! The job-service determinism and robustness rig.
//!
//! The product guarantee under test: **identical submissions return
//! bit-identical rows** — regardless of the harness worker count, the
//! order circuits arrive in, the packed or scalar replay, which transport
//! carried the frames, or whether the rows were recomputed or served from
//! the shared result cache. Pinning happens at the **byte** level on the
//! `RowReady` response payloads, not on decoded values.
//!
//! The robustness half reuses the `tests/wire.rs` corruption discipline
//! against a live server session: truncated frames, foreign magic, wrong
//! format versions and 256 single-byte corruptions must each produce a
//! typed response frame (or a clean session end for broken framing) —
//! never a panic, never a wedged server.

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scanpower_suite::cache::ResultCache;
use scanpower_suite::core::experiment::ExperimentOptions;
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::serve::protocol::{
    CircuitSource, JobSpec, JobState, Request, Response, RowOutcome,
};
use scanpower_suite::serve::transport::{LocalTransport, StreamConnection, TcpTransport};
use scanpower_suite::serve::{ServeClient, ServeConfig, Server};
use scanpower_suite::wire::{decode_message, encode_message, WIRE_MAGIC, WIRE_VERSION};

const SCALE: Option<f64> = Some(0.3);
const SEED: u64 = 1;
const CIRCUITS: [&str; 3] = ["s344", "s382", "s444"];

/// Offset of the `RowOutcome` bytes inside a `RowReady` response payload:
/// 4 magic + 2 version + 1 tag + 8 job id + 8 index. Everything from here
/// on is the row itself — the part that must be byte-identical across
/// submissions whatever slot or job id it arrived under.
const OUTCOME_OFFSET: usize = 4 + 2 + 1 + 8 + 8;

fn sources(order: &[usize]) -> Vec<CircuitSource> {
    order
        .iter()
        .map(|&i| CircuitSource::Family {
            spec: CircuitFamily::iscas89_like(CIRCUITS[i]).unwrap(),
            scale: SCALE,
            seed: SEED,
        })
        .collect()
}

fn options(threads: usize, packed_replay: bool) -> ExperimentOptions {
    ExperimentOptions {
        threads,
        packed_replay,
        ..ExperimentOptions::fast()
    }
}

/// One delivered row: `(circuit index, outcome bytes, full frame)`.
type DeliveredRow = (usize, Vec<u8>, Vec<u8>);

/// Runs one submission on a fresh server (sharing `cache`) over a fresh
/// `LocalTransport`, returning each row's `(circuit index, outcome
/// bytes, full frame)` plus the terminal `JobDone`.
fn run_local(
    cache: &Arc<ResultCache>,
    order: &[usize],
    opts: ExperimentOptions,
) -> (Vec<DeliveredRow>, Response) {
    let server = Server::with_cache(ServeConfig::default(), Arc::clone(cache));
    let (transport, connector) = LocalTransport::new();
    let listener = server.spawn_listener(transport);
    let mut client = ServeClient::new(connector.connect().unwrap());
    let drained = client
        .run_job(&JobSpec {
            circuits: sources(order),
            options: opts,
        })
        .unwrap();
    assert_eq!(drained.rows.len(), order.len());
    let rows = drained
        .rows
        .into_iter()
        .enumerate()
        .map(|(position, event)| {
            assert_eq!(event.index, position, "spec-order delivery");
            assert_eq!(event.frame[6], 3, "RowReady tag");
            (
                order[position],
                event.frame[OUTCOME_OFFSET..].to_vec(),
                event.frame,
            )
        })
        .collect();
    drop(client);
    drop(connector);
    listener.join().unwrap();
    (rows, drained.end)
}

fn job_done_cache_hits(end: &Response) -> u64 {
    match end {
        Response::JobDone {
            failures: 0,
            cache_hits,
            ..
        } => *cache_hits,
        other => panic!("expected a clean JobDone, got {other:?}"),
    }
}

/// The identity matrix: one shared cache, the same batch submitted across
/// harness worker counts {1, 3, auto} × replays {packed, scalar} × shuffled
/// arrival orders. Every row's outcome bytes are pinned identical to the
/// reference run, the first run computes everything, and every
/// resubmission is served entirely by cache hits (hits == circuit count —
/// the `tests/cache.rs` discipline, now through the protocol).
#[test]
fn service_identity_across_workers_replays_orders_and_cache() {
    let cache = Arc::new(ResultCache::in_memory());
    let base_order = [0, 1, 2];

    let (reference, end) = run_local(&cache, &base_order, options(1, true));
    assert_eq!(
        job_done_cache_hits(&end),
        0,
        "the first submission computes every row"
    );
    let reference_bytes: Vec<&Vec<u8>> = reference.iter().map(|(_, bytes, _)| bytes).collect();

    for threads in [1, 3, 0] {
        for packed_replay in [true, false] {
            let (rows, end) = run_local(&cache, &base_order, options(threads, packed_replay));
            for ((circuit, bytes, frame), (_, _, reference_frame)) in
                rows.iter().zip(reference.iter())
            {
                assert_eq!(
                    bytes, reference_bytes[*circuit],
                    "threads {threads}, packed {packed_replay}: outcome bytes"
                );
                // Same order, same fresh-server job id: the whole frame
                // is byte-identical, not just the row.
                assert_eq!(
                    frame, reference_frame,
                    "threads {threads}, packed {packed_replay}: full frame"
                );
            }
            assert_eq!(
                job_done_cache_hits(&end),
                CIRCUITS.len() as u64,
                "threads {threads}, packed {packed_replay}: served from cache"
            );
        }
    }

    for order in [[2, 0, 1], [1, 2, 0], [2, 1, 0]] {
        let (rows, end) = run_local(&cache, &order, options(3, true));
        for (circuit, bytes, _) in &rows {
            assert_eq!(
                bytes, reference_bytes[*circuit],
                "order {order:?}: arrival order changes slots, never bytes"
            );
        }
        assert_eq!(job_done_cache_hits(&end), CIRCUITS.len() as u64);
    }
}

/// The TCP transport carries the exact same bytes as the local one: a
/// fresh server per transport (shared cache), same submission, full
/// response frames compared byte for byte.
#[test]
fn tcp_and_local_transports_carry_identical_frames() {
    let cache = Arc::new(ResultCache::in_memory());
    let order = [0, 1];
    let (local_rows, _) = run_local(&cache, &order, options(1, true));

    let server = Server::with_cache(ServeConfig::default(), Arc::clone(&cache));
    let (transport, shutdown) = TcpTransport::bind("127.0.0.1:0").unwrap();
    let addr = transport.local_addr().unwrap();
    let listener = server.spawn_listener(transport);
    let mut client = ServeClient::new(StreamConnection::new(
        std::net::TcpStream::connect(addr).unwrap(),
    ));
    let drained = client
        .run_job(&JobSpec {
            circuits: sources(&order),
            options: options(1, true),
        })
        .unwrap();
    assert_eq!(drained.rows.len(), order.len());
    for (event, (_, _, local_frame)) in drained.rows.iter().zip(&local_rows) {
        assert_eq!(
            &event.frame, local_frame,
            "transport must not change a single byte"
        );
    }
    assert_eq!(job_done_cache_hits(&drained.end), order.len() as u64);
    drop(client);
    shutdown.shutdown();
    listener.join().unwrap();
}

/// Backpressure is a typed `Busy`, not a hang and not unbounded
/// buffering: with no workers and a one-slot queue, the second submission
/// is refused and reports the queue's occupancy.
#[test]
fn full_queue_refuses_submissions_with_typed_busy() {
    let server = Server::new(ServeConfig {
        queue_capacity: 1,
        workers: 0,
        default_deadline_ms: None,
    });
    let (transport, connector) = LocalTransport::new();
    let listener = server.spawn_listener(transport);
    let mut client = ServeClient::new(connector.connect().unwrap());
    let spec = JobSpec {
        circuits: sources(&[0]),
        options: options(1, true),
    };
    assert!(matches!(
        client.submit(&spec).unwrap(),
        Response::JobAccepted { .. }
    ));
    assert_eq!(
        client.submit(&spec).unwrap(),
        Response::Busy {
            queued: 1,
            capacity: 1
        }
    );
    // Draining the queue reopens admission.
    assert!(server.run_pending_job());
    assert!(matches!(
        client.submit(&spec).unwrap(),
        Response::JobAccepted { .. }
    ));
    drop(client);
    drop(connector);
    listener.join().unwrap();
}

/// `CancelJob` on a queued job: the cancellation parent is tripped before
/// the job runs, so every circuit winds down at its **first** replay
/// checkpoint as a deterministic `Canceled` failure — delivered in spec
/// order, followed by a `JobDone` counting only failures. No timing, no
/// races: the no-worker server runs the job strictly after the cancel.
#[test]
fn cancel_job_cancels_every_circuit_deterministically() {
    let server = Server::new(ServeConfig {
        queue_capacity: 4,
        workers: 0,
        default_deadline_ms: None,
    });
    let (transport, connector) = LocalTransport::new();
    let listener = server.spawn_listener(transport);
    let mut client = ServeClient::new(connector.connect().unwrap());
    let Response::JobAccepted { job } = client
        .submit(&JobSpec {
            circuits: sources(&[0, 1]),
            options: options(1, true),
        })
        .unwrap()
    else {
        panic!("submission refused");
    };
    assert_eq!(
        client.cancel(job).unwrap(),
        Response::CancelAck {
            job,
            state: JobState::Queued
        }
    );
    assert!(server.run_pending_job());
    let drained = client.drain_job(job).unwrap();
    assert_eq!(drained.rows.len(), 2);
    for (event, &circuit) in drained.rows.iter().zip(&[0usize, 1]) {
        let Response::RowReady {
            outcome: RowOutcome::Failed { message },
            ..
        } = &event.response
        else {
            panic!("expected a canceled row, got {:?}", event.response);
        };
        assert_eq!(
            message,
            &format!(
                "`{}`: job canceled (cancellation flag tripped or deadline exceeded)",
                CIRCUITS[circuit]
            )
        );
    }
    assert!(matches!(
        drained.end,
        Response::JobDone {
            rows: 0,
            failures: 2,
            ..
        }
    ));
    drop(client);
    drop(connector);
    listener.join().unwrap();
}

/// The `tests/wire.rs` corruption harness pointed at a live session: 256
/// seeded single-byte corruptions of a valid request payload, plus
/// foreign magic and a wrong format version. Every one gets a decodable
/// response frame back on the same connection — usually a typed `Error`,
/// occasionally a legitimate response when the flip lands on a value byte
/// — and the session keeps answering valid requests afterwards. Well-formed
/// submissions with out-of-range ATPG or proposed-flow options get a typed
/// `Error` too.
#[test]
fn corrupted_request_payloads_get_typed_responses_and_never_wedge() {
    let server = Server::new(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let (transport, connector) = LocalTransport::new();
    let listener = server.spawn_listener(transport);
    let mut conn = connector.connect().unwrap();

    use scanpower_suite::serve::Connection;
    let valid = encode_message(&Request::PollJob(1));
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0de);
    for trial in 0..256 {
        let mut corrupted = valid.clone();
        let position = rng.gen_range(0..corrupted.len());
        let bit = rng.gen_range(0..8u32);
        corrupted[position] ^= 1 << bit;
        conn.send_frame(&corrupted).unwrap();
        let reply = conn
            .recv_frame()
            .unwrap()
            .unwrap_or_else(|| panic!("trial {trial}: session ended"));
        decode_message::<Response>(&reply)
            .unwrap_or_else(|error| panic!("trial {trial}: undecodable response: {error}"));
    }

    // Foreign magic and an unsupported version are typed errors.
    let mut foreign = valid.clone();
    foreign[..4].copy_from_slice(b"XXXX");
    conn.send_frame(&foreign).unwrap();
    let reply = conn.recv_frame().unwrap().unwrap();
    assert!(matches!(
        decode_message::<Response>(&reply).unwrap(),
        Response::Error { .. }
    ));
    let mut future = valid.clone();
    future[4..6].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
    conn.send_frame(&future).unwrap();
    let reply = conn.recv_frame().unwrap().unwrap();
    let Response::Error { message } = decode_message::<Response>(&reply).unwrap() else {
        panic!("wrong version must be a typed error");
    };
    assert!(message.contains("version"), "got: {message}");
    assert_eq!(&valid[..4], &WIRE_MAGIC, "sanity: envelope layout");

    // Well-formed submissions with unbounded ATPG options are typed
    // rejections: a 2^40-pattern random block must never reach the
    // allocator, and a NaN coverage target must never reach the flow.
    let mut oversized_block = options(1, true);
    oversized_block.atpg.random_block_size = 1 << 40;
    let mut nan_target = options(1, true);
    nan_target.atpg.target_coverage = f64::NAN;
    for (case, opts) in [("oversized block", oversized_block), ("NaN", nan_target)] {
        let submit = Request::SubmitJob(Box::new(JobSpec {
            circuits: sources(&[0]),
            options: opts,
        }));
        conn.send_frame(&encode_message(&submit)).unwrap();
        let reply = conn.recv_frame().unwrap().unwrap();
        let Response::Error { message } = decode_message::<Response>(&reply).unwrap() else {
            panic!("{case}: an unbounded ATPG option must be a typed error");
        };
        assert!(message.contains("ATPG"), "{case}: got {message}");
    }

    // The same for unbounded proposed-flow options: zero sample blocks must
    // never reach the observability pass, 2^40 of them never the driver,
    // and a mux fraction outside finite [0, 1] never the MUX plan.
    let proposed_cases: [(&str, Option<usize>, Option<f64>); 5] = [
        ("zero sample blocks", Some(0), None),
        ("2^40 sample blocks", Some(1 << 40), None),
        ("NaN mux fraction", None, Some(f64::NAN)),
        ("infinite mux fraction", None, Some(f64::INFINITY)),
        ("mux fraction above 1", None, Some(1.5)),
    ];
    for (case, sampled_observability, mux_fraction) in proposed_cases {
        let mut opts = options(1, true);
        opts.proposed.sampled_observability = sampled_observability;
        opts.proposed.mux_fraction = mux_fraction;
        let submit = Request::SubmitJob(Box::new(JobSpec {
            circuits: sources(&[0]),
            options: opts,
        }));
        conn.send_frame(&encode_message(&submit)).unwrap();
        let reply = conn.recv_frame().unwrap().unwrap();
        let Response::Error { message } = decode_message::<Response>(&reply).unwrap() else {
            panic!("{case}: an unbounded proposed-flow option must be a typed error");
        };
        assert!(message.contains("proposed"), "{case}: got {message}");
    }

    // The session still works.
    conn.send_frame(&valid).unwrap();
    let reply = conn.recv_frame().unwrap().unwrap();
    assert!(matches!(
        decode_message::<Response>(&reply).unwrap(),
        Response::JobStatus {
            job: 1,
            state: JobState::Unknown,
            ..
        }
    ));
    drop(conn);
    drop(connector);
    listener.join().unwrap();
}

/// Broken *framing* (as opposed to a corrupted payload inside a valid
/// frame) ends that session cleanly — and only that session: the server
/// keeps accepting and serving fresh connections.
#[test]
fn broken_framing_ends_the_session_but_not_the_server() {
    use std::io::Write;

    let server = Server::new(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let (transport, connector) = LocalTransport::new();
    let listener = server.spawn_listener(transport);

    // A frame announcing 100 bytes, delivering 3, then closing.
    let mut truncated = connector.connect_raw().unwrap();
    truncated.write_all(&100u32.to_le_bytes()).unwrap();
    truncated.write_all(&[1, 2, 3]).unwrap();
    drop(truncated);

    // A length prefix over the frame ceiling.
    let mut oversized = connector.connect_raw().unwrap();
    oversized.write_all(&u32::MAX.to_le_bytes()).unwrap();
    drop(oversized);

    // The server survives both: a fresh connection is fully served.
    let mut client = ServeClient::new(connector.connect().unwrap());
    assert!(matches!(
        client.request(&Request::PollJob(9)).unwrap(),
        Response::JobStatus {
            job: 9,
            state: JobState::Unknown,
            ..
        }
    ));
    drop(client);
    drop(connector);
    listener.join().unwrap();
}
