//! `serve_tcp`: the job service over `TcpTransport` on loopback, driven
//! closed-loop from this process: `nproc` client connections, each waiting
//! for its job's rows before submitting the next, against `nproc` server
//! workers. TCP, not the in-process pipe, because the framing's small
//! writes only stall on a real socket.
//!
//! Jobs are one-circuit submissions of one size class (full-size s641 and
//! s713). Every third job is a fresh key (ATPG, replays and a cache insert
//! on the server); the other two repeat a key served during set-up (a cache
//! read). That is the mix of `examples/serve_demo.rs`, the repository's one
//! client, which submits a job cold and then twice warm; no recorded
//! traffic exists to take it from. Half of each kind send a netlist
//! snapshot instead of a generator spec. The split is fixed by the job
//! index, so the cache hit share does not drift with run length.
//!
//! The traced phase wraps each client connection in [`TracedConnection`],
//! which times and keeps every frame, so the real `ServeClient` runs
//! unchanged; wire decode and encode times come from replaying the kept
//! frames through `decode_message` and `encode_message`.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scanpower_suite::cache::CacheStats;
use scanpower_suite::core::experiment::{CircuitExperiment, CircuitRow, ExperimentOptions};
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::netlist::Netlist;
use scanpower_suite::serve::protocol::{CircuitSource, JobState, RowOutcome};
use scanpower_suite::serve::transport::{Connection, StreamConnection, TcpShutdown, TcpTransport};
use scanpower_suite::serve::{
    ClientError, DrainedJob, JobSpec, Request, Response, ServeClient, ServeConfig, Server,
};
use scanpower_suite::wire::{decode_message, encode_message, Wire};

use crate::common::{
    derive, nproc, record_env, record_simulated, row_is_sane, shift_cycles, Env, RunConfig,
};
use crate::report::Report;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{self, Tracer};

const CIRCUITS: [&str; 2] = ["s641", "s713"];
/// Keys served once in set-up; repeats draw from them.
const KEYS: u64 = 4;
/// Job `i` is fresh when `i % MIX == MIX - 1`, a repeat otherwise: one
/// cold submission to two warm ones, as in `serve_demo`.
const MIX: u64 = 3;
const PATTERNS: usize = 32;
const SETUP_REPS: usize = 3;
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Fresh rows cross-checked against a direct `CircuitExperiment::try_run`.
const DIRECT_SAMPLES: usize = 2;
/// Header of a `RowReady` frame before its `RowOutcome` bytes: magic (4),
/// version (2), tag (1), job id (8), slot index (8).
const ROW_HEADER: usize = 23;
/// Seed streams of the repeat keys and of the fresh jobs.
const KEY_STREAM: u64 = 1 << 62;
const FRESH_STREAM: u64 = 1 << 63;

fn options() -> ExperimentOptions {
    ExperimentOptions {
        max_patterns: Some(PATTERNS),
        threads: 1,
        ..ExperimentOptions::fast()
    }
}

/// One cache key: a circuit and the seed of its netlist.
#[derive(Debug, Clone)]
struct Key {
    spec: CircuitFamily,
    seed: u64,
}

impl Key {
    fn repeat(run_seed: u64, key: u64) -> Key {
        Key::new(
            (key % CIRCUITS.len() as u64) as usize,
            derive(run_seed, KEY_STREAM + key),
        )
    }

    fn fresh(run_seed: u64, job: u64) -> Key {
        let circuit = (job / MIX % CIRCUITS.len() as u64) as usize;
        Key::new(circuit, derive(run_seed, FRESH_STREAM + job))
    }

    fn new(circuit: usize, seed: u64) -> Key {
        Key {
            spec: CircuitFamily::iscas89_like(CIRCUITS[circuit]).expect("a Table I circuit"),
            seed,
        }
    }

    fn netlist(&self) -> Netlist {
        self.spec.generate(self.seed)
    }

    fn source(&self, snapshot: bool) -> CircuitSource {
        if snapshot {
            CircuitSource::Snapshot {
                bytes: encode_message(&self.netlist()),
            }
        } else {
            CircuitSource::Family {
                spec: self.spec.clone(),
                scale: None,
                seed: self.seed,
            }
        }
    }
}

/// What job `index` asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Repeat(u64),
    Fresh,
}

fn kind(run_seed: u64, index: u64) -> Kind {
    if index % MIX == MIX - 1 {
        Kind::Fresh
    } else {
        Kind::Repeat(derive(run_seed, index) % KEYS)
    }
}

/// Whether job `index` sends a netlist snapshot: every other repeat, and
/// every other fresh job of each circuit.
fn sends_snapshot(index: u64) -> bool {
    match index % MIX {
        fresh if fresh == MIX - 1 => (index / MIX / CIRCUITS.len() as u64).is_multiple_of(2),
        repeat => repeat.is_multiple_of(2),
    }
}

/// One frame crossing a traced connection.
#[derive(Debug)]
struct Frame {
    sent: bool,
    start: Instant,
    end: Instant,
    bytes: Vec<u8>,
}

type FrameLog = Arc<Mutex<Vec<Frame>>>;

/// A [`Connection`] that times `send_frame`/`recv_frame` and keeps every
/// frame.
struct TracedConnection<C> {
    inner: C,
    log: FrameLog,
}

impl<C: Connection> TracedConnection<C> {
    fn keep(&self, sent: bool, start: Instant, bytes: &[u8]) {
        let frame = Frame {
            sent,
            start,
            end: Instant::now(),
            bytes: bytes.to_vec(),
        };
        self.log.lock().expect("frame log poisoned").push(frame);
    }
}

impl<C: Connection> Connection for TracedConnection<C> {
    fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        self.inner.send_frame(frame)?;
        self.keep(true, start, frame);
        Ok(())
    }

    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let start = Instant::now();
        let frame = self.inner.recv_frame()?;
        if let Some(bytes) = &frame {
            self.keep(false, start, bytes);
        }
        Ok(frame)
    }
}

/// One finished job, as the client saw it.
struct Job {
    index: u64,
    kind: Kind,
    start: Instant,
    end: Instant,
    result: Result<DrainedJob, ClientError>,
    frames: Vec<Frame>,
}

impl Job {
    fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn row(&self) -> Option<(&[u8], &CircuitRow)> {
        served_row(&self.result)
    }
}

/// A one-circuit job's `RowOutcome` bytes and decoded row, when it
/// delivered its row and finished cleanly.
fn served_row(result: &Result<DrainedJob, ClientError>) -> Option<(&[u8], &CircuitRow)> {
    let drained = result.as_ref().ok()?;
    let clean = matches!(
        drained.end,
        Response::JobDone {
            rows: 1,
            failures: 0,
            ..
        }
    );
    match (drained.rows.as_slice(), clean) {
        ([event], true) => match &event.response {
            Response::RowReady {
                outcome: RowOutcome::Row(row),
                ..
            } => Some((event.frame.get(ROW_HEADER..)?, row)),
            _ => None,
        },
        _ => None,
    }
}

/// A running server behind a loopback TCP listener.
struct Service {
    server: Server,
    shutdown: TcpShutdown,
    listener: JoinHandle<()>,
    addr: SocketAddr,
}

impl Service {
    fn start(workers: usize, clients: usize) -> io::Result<Service> {
        let server = Server::new(ServeConfig {
            queue_capacity: clients,
            workers,
            default_deadline_ms: None,
        });
        let (transport, shutdown) = TcpTransport::bind("127.0.0.1:0")?;
        let addr = transport.local_addr()?;
        let listener = server.spawn_listener(transport);
        Ok(Service {
            server,
            shutdown,
            listener,
            addr,
        })
    }

    /// A client connection whose reads give up after [`REPLY_TIMEOUT`], so
    /// a stalled server fails the job instead of hanging the run.
    fn connect(&self) -> io::Result<StreamConnection<TcpStream>> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(StreamConnection::new(stream))
    }

    fn cache_stats(&self) -> CacheStats {
        self.server.cache().stats()
    }

    /// Stops the listener and the workers. Drop every client first: the
    /// listener waits for their sessions to end.
    fn stop(self) {
        self.shutdown.shutdown();
        if self.listener.join().is_err() {
            eprintln!("perfbench: the serve listener panicked");
        }
        drop(self.server);
    }
}

/// Runs jobs from the shared index counter on every client until `window`
/// has elapsed; each client waits for its job's rows before the next.
fn drive<C: Connection>(
    clients: &mut [(ServeClient<C>, Option<FrameLog>)],
    run_seed: u64,
    next: &AtomicU64,
    window: Duration,
) -> (Vec<Job>, f64) {
    let start = Instant::now();
    let mut jobs: Vec<Job> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|(client, log)| {
                scope.spawn(move || {
                    let mut jobs = Vec::new();
                    while start.elapsed() < window {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let kind = kind(run_seed, index);
                        let key = match kind {
                            Kind::Repeat(key) => Key::repeat(run_seed, key),
                            Kind::Fresh => Key::fresh(run_seed, index),
                        };
                        let spec = JobSpec {
                            circuits: vec![key.source(sends_snapshot(index))],
                            options: options(),
                        };
                        let job_start = Instant::now();
                        let result = client.run_job(&spec);
                        let end = Instant::now();
                        let frames = log.as_ref().map_or_else(Vec::new, |log| {
                            std::mem::take(&mut *log.lock().expect("frame log poisoned"))
                        });
                        jobs.push(Job {
                            index,
                            kind,
                            start: job_start,
                            end,
                            result,
                            frames,
                        });
                    }
                    jobs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("a client thread panicked"))
            .collect()
    });
    jobs.sort_by_key(|job| job.index);
    let elapsed = jobs
        .iter()
        .map(|job| job.end)
        .max()
        .map_or(0.0, |end| (end - start).as_secs_f64());
    (jobs, elapsed)
}

/// A started service with warm repeat keys: the reference outcome bytes
/// and rows of every key.
struct Warm {
    service: Service,
    connections: Vec<(ServeClient<StreamConnection<TcpStream>>, Option<FrameLog>)>,
    references: Vec<Option<(Vec<u8>, CircuitRow)>>,
}

fn set_up(run_seed: u64, workers: usize, clients: usize) -> io::Result<Warm> {
    let service = Service::start(workers, clients)?;
    let mut connections = Vec::new();
    for _ in 0..clients {
        connections.push((ServeClient::new(service.connect()?), None));
    }
    let mut references: Vec<Option<(Vec<u8>, CircuitRow)>> = vec![None; KEYS as usize];
    std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .enumerate()
            .map(|(c, (client, _))| {
                scope.spawn(move || {
                    (c as u64..KEYS)
                        .step_by(clients)
                        .map(|key| {
                            let spec = JobSpec {
                                circuits: vec![Key::repeat(run_seed, key).source(false)],
                                options: options(),
                            };
                            let result = client.run_job(&spec);
                            let reference = served_row(&result)
                                .map(|(bytes, row)| (bytes.to_vec(), row.clone()));
                            (key, reference)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (key, reference) in handle.join().expect("a set-up client panicked") {
                references[key as usize] = reference;
            }
        }
    });
    Ok(Warm {
        service,
        connections,
        references,
    })
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new();
    let workers = nproc();
    let clients = nproc();

    // Set-up, repeated: start the server, connect, serve every repeat key
    // once. Only the last repetition's server is kept.
    let mut setup_times = Vec::new();
    let mut warm: Option<Warm> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = warm.take() {
            drop(previous.connections);
            previous.service.stop();
        }
        let start = Instant::now();
        match set_up(cfg.seed, workers, clients) {
            Ok(ready) => warm = Some(ready),
            Err(error) => {
                report.fail_all(1, &format!("serve set-up failed: {error}"));
                return report;
            }
        }
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let Warm {
        service,
        connections: mut plain,
        references,
    } = warm.expect("at least one set-up repetition");
    for (key, reference) in references.iter().enumerate() {
        report.check(reference.is_some(), || {
            format!("set-up: key {key} was not served")
        });
    }
    let before = service.cache_stats();
    let next = AtomicU64::new(0);

    let (untraced, elapsed) = drive(&mut plain, cfg.seed, &next, cfg.phase_window());
    drop(plain);
    let mut traced = Vec::new();
    let tracer = cfg.trace.then(Tracer::new);
    if cfg.trace {
        let mut connections = Vec::new();
        for _ in 0..clients {
            let log = FrameLog::default();
            match service.connect() {
                Ok(inner) => connections.push((
                    ServeClient::new(TracedConnection {
                        inner,
                        log: Arc::clone(&log),
                    }),
                    Some(log),
                )),
                Err(error) => report.fail_all(1, &format!("traced connect failed: {error}")),
            }
        }
        traced = drive(&mut connections, cfg.seed, &next, cfg.phase_window()).0;
    }
    let after = service.cache_stats();
    service.stop();

    // Output checks: every job delivered one row; a repeat's bytes equal
    // the bytes its key was first served with.
    let job_ok = |job: &Job| match (job.kind, job.row()) {
        (Kind::Repeat(key), Some((bytes, _))) => references[key as usize]
            .as_ref()
            .is_some_and(|(reference, _)| reference == bytes),
        (Kind::Fresh, Some((_, row))) => {
            row_is_sane(row) && CIRCUITS.contains(&row.circuit.as_str())
        }
        (_, None) => false,
    };
    let mut direct_samples = Vec::new();
    for job in untraced.iter().chain(&traced) {
        if let (Kind::Fresh, Some((_, row))) = (job.kind, job.row()) {
            if direct_samples.len() < DIRECT_SAMPLES {
                direct_samples.push((Key::fresh(cfg.seed, job.index), row.clone()));
            }
        }
        report.check(job_ok(job), || match &job.result {
            Err(error) => format!("job {}: {error}", job.index),
            Ok(drained) => format!("job {}: unexpected outcome {:?}", job.index, drained.end),
        });
    }

    // The served rows equal direct runs of the same circuits.
    if let Some((_, row)) = &references[0] {
        direct_samples.push((Key::repeat(cfg.seed, 0), row.clone()));
    }
    let experiment = CircuitExperiment::new(options());
    for (key, served) in &direct_samples {
        let direct = experiment.try_run(&key.netlist());
        report.check(
            direct.is_ok_and(|row| row.to_wire_bytes() == served.to_wire_bytes()),
            || {
                format!(
                    "served row of {} differs from a direct run",
                    key.spec.name()
                )
            },
        );
    }

    // Cache hits, from the cache's own counters, against the planned split.
    let all: Vec<&Job> = untraced.iter().chain(&traced).collect();
    let planned_hits = all.iter().filter(|job| job.kind != Kind::Fresh).count() as u64;
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    report.check(hits == planned_hits, || {
        format!("cache hits {hits} differ from the {planned_hits} planned repeats")
    });

    let seconds: Vec<f64> = untraced.iter().map(Job::seconds).collect();
    // Only fresh rows were simulated in the window; repeats come from the
    // cache.
    let cycles: u64 = untraced
        .iter()
        .filter(|job| job.kind == Kind::Fresh)
        .filter_map(Job::row)
        .map(|(_, row)| shift_cycles(row))
        .sum();
    report.set("setup_s", median(&setup_times).expect("set-up ran"));
    report.set("pass_s", median(&seconds).unwrap_or(f64::NAN));
    report.set("jobs_per_s", untraced.len() as f64 / elapsed);
    report.set("shift_cycles_per_s", cycles as f64 / elapsed);
    let key_rows: Vec<CircuitRow> = references
        .iter()
        .flatten()
        .map(|(_, row)| row.clone())
        .collect();
    record_simulated(&mut report, &key_rows);
    // Latency percentiles pool both phases of a traced run, so that the
    // p90 has ten samples beyond it; the frame log adds microseconds to a
    // job of hundreds of milliseconds (see `trace.overhead_s`).
    let latency_ms = |hit: Option<bool>| -> Vec<f64> {
        all.iter()
            .filter(|job| hit.is_none_or(|hit| (job.kind != Kind::Fresh) == hit))
            .map(|job| job.seconds() * 1e3)
            .collect()
    };
    let all_ms = latency_ms(None);
    // The p90 is reported only when ten samples lie beyond it; it reads 0
    // otherwise.
    let tail = tail_percentile(all_ms.len());
    let p90_ms = match tail {
        Some(p) if p >= 90.0 => percentile(&all_ms, 90.0).unwrap_or(0.0),
        _ => 0.0,
    };
    report.env("transport", "tcp");
    report.env(
        "tail_percentile",
        tail.map_or("none".to_owned(), |p| p.to_string()),
    );
    report.set(
        "serve.hit_p50_ms",
        median(&latency_ms(Some(true))).unwrap_or(f64::NAN),
    );
    report.set(
        "serve.miss_p50_ms",
        median(&latency_ms(Some(false))).unwrap_or(f64::NAN),
    );
    report.set("serve.job_p90_ms", p90_ms);
    report.set(
        "serve.planned_hit_share",
        planned_hits as f64 / all.len().max(1) as f64,
    );
    report.set(
        "serve.observed_hit_share",
        hits as f64 / all.len().max(1) as f64,
    );
    report.set("cache.hits", hits as f64);
    report.set("cache.misses", misses as f64);
    report.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("cache.bytes", after.bytes as f64);
    record_env(
        &mut report,
        cfg,
        &Env {
            workers,
            clients,
            scale: 1.0,
            patterns: PATTERNS,
            samples: all_ms.len(),
            passes: traced.len(),
        },
    );

    if let Some(tracer) = tracer {
        record_transport(&mut report, &tracer, &traced);
        report.set(
            "trace.rows_match",
            f64::from(u8::from(traced.iter().all(job_ok))),
        );
        let traced_s: Vec<f64> = traced.iter().map(Job::seconds).collect();
        let untraced_s = median(&seconds).unwrap_or(f64::NAN);
        let traced_s = median(&traced_s).unwrap_or(f64::NAN);
        report.set("trace.untraced_pass_s", untraced_s);
        report.set("trace.traced_pass_s", traced_s);
        report.set("trace.overhead_s", traced_s - untraced_s);
        report.set_spans(tracer.spans());
    }
    report
}

/// Transport, serve and wire metrics from the traced jobs' frames, with one
/// span per job and one per round trip.
fn record_transport(report: &mut Report, tracer: &Tracer, jobs: &[Job]) {
    let mut rtt_ms = Vec::new();
    let mut submit_ms = Vec::new();
    let mut queue_wait_ms = Vec::new();
    let (mut requests, mut polls, mut empty_polls) = (0usize, 0usize, 0usize);
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    let (mut decode_s, mut encode_s) = (0.0, 0.0);
    let mut canonical = true;
    for job in jobs {
        let job_span = tracer.record("serve.job", None, job.index, job.start, job.end);
        let mut accepted: Option<Instant> = None;
        let mut waited = false;
        for pair in job.frames.chunks(2) {
            let [request, response] = pair else { continue };
            if !request.sent || response.sent {
                continue;
            }
            requests += 1;
            request_bytes += request.bytes.len();
            response_bytes += response.bytes.len();
            rtt_ms.push((response.end - request.start).as_secs_f64() * 1e3);

            let start = Instant::now();
            let decoded_request = decode_message::<Request>(&request.bytes);
            let decoded_response = decode_message::<Response>(&response.bytes);
            decode_s += start.elapsed().as_secs_f64();
            let (Ok(decoded_request), Ok(decoded_response)) = (decoded_request, decoded_response)
            else {
                canonical = false;
                continue;
            };
            let start = Instant::now();
            let reencoded = (
                encode_message(&decoded_request),
                encode_message(&decoded_response),
            );
            encode_s += start.elapsed().as_secs_f64();
            canonical &= reencoded.0 == request.bytes && reencoded.1 == response.bytes;

            let name = match decoded_request {
                Request::SubmitJob(_) => {
                    submit_ms.push((response.end - request.start).as_secs_f64() * 1e3);
                    accepted = Some(response.end);
                    "transport.submit"
                }
                _ => {
                    polls += 1;
                    let queued = matches!(
                        decoded_response,
                        Response::JobStatus {
                            state: JobState::Queued,
                            ..
                        }
                    );
                    if matches!(decoded_response, Response::JobStatus { .. }) {
                        empty_polls += 1;
                    }
                    if let (Some(accepted), false, false) = (accepted, queued, waited) {
                        queue_wait_ms.push((response.end - accepted).as_secs_f64() * 1e3);
                        waited = true;
                    }
                    "transport.poll"
                }
            };
            tracer.record(name, Some(job_span), job.index, request.start, response.end);
        }
    }
    report.check(canonical, || {
        "a traced frame did not re-encode to its own bytes".into()
    });
    let per_job = 1.0 / jobs.len().max(1) as f64;
    let spans = tracer.spans();
    let job_s = trace::busy(&spans, "serve.job");
    let stage_s = trace::children_busy(&spans, "serve.job");
    report.set("transport.round_trips", requests as f64 * per_job);
    report.set("transport.rtt_p50_ms", median(&rtt_ms).unwrap_or(0.0));
    report.set("serve.submit_ms", median(&submit_ms).unwrap_or(0.0));
    report.set("serve.queue_wait_ms", median(&queue_wait_ms).unwrap_or(0.0));
    report.set("serve.polls_per_job", polls as f64 * per_job);
    report.set(
        "serve.empty_poll_ratio",
        empty_polls as f64 / polls.max(1) as f64,
    );
    report.set("wire.encode_s", encode_s * per_job);
    report.set("wire.decode_s", decode_s * per_job);
    report.set("wire.request_bytes", request_bytes as f64 * per_job);
    report.set("wire.response_bytes", response_bytes as f64 * per_job);
    report.set("trace.stage_s", stage_s * per_job);
    report.set("trace.span_coverage", stage_s / job_s);
    report.set("trace.spans", spans.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_job_in_three_is_fresh_and_half_of_each_kind_send_snapshots() {
        let jobs = 12 * MIX;
        let fresh: Vec<u64> = (0..jobs).filter(|&i| kind(7, i) == Kind::Fresh).collect();
        let repeats: Vec<u64> = (0..jobs).filter(|&i| kind(7, i) != Kind::Fresh).collect();
        assert_eq!(fresh.len() as u64, jobs / MIX);
        let snapshots = |jobs: &[u64]| jobs.iter().filter(|&&i| sends_snapshot(i)).count();
        assert_eq!(snapshots(&fresh) * 2, fresh.len());
        assert_eq!(snapshots(&repeats) * 2, repeats.len());
        // Fresh jobs cover both circuits with both kinds of source.
        let mut combinations: Vec<(String, bool)> = fresh
            .iter()
            .map(|&i| (Key::fresh(7, i).spec.name().to_owned(), sends_snapshot(i)))
            .collect();
        combinations.sort();
        combinations.dedup();
        assert_eq!(combinations.len(), 2 * CIRCUITS.len());
    }
}
