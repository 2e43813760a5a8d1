//! The SPWR job-service messages and their frozen wire encoding.
//!
//! Every request and response travels as a complete
//! [`encode_message`](scanpower_wire::encode_message) envelope (magic +
//! format version + canonical bytes) inside one
//! length-prefixed transport frame. Variant discriminants are **frozen**:
//! they are part of the protocol and must never be renumbered — new
//! variants append new tags. The pinning tests at the bottom of this
//! module fail on any accidental renumbering.
//!
//! | message | tag |
//! |---|---|
//! | [`Request::SubmitJob`] | 1 |
//! | [`Request::PollJob`] | 2 |
//! | [`Request::CancelJob`] | 3 |
//! | [`Response::JobAccepted`] | 1 |
//! | [`Response::Busy`] | 2 |
//! | [`Response::RowReady`] | 3 |
//! | [`Response::JobDone`] | 4 |
//! | [`Response::JobFailed`] | 5 |
//! | [`Response::JobStatus`] | 6 |
//! | [`Response::CancelAck`] | 7 |
//! | [`Response::Error`] | 8 |
//! | [`CircuitSource::Family`] | 1 |
//! | [`CircuitSource::Snapshot`] | 2 |
//! | [`RowOutcome::Row`] | 1 |
//! | [`RowOutcome::Failed`] | 2 |
//! | [`JobState`] | `Unknown`=0 `Queued`=1 `Running`=2 `Done`=3 `Failed`=4 |

use scanpower_core::experiment::{CircuitRow, ExperimentOptions};
use scanpower_netlist::generator::CircuitFamily;
use scanpower_wire::{Wire, WireError, WireReader, WireWriter};

/// Server-assigned job identifier, unique within one server's lifetime.
pub type JobId = u64;

/// One circuit of a job, in either of the two submission forms.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSource {
    /// Tag 1: a generator spec — the server materialises
    /// `spec.scaled(scale).generate(seed)` exactly like the local harness,
    /// so a submitted spec and a local run produce the same netlist.
    Family {
        /// The published size statistics to generate from.
        spec: CircuitFamily,
        /// Optional size scaling applied before generation.
        scale: Option<f64>,
        /// Generation seed.
        seed: u64,
    },
    /// Tag 2: a complete canonical netlist snapshot — the bytes of an
    /// [`encode_message`](scanpower_wire::encode_message)`::<Netlist>`
    /// message. The server decodes and re-validates the netlist before
    /// accepting the job.
    Snapshot {
        /// The snapshot message bytes.
        bytes: Vec<u8>,
    },
}

impl Wire for CircuitSource {
    fn encode_into(&self, writer: &mut WireWriter) {
        match self {
            CircuitSource::Family { spec, scale, seed } => {
                writer.write_u8(1);
                spec.encode_into(writer);
                scale.encode_into(writer);
                seed.encode_into(writer);
            }
            CircuitSource::Snapshot { bytes } => {
                writer.write_u8(2);
                writer.write_bytes(bytes);
            }
        }
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.read_u8()? {
            1 => Ok(CircuitSource::Family {
                spec: CircuitFamily::decode_from(reader)?,
                scale: Option::<f64>::decode_from(reader)?,
                seed: u64::decode_from(reader)?,
            }),
            2 => Ok(CircuitSource::Snapshot {
                bytes: reader.read_bytes()?.to_vec(),
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "CircuitSource",
                tag,
            }),
        }
    }
}

/// A complete job submission: the circuits to run and the experiment
/// options. Only the *semantic* options matter for the result bytes — the
/// server overrides `result_cache` with its own shared cache, and the
/// bit-identity knobs (`threads`, `packed_replay`) are free to differ
/// between submissions without changing the returned rows. The options
/// carry no replay cross-check switch, so a client cannot ask for a
/// slower reference replay.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The circuits, one result row each, delivered in this order.
    pub circuits: Vec<CircuitSource>,
    /// Harness options applied to every circuit of the job.
    pub options: ExperimentOptions,
}

impl Wire for JobSpec {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.circuits.encode_into(writer);
        self.options.encode_into(writer);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(JobSpec {
            circuits: Vec::<CircuitSource>::decode_from(reader)?,
            options: ExperimentOptions::decode_from(reader)?,
        })
    }
}

/// Client-to-server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Tag 1: submit a job. Answered with [`Response::JobAccepted`],
    /// [`Response::Busy`] (queue full) or [`Response::Error`] (rejected).
    /// Boxed: a `JobSpec` dwarfs the other variants' job ids.
    SubmitJob(Box<JobSpec>),
    /// Tag 2: poll a job. Answered with the job's next pending event
    /// ([`Response::RowReady`], [`Response::JobDone`],
    /// [`Response::JobFailed`] — each delivered exactly once) or a
    /// [`Response::JobStatus`] snapshot when nothing new is pending.
    PollJob(JobId),
    /// Tag 3: cancel a job. Trips the job's cancellation parent — every
    /// in-flight circuit winds down at its next replay-block checkpoint —
    /// and is answered with [`Response::CancelAck`].
    CancelJob(JobId),
}

impl Wire for Request {
    fn encode_into(&self, writer: &mut WireWriter) {
        match self {
            Request::SubmitJob(spec) => {
                writer.write_u8(1);
                spec.encode_into(writer);
            }
            Request::PollJob(job) => {
                writer.write_u8(2);
                job.encode_into(writer);
            }
            Request::CancelJob(job) => {
                writer.write_u8(3);
                job.encode_into(writer);
            }
        }
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.read_u8()? {
            1 => Ok(Request::SubmitJob(Box::new(JobSpec::decode_from(reader)?))),
            2 => Ok(Request::PollJob(JobId::decode_from(reader)?)),
            3 => Ok(Request::CancelJob(JobId::decode_from(reader)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "Request",
                tag,
            }),
        }
    }
}

/// One circuit's final outcome inside a [`Response::RowReady`] frame.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOutcome {
    /// Tag 1: the circuit's Table I row — bit-identical to a local run.
    Row(CircuitRow),
    /// Tag 2: the circuit failed; `message` is the deterministic
    /// `ExperimentError` display (which names the circuit).
    Failed {
        /// The error's display rendering.
        message: String,
    },
}

impl Wire for RowOutcome {
    fn encode_into(&self, writer: &mut WireWriter) {
        match self {
            RowOutcome::Row(row) => {
                writer.write_u8(1);
                row.encode_into(writer);
            }
            RowOutcome::Failed { message } => {
                writer.write_u8(2);
                message.encode_into(writer);
            }
        }
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.read_u8()? {
            1 => Ok(RowOutcome::Row(CircuitRow::decode_from(reader)?)),
            2 => Ok(RowOutcome::Failed {
                message: String::decode_from(reader)?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "RowOutcome",
                tag,
            }),
        }
    }
}

/// Lifecycle state of a job, reported by [`Response::JobStatus`] and
/// [`Response::CancelAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Tag 0: the server knows no job under this id.
    Unknown,
    /// Tag 1: admitted, waiting in the bounded queue.
    Queued,
    /// Tag 2: a worker is running the circuit fan-out.
    Running,
    /// Tag 3: finished; every row event has been (or can be) polled.
    Done,
    /// Tag 4: the job's worker failed catastrophically (isolated panic
    /// outside the per-circuit supervision).
    Failed,
}

impl Wire for JobState {
    fn encode_into(&self, writer: &mut WireWriter) {
        writer.write_u8(match self {
            JobState::Unknown => 0,
            JobState::Queued => 1,
            JobState::Running => 2,
            JobState::Done => 3,
            JobState::Failed => 4,
        });
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.read_u8()? {
            0 => Ok(JobState::Unknown),
            1 => Ok(JobState::Queued),
            2 => Ok(JobState::Running),
            3 => Ok(JobState::Done),
            4 => Ok(JobState::Failed),
            tag => Err(WireError::InvalidTag {
                type_name: "JobState",
                tag,
            }),
        }
    }
}

/// Server-to-client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Tag 1: the job was admitted under `job`.
    JobAccepted {
        /// The assigned job id.
        job: JobId,
    },
    /// Tag 2: backpressure — the bounded queue is full; resubmit later.
    Busy {
        /// Jobs currently queued.
        queued: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// Tag 3: circuit `index` of `job` completed; delivered in spec order,
    /// exactly once per slot.
    RowReady {
        /// The job the row belongs to.
        job: JobId,
        /// The circuit's slot in the submitted order.
        index: usize,
        /// The circuit's row or its deterministic failure.
        outcome: RowOutcome,
    },
    /// Tag 4: every circuit of `job` finished (possibly with per-circuit
    /// failures); follows the last [`Response::RowReady`].
    JobDone {
        /// The finished job.
        job: JobId,
        /// Circuits that produced a row.
        rows: usize,
        /// Circuits that failed.
        failures: usize,
        /// Row-level result-cache hits this job was served by.
        cache_hits: u64,
    },
    /// Tag 5: the job's worker failed as a whole; no further events.
    JobFailed {
        /// The failed job.
        job: JobId,
        /// The failure's display rendering.
        message: String,
    },
    /// Tag 6: a poll found no pending event; a snapshot of the job.
    JobStatus {
        /// The polled job id (echoed even when unknown).
        job: JobId,
        /// Lifecycle state.
        state: JobState,
        /// Circuits completed so far.
        completed: usize,
        /// Circuits in the job.
        total: usize,
    },
    /// Tag 7: acknowledgement of [`Request::CancelJob`].
    CancelAck {
        /// The canceled job id (echoed even when unknown).
        job: JobId,
        /// The job's state when the cancel was applied.
        state: JobState,
    },
    /// Tag 8: the request could not be served — an undecodable frame, a
    /// rejected submission or an injected fault. The session stays usable.
    Error {
        /// Deterministic description of the refusal.
        message: String,
    },
}

impl Wire for Response {
    fn encode_into(&self, writer: &mut WireWriter) {
        match self {
            Response::JobAccepted { job } => {
                writer.write_u8(1);
                job.encode_into(writer);
            }
            Response::Busy { queued, capacity } => {
                writer.write_u8(2);
                queued.encode_into(writer);
                capacity.encode_into(writer);
            }
            Response::RowReady {
                job,
                index,
                outcome,
            } => {
                writer.write_u8(3);
                job.encode_into(writer);
                index.encode_into(writer);
                outcome.encode_into(writer);
            }
            Response::JobDone {
                job,
                rows,
                failures,
                cache_hits,
            } => {
                writer.write_u8(4);
                job.encode_into(writer);
                rows.encode_into(writer);
                failures.encode_into(writer);
                cache_hits.encode_into(writer);
            }
            Response::JobFailed { job, message } => {
                writer.write_u8(5);
                job.encode_into(writer);
                message.encode_into(writer);
            }
            Response::JobStatus {
                job,
                state,
                completed,
                total,
            } => {
                writer.write_u8(6);
                job.encode_into(writer);
                state.encode_into(writer);
                completed.encode_into(writer);
                total.encode_into(writer);
            }
            Response::CancelAck { job, state } => {
                writer.write_u8(7);
                job.encode_into(writer);
                state.encode_into(writer);
            }
            Response::Error { message } => {
                writer.write_u8(8);
                message.encode_into(writer);
            }
        }
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.read_u8()? {
            1 => Ok(Response::JobAccepted {
                job: JobId::decode_from(reader)?,
            }),
            2 => Ok(Response::Busy {
                queued: usize::decode_from(reader)?,
                capacity: usize::decode_from(reader)?,
            }),
            3 => Ok(Response::RowReady {
                job: JobId::decode_from(reader)?,
                index: usize::decode_from(reader)?,
                outcome: RowOutcome::decode_from(reader)?,
            }),
            4 => Ok(Response::JobDone {
                job: JobId::decode_from(reader)?,
                rows: usize::decode_from(reader)?,
                failures: usize::decode_from(reader)?,
                cache_hits: u64::decode_from(reader)?,
            }),
            5 => Ok(Response::JobFailed {
                job: JobId::decode_from(reader)?,
                message: String::decode_from(reader)?,
            }),
            6 => Ok(Response::JobStatus {
                job: JobId::decode_from(reader)?,
                state: JobState::decode_from(reader)?,
                completed: usize::decode_from(reader)?,
                total: usize::decode_from(reader)?,
            }),
            7 => Ok(Response::CancelAck {
                job: JobId::decode_from(reader)?,
                state: JobState::decode_from(reader)?,
            }),
            8 => Ok(Response::Error {
                message: String::decode_from(reader)?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "Response",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_wire::{decode_message, encode_message, WIRE_MAGIC};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_message(&value);
        assert_eq!(decode_message::<T>(&bytes).unwrap(), value);
    }

    fn spec() -> JobSpec {
        JobSpec {
            circuits: vec![
                CircuitSource::Family {
                    spec: CircuitFamily::iscas89_like("s344").unwrap(),
                    scale: Some(0.3),
                    seed: 1,
                },
                CircuitSource::Snapshot {
                    bytes: vec![1, 2, 3],
                },
            ],
            options: ExperimentOptions::fast(),
        }
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request::SubmitJob(Box::new(spec())));
        round_trip(Request::PollJob(7));
        round_trip(Request::CancelJob(u64::MAX));
    }

    #[test]
    fn responses_round_trip() {
        round_trip(Response::JobAccepted { job: 1 });
        round_trip(Response::Busy {
            queued: 4,
            capacity: 4,
        });
        round_trip(Response::RowReady {
            job: 1,
            index: 2,
            outcome: RowOutcome::Failed {
                message: "`s344`: job canceled (cancellation flag tripped or deadline exceeded)"
                    .into(),
            },
        });
        round_trip(Response::JobDone {
            job: 1,
            rows: 3,
            failures: 1,
            cache_hits: 2,
        });
        round_trip(Response::JobFailed {
            job: 1,
            message: "worker panicked".into(),
        });
        round_trip(Response::JobStatus {
            job: 9,
            state: JobState::Running,
            completed: 1,
            total: 3,
        });
        round_trip(Response::CancelAck {
            job: 9,
            state: JobState::Queued,
        });
        round_trip(Response::Error {
            message: "bad request frame".into(),
        });
    }

    /// The first payload byte after the 6-byte envelope is the variant
    /// tag; these values are frozen protocol, not implementation detail.
    #[test]
    fn discriminants_are_frozen() {
        const TAG: usize = WIRE_MAGIC.len() + 2;
        let tag_of = |bytes: &[u8]| bytes[TAG];
        assert_eq!(
            tag_of(&encode_message(&Request::SubmitJob(Box::new(spec())))),
            1
        );
        assert_eq!(tag_of(&encode_message(&Request::PollJob(0))), 2);
        assert_eq!(tag_of(&encode_message(&Request::CancelJob(0))), 3);
        assert_eq!(
            tag_of(&encode_message(&Response::JobAccepted { job: 0 })),
            1
        );
        assert_eq!(
            tag_of(&encode_message(&Response::Busy {
                queued: 0,
                capacity: 0
            })),
            2
        );
        assert_eq!(
            tag_of(&encode_message(&Response::RowReady {
                job: 0,
                index: 0,
                outcome: RowOutcome::Failed { message: "".into() },
            })),
            3
        );
        assert_eq!(
            tag_of(&encode_message(&Response::JobDone {
                job: 0,
                rows: 0,
                failures: 0,
                cache_hits: 0,
            })),
            4
        );
        assert_eq!(
            tag_of(&encode_message(&Response::JobFailed {
                job: 0,
                message: "".into()
            })),
            5
        );
        assert_eq!(
            tag_of(&encode_message(&Response::JobStatus {
                job: 0,
                state: JobState::Unknown,
                completed: 0,
                total: 0,
            })),
            6
        );
        assert_eq!(
            tag_of(&encode_message(&Response::CancelAck {
                job: 0,
                state: JobState::Unknown,
            })),
            7
        );
        assert_eq!(
            tag_of(&encode_message(&Response::Error { message: "".into() })),
            8
        );
        // Nested enums, through their owning messages.
        let family = encode_message(&CircuitSource::Family {
            spec: CircuitFamily::iscas89_like("s27").unwrap(),
            scale: None,
            seed: 0,
        });
        assert_eq!(tag_of(&family), 1);
        let snapshot = encode_message(&CircuitSource::Snapshot { bytes: vec![] });
        assert_eq!(tag_of(&snapshot), 2);
        let failed = encode_message(&RowOutcome::Failed { message: "".into() });
        assert_eq!(tag_of(&failed), 2);
        for (state, tag) in [
            (JobState::Unknown, 0),
            (JobState::Queued, 1),
            (JobState::Running, 2),
            (JobState::Done, 3),
            (JobState::Failed, 4),
        ] {
            assert_eq!(tag_of(&encode_message(&state)), tag);
        }
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        let mut writer = WireWriter::new();
        writer.write_raw(&WIRE_MAGIC);
        writer.write_u16(scanpower_wire::WIRE_VERSION);
        writer.write_u8(99);
        let bytes = writer.into_bytes();
        assert!(matches!(
            decode_message::<Request>(&bytes),
            Err(WireError::InvalidTag {
                type_name: "Request",
                tag: 99
            })
        ));
        assert!(matches!(
            decode_message::<Response>(&bytes),
            Err(WireError::InvalidTag {
                type_name: "Response",
                tag: 99
            })
        ));
    }
}
