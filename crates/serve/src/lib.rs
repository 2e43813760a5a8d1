//! Job-service front-end for the scan-power experiment pipeline.
//!
//! The ROADMAP's first open item: wrap the one-circuit-per-job
//! [`run_table1`](scanpower_core::experiment::run_table1) fan-out behind
//! a binary protocol so the harness can serve traffic instead of running
//! batch-style. Three layers, smallest useful surface each:
//!
//! * [`protocol`] — the request/response messages on the canonical
//!   `SPWR` wire encoding, with **frozen** variant discriminants.
//! * [`transport`] — length-prefixed frames over a tiny [`Transport`] /
//!   [`Connection`] trait pair, with an in-process
//!   [`LocalTransport`] (deterministic, no sockets) and a
//!   [`TcpTransport`] (`std::net`) implementation.
//! * [`server`] / [`client`] — a bounded job queue with typed
//!   [`Busy`](protocol::Response::Busy) backpressure, supervised workers
//!   streaming per-circuit [`RowReady`](protocol::Response::RowReady)
//!   events in spec order, cache-before-replay row lookup, and
//!   cooperative [`CancelJob`](protocol::Request::CancelJob).
//!
//! The product guarantee: **identical submissions return bit-identical
//! rows** — regardless of worker count, arrival order, or which
//! transport carried them. `tests/serve.rs` pins it at the byte
//! level.
//!
//! # Example
//!
//! ```
//! use scanpower_core::experiment::ExperimentOptions;
//! use scanpower_netlist::generator::CircuitFamily;
//! use scanpower_serve::protocol::{CircuitSource, JobSpec, Response};
//! use scanpower_serve::transport::LocalTransport;
//! use scanpower_serve::{ServeClient, ServeConfig, Server};
//!
//! let server = Server::new(ServeConfig::default());
//! let (transport, connector) = LocalTransport::new();
//! let listener = server.spawn_listener(transport);
//!
//! let mut client = ServeClient::new(connector.connect()?);
//! let drained = client
//!     .run_job(&JobSpec {
//!         circuits: vec![CircuitSource::Family {
//!             spec: CircuitFamily::iscas89_like("s27")?,
//!             scale: None,
//!             seed: 1,
//!         }],
//!         options: ExperimentOptions::fast(),
//!     })
//!     .unwrap();
//! assert_eq!(drained.rows.len(), 1);
//! assert!(matches!(drained.end, Response::JobDone { rows: 1, .. }));
//!
//! drop(client);
//! drop(connector); // closes the local listener
//! listener.join().unwrap();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod transport;

pub use client::{ClientError, DrainedJob, RowEvent, ServeClient};
pub use protocol::{JobId, JobSpec, Request, Response};
pub use server::{ServeConfig, Server};
pub use transport::{
    Connection, LocalConnector, LocalTransport, StreamConnection, TcpShutdown, TcpTransport,
    Transport,
};
