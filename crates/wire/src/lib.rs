//! Canonical, versioned binary encoding for the `scanpower` workspace.
//!
//! Three ROADMAP items — the service front-end, content-addressed result
//! caching and binary netlist snapshots — all need the same missing piece: a
//! *canonical* byte representation of the core types. This crate provides it
//! once, so every layer encodes the same value to the same bytes:
//!
//! * [`Wire`] — the encode/decode trait every shareable type implements.
//!   Encoding is infallible (it appends to a growable buffer); decoding
//!   returns a typed [`WireError`].
//! * [`WireWriter`] / [`WireReader`] — the byte-level primitives, in the
//!   style of naia's `BitWriter`/`BitReader`: fixed-width
//!   little-endian integers, `f64::to_bits()` for byte-stable floats, and
//!   length-prefixed collections.
//! * [`encode_message`] / [`decode_message`] — the versioned envelope
//!   (magic + format version) used by every top-level artifact: netlist
//!   snapshots, cached results and — later — service requests/responses.
//! * [`ContentHasher`] — the streaming FNV-1a 128-bit hash over canonical
//!   bytes that content-addressed storage keys on.
//!
//! # Canonical means deterministic
//!
//! The encoding has **one** byte representation per value: no field
//! reordering, no optional compression, no platform-dependent widths
//! (`usize` travels as `u64`) and no float formatting (`f64` travels as its
//! IEEE-754 bit pattern). Two values compare equal if and only if their
//! canonical bytes compare equal, which is what makes the bytes safe to
//! hash for content addressing.
//!
//! # Examples
//!
//! ```
//! use scanpower_wire::{decode_message, encode_message, Wire, WireReader, WireWriter};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point { x: f64, y: f64 }
//!
//! impl Wire for Point {
//!     fn encode_into(&self, writer: &mut WireWriter) {
//!         self.x.encode_into(writer);
//!         self.y.encode_into(writer);
//!     }
//!     fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, scanpower_wire::WireError> {
//!         Ok(Point { x: f64::decode_from(reader)?, y: f64::decode_from(reader)? })
//!     }
//! }
//!
//! let p = Point { x: 1.5, y: -0.0 };
//! let bytes = encode_message(&p);
//! assert_eq!(decode_message::<Point>(&bytes).unwrap(), p);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hash;
mod reader;
mod wire;
mod writer;

pub use error::WireError;
pub use hash::{hash_parts, ContentHasher};
pub use reader::WireReader;
pub use wire::{decode_message, encode_message, Wire, WIRE_MAGIC, WIRE_VERSION};
pub use writer::WireWriter;
