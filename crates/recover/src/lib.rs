//! Crash-safe checkpoint/resume primitives for the GE scheduling workspace.
//!
//! This crate is intentionally dependency-free (std only) so the workspace
//! stays fully offline. It provides five building blocks:
//!
//! - [`codec`]: a hand-rolled, length-prefixed binary codec with typed
//!   decode errors. Floats are encoded via their IEEE-754 bit patterns so
//!   round-tripping is bit-exact.
//! - [`persist`]: the [`Persist`] trait and the [`persist!`] declaration
//!   that lists a type's checkpointed fields once, in wire order, and
//!   derives both directions of the codec from that list.
//! - [`checkpoint`]: a versioned, checksummed envelope around a codec
//!   payload, plus load/store helpers with typed errors (never panics on
//!   corrupt input).
//! - [`atomic`]: write-to-temp + fsync + rename file writes, whole or
//!   streamed, so readers never observe a torn artifact.
//! - [`supervisor`]: run a fallible/panicky/slow unit of work with panic
//!   isolation, a wall-clock timeout, and capped-exponential-backoff
//!   retries, reporting a machine-readable outcome.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod atomic;
pub mod checkpoint;
pub mod codec;
pub mod persist;
pub mod supervisor;

pub use atomic::{write_atomic, AtomicFile};
pub use checkpoint::{load_checkpoint, store_checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use codec::{CodecError, Decoder, Encoder};
pub use persist::Persist;
pub use supervisor::{supervise, CellOutcome, CellReport, RetryPolicy};
