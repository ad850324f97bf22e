//! # gaplan-net
//!
//! TCP front-end and traffic harness for the gaplan planning service.
//!
//! The service crate's session layer ([`gaplan_service::session`]) is
//! transport-agnostic; this crate supplies the network transport:
//!
//! - [`codec`] — newline-delimited framing with a hard per-frame byte cap,
//!   incremental over-cap discard, and panic-free rejection of malformed
//!   input.
//! - [`server`] — [`TcpServer`], a zero-dependency thread-per-connection
//!   listener wiring [`FrameReader`] → session → per-connection writer,
//!   with write-backpressure feeding admission shedding and singleflight
//!   request coalescing shared across connections.
//! - [`loadgen`] — a closed- or open-loop load generator
//!   ([`loadgen::run`]) whose every connection runs one paced loop over a
//!   [`ResilientClient`], driving skewed-key traffic (optionally through a
//!   [`ChaosProxy`]) and reporting throughput, latency quantiles and the
//!   nested client/proxy counters.
//! - [`chaos`] — [`ChaosProxy`], a seeded fault-injecting TCP proxy
//!   (resets, refusals, latency, throttling, partial writes, mid-frame
//!   cuts) for wire-level chaos testing.
//! - [`client`] — [`ResilientClient`], a reconnecting client with
//!   exponential backoff, idempotent retry keyed on request id, optional
//!   hedged requests, and a per-endpoint circuit breaker.
//!
//! The same JSON-lines wire protocol the stdin loop speaks works verbatim
//! over TCP; `nc localhost 4500` is a usable client.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod codec;
pub mod loadgen;
pub mod server;

pub use chaos::{ChaosConfig, ChaosProxy, ProxyStatsSnapshot};
pub use client::{BackoffPolicy, CircuitBreaker, ClientConfig, ClientStats, HedgeMode, ResilientClient};
pub use codec::{write_frame, Frame, FrameError, FrameReader, DEFAULT_MAX_FRAME};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use server::{NetOptions, TcpServer};
