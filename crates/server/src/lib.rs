//! lobd — the large-object daemon.
//!
//! The paper's large-object interface is a library; this crate makes it a
//! *server*: one shared storage stack ([`pglo_heap::StorageEnv`] +
//! [`pglo_core::LoStore`] + [`pglo_inversion::InversionFs`]) behind a
//! compact length-prefixed binary protocol, serving many concurrent
//! clients whose transactions the server owns per connection.
//!
//! Layering, bottom up:
//!
//! * [`proto`] — pure codec: the one frame encoder and decoder, opcodes,
//!   error codes, payload encodings. No I/O policy.
//! * [`session`] — per-connection state: the session transaction,
//!   descriptor table ([`pglo_core::LoCursor`]s), temp-object registry.
//! * [`service`] — dispatch: `(opcode, payload)` in, `(status, payload)`
//!   out, against the shared stack. Panic-proof.
//! * [`server`] + `worker` + `reactor` (private) — the TCP front end:
//!   worker threads that each own their connections' sockets over a
//!   readiness loop (shims/epoll) and run every frame to completion, an
//!   acceptor thread dealing them connections, graceful drain.
//! * [`client`] — the typed client, generic over the transport:
//!   [`Pipeline`] enqueues requests and redeems [`Ticket`]s, and every
//!   sequential method is a window of one over it.
//! * [`loopback`] — the same protocol over an in-memory pipe.
//!
//! See DESIGN.md ("The lobd wire protocol", "Reactor model") for the
//! normative spec.

pub mod client;
pub mod loopback;
pub mod proto;
mod reactor;
pub mod server;
pub mod service;
pub mod session;
pub mod stats;
mod worker;

pub use client::{Client, ClientError, Entry, LoHandle, Pipeline, Stat, Ticket};
pub use proto::{ErrorCode, Opcode, WireSpec, MAX_FRAME, MAX_IO};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use service::LobdService;
pub use session::Session;
