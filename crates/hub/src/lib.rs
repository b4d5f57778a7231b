//! # cla-hub — multi-tenant networked serving
//!
//! One `cla-serve` [`Session`](cla_serve::Session) answers queries for one
//! codebase over one Unix socket. This crate is the production shape the
//! paper implies — the CLA database as a *server-side* artifact shared by
//! many consumers: a TCP front end multiplexing many named sessions, each
//! an independent codebase/snapshot pair, behind a size-capped LRU of
//! resident sealed graphs.
//!
//! ## Wire protocol
//!
//! Newline-delimited JSON, the same dialect as `cla-serve` plus a
//! `session` field. Requests pipeline: a client may write many lines and
//! read the replies back in order. Session-scoped commands (`points-to`,
//! `alias`, `depend`, `stats`, `health`, `reload`, `profile`) are routed
//! to the named tenant and answered by [`cla_serve::handle_request`]
//! verbatim, with `"session"` echoed into the reply. On top of those:
//!
//! | request | reply |
//! |---|---|
//! | `{"cmd":"open","session":S,"files":[P,…][,"include":[D,…]][,"lenient":B][,"snapshot_dir":D][,"jobs":N]}` | `{"ok":true,"session":S,"epoch":N,"snapshot_loaded":B}` |
//! | `{"cmd":"open","session":S,"object":P[,"snapshot_dir":D]}` | same |
//! | `{"cmd":"close","session":S}` | `{"ok":true,"session":S,"closed":true}` |
//! | `{"cmd":"sessions"}` | `{"ok":true,"capacity":N,"resident":N,"sessions":[{"session":S,"state":"resident"\|"evicted"\|"rebuilding","epoch":N,…},…]}` |
//! | `{"cmd":"metrics"}` | `{"ok":true,"metrics":"…"}` — global exposition with per-tenant series |
//! | `{"cmd":"shutdown"}` | `{"ok":true,"sessions":N}`, then the hub stops accepting |
//!
//! ## Residency, fairness, and isolation
//!
//! - **LRU + rehydration** ([`Hub`]): at most `capacity` sessions keep
//!   their sealed graph in memory. A request for an evicted tenant
//!   rebuilds it on demand; with a snapshot directory attached, the
//!   `.clasnap` provenance check turns that rebuild into a ~ms warm start
//!   instead of a re-solve. Eviction just drops the resident `Arc` — the
//!   snapshot on disk was refreshed at build/reload time, and in-flight
//!   queries keep the old graph alive until they finish.
//! - **Per-epoch identity**: a session's `epoch` stays monotonic across
//!   evict/rehydrate cycles ([`cla_serve::Session::set_epoch`]), so
//!   `(session, epoch)` names exactly one graph — the property the
//!   stress-test oracle checks answers against.
//! - **Admission**: each tenant admits at most `max_inflight` concurrent
//!   requests; past that the hub answers a typed `session busy` error
//!   immediately instead of queueing without bound.
//! - **Rebuild queue**: rebuilds and rehydrations across all tenants
//!   share `rebuild_slots` permits, so a stampede of cold tenants (or one
//!   tenant's expensive recompile) cannot occupy every worker thread
//!   while resident tenants keep answering.
//! - **DoS limits**: the hub runs on the Unix-socket server's accept loop
//!   ([`cla_serve::Listener`]) over a TCP endpoint, inheriting the same
//!   idle-timeout and request-size hardening.

mod registry;
mod server;

pub use cla_serve::{SessionSource, SessionSpec};
pub use registry::{Hub, HubError, HubOptions, SessionInfo, TenantCounters};
pub use server::{dispatch, hub_serve, HubHandle};
