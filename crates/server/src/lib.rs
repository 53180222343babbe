//! REST API substrate (the Express backend + Nginx of Fig. 2/3, reduced to
//! its computational content).
//!
//! A dependency-free HTTP/1.1 server over `std::net` exposing the CREATe
//! service surface: search, report retrieval, BRAT annotation export,
//! Fig-7 SVG visualization, raw-text submission, and system stats.
//!
//! * [`http`] — request parsing (incremental, pipelining-aware) and
//!   response serialization;
//! * [`router`] — path routing with `:param` captures;
//! * [`api`] — the CREATe endpoint handlers over a shared [`create_core::Create`];
//! * [`server`] — the evented serving loop (epoll/poll readiness,
//!   dispatch onto the process's work pool, keep-alive, admission
//!   control, graceful drain);
//! * [`client`] — a blocking keep-alive/pipelining client for tests and
//!   benches.

pub mod api;
pub mod client;
mod conn;
pub mod http;
pub mod router;
pub mod server;

pub use api::build_api;
pub use client::KeepAliveClient;
pub use http::{HttpLimits, Request, Response, Status};
pub use router::Router;
pub use server::{Server, ServerConfig};
