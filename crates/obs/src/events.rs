//! Event log with severity levels.
//!
//! Events above the configured level are dropped; the rest go to a
//! per-level counter and one stderr line. The level is
//! runtime-settable (the server's `--log-level` knob lands here).

use crate::metrics::Registry;
use crate::names;
use std::sync::atomic::{AtomicU8, Ordering};

/// Severity, ordered most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
}

impl Level {
    /// Lower-case name (`error` / `warn` / `info` / `debug`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a case-insensitive level name.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the global log level.
pub fn set_log_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The global log level.
pub fn log_level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Emits an event. Dropped without cost when `level` is below the
/// configured threshold or the `enabled` feature is off.
pub fn log(level: Level, target: &'static str, message: impl Into<String>) {
    if !crate::enabled() || level > log_level() {
        return;
    }
    let message = message.into();
    Registry::global()
        .counter_with(names::LOG_EVENTS_TOTAL, &[("level", level.as_str())])
        .inc();
    match crate::trace::current_trace_id() {
        Some(trace) => eprintln!("[{}] {} [{trace}] {}", level.as_str(), target, message),
        None => eprintln!("[{}] {} {}", level.as_str(), target, message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_round_trips() {
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn below_the_level_neither_prints_nor_counts() {
        let prior = log_level();
        set_log_level(Level::Warn);
        let count = |level: Level| {
            Registry::global()
                .counter_with(names::LOG_EVENTS_TOTAL, &[("level", level.as_str())])
                .get()
        };
        let (info, warn) = (count(Level::Info), count(Level::Warn));
        log(Level::Info, "test", "dropped: below level");
        log(Level::Debug, "test", "dropped: below level");
        assert_eq!(
            count(Level::Info),
            info,
            "an info event under warn is dropped"
        );
        log(Level::Warn, "test", "kept: at level");
        assert!(count(Level::Warn) > warn, "a warn event under warn counts");
        set_log_level(prior);
    }
}
