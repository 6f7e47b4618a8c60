//! The unified error taxonomy for the observer fleet.
//!
//! Every fallible path in the round/campaign machinery surfaces a
//! [`TorpedoError`] instead of a bare `String` or a panic, so supervisors
//! can decide *mechanically* what to do next: [`TorpedoError::is_retriable`]
//! errors are transient round damage (too many hung executors) the round
//! supervisor retries; everything else is a hard fault that must propagate.

use torpedo_runtime::engine::EngineError;

/// Which stage of the Algorithm 2 round protocol an executor hung in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundStage {
    /// Before signalling ready: the executor sat the round out.
    Ready,
    /// Before reporting: the executor ran its window, but its report is
    /// lost.
    Collect,
}

impl std::fmt::Display for RoundStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RoundStage::Ready => "ready",
            RoundStage::Collect => "collect",
        };
        write!(f, "{name}")
    }
}

/// Any error the fuzzing framework can surface.
#[derive(Debug)]
pub enum TorpedoError {
    /// A container engine failure.
    Engine(EngineError),
    /// Too few executors reported for the round to stand: this one was
    /// the first to hang.
    WorkerTimeout {
        /// Which executor.
        executor: usize,
        /// Which protocol stage it hung in.
        stage: RoundStage,
    },
    /// A worker exceeded its restart budget and cannot be revived.
    RestartBudget {
        /// Which executor.
        executor: usize,
        /// Restarts consumed.
        restarts: u32,
    },
    /// A round kept failing after every permitted retry.
    RoundRetriesExhausted {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// The error the final attempt died with.
        last: Box<TorpedoError>,
    },
    /// The status endpoint could not bind its configured address (already
    /// in use, bad interface, …). Not retriable: the campaign refuses to
    /// run silently unobservable when observability was asked for.
    StatusBind {
        /// The address that failed to bind.
        addr: String,
        /// The underlying socket error.
        source: std::io::Error,
    },
    /// A checkpoint/resume failure: corrupt or truncated bundle, config
    /// mismatch, replay divergence, or a checkpoint-directory I/O error.
    Snapshot(crate::snapshot::SnapshotError),
    /// An invariant the framework relies on was violated.
    Internal(String),
}

impl TorpedoError {
    /// Whether a round supervisor should retry the round after this error.
    ///
    /// Transient worker damage (hangs) is retriable once the worker is
    /// respawned; engine faults and exhausted budgets are not.
    pub fn is_retriable(&self) -> bool {
        matches!(self, TorpedoError::WorkerTimeout { .. })
    }
}

impl std::fmt::Display for TorpedoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TorpedoError::Engine(e) => write!(f, "{e}"),
            TorpedoError::WorkerTimeout { executor, stage } => {
                write!(f, "executor {executor} hung at the {stage} stage")
            }
            TorpedoError::RestartBudget { executor, restarts } => {
                write!(
                    f,
                    "executor {executor} exhausted its restart budget ({restarts} restarts)"
                )
            }
            TorpedoError::RoundRetriesExhausted { attempts, last } => {
                write!(f, "round failed after {attempts} attempts: {last}")
            }
            TorpedoError::StatusBind { addr, source } => {
                write!(f, "status endpoint failed to bind {addr}: {source}")
            }
            TorpedoError::Snapshot(e) => write!(f, "{e}"),
            TorpedoError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for TorpedoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TorpedoError::Engine(e) => Some(e),
            TorpedoError::RoundRetriesExhausted { last, .. } => Some(last.as_ref()),
            TorpedoError::StatusBind { source, .. } => Some(source),
            TorpedoError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for TorpedoError {
    fn from(e: EngineError) -> TorpedoError {
        TorpedoError::Engine(e)
    }
}

impl From<crate::snapshot::SnapshotError> for TorpedoError {
    fn from(e: crate::snapshot::SnapshotError) -> TorpedoError {
        TorpedoError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retriable_classification() {
        assert!(TorpedoError::WorkerTimeout {
            executor: 0,
            stage: RoundStage::Ready
        }
        .is_retriable());
        assert!(!TorpedoError::RestartBudget {
            executor: 0,
            restarts: 16
        }
        .is_retriable());
        assert!(!TorpedoError::Internal("x".into()).is_retriable());
        assert!(!TorpedoError::StatusBind {
            addr: "127.0.0.1:1".into(),
            source: std::io::Error::new(std::io::ErrorKind::AddrInUse, "in use"),
        }
        .is_retriable());
        assert!(!TorpedoError::Engine(EngineError::StartFailed("fuzz-0".into())).is_retriable());
    }

    #[test]
    fn display_names_the_stage() {
        let e = TorpedoError::WorkerTimeout {
            executor: 2,
            stage: RoundStage::Collect,
        };
        assert!(e.to_string().contains("executor 2"));
        assert!(e.to_string().contains("collect"));
    }

    #[test]
    fn source_chains_through_retries_exhausted() {
        use std::error::Error;
        let inner = TorpedoError::WorkerTimeout {
            executor: 0,
            stage: RoundStage::Ready,
        };
        let outer = TorpedoError::RoundRetriesExhausted {
            attempts: 4,
            last: Box::new(inner),
        };
        assert!(outer.source().is_some());
        assert!(outer.to_string().contains("after 4 attempts"));
    }

    #[test]
    fn status_bind_names_the_address_and_chains_the_io_error() {
        use std::error::Error;
        let e = TorpedoError::StatusBind {
            addr: "127.0.0.1:8080".into(),
            source: std::io::Error::new(std::io::ErrorKind::AddrInUse, "address in use"),
        };
        assert!(e.to_string().contains("127.0.0.1:8080"), "{e}");
        assert!(e.source().is_some());
    }

    #[test]
    fn conversions_wrap_the_taxonomy() {
        let engine: TorpedoError = EngineError::NotRunning("fuzz-0".into()).into();
        assert!(matches!(engine, TorpedoError::Engine(_)));
    }
}
