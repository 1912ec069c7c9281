//! Container lifecycle state machine.
//!
//! Explicit states with validated transitions. The runtime (and above it the
//! provider agent) can only move a container along the edges below; illegal
//! transitions are errors, not silent corruption — the property the paper's
//! "workload lifecycle management" REST API relies on.
//!
//! ```text
//! Created ─▶ Pulling ─▶ Verifying ─▶ Starting ─▶ Running ─▶ Stopping ─▶ Exited
//!    │          │           │            │          │  ▲          │
//!    │          │           │            │          ▼  │          │
//!    │          │           │            │     Checkpointing      │
//!    │          │           │            │          │             │
//!    └──────────┴───────────┴────────────┴──────────┴─────────────┘
//!                         (Killed / Failed from any live state)
//! ```

use gpunion_des::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique container identifier (unique per node runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ContainerId(pub u64);

/// Lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContainerState {
    /// Config accepted, nothing materialized yet.
    Created,
    /// Image layers streaming in.
    Pulling,
    /// SHA256 verification of pulled layers.
    Verifying,
    /// Runtime setup: namespaces, cgroups, GPU binding.
    Starting,
    /// Workload process running.
    Running,
    /// Application-level checkpoint in progress (workload keeps running;
    /// state is being serialized/synced).
    Checkpointing,
    /// Graceful stop under way (SIGTERM + grace period).
    Stopping,
    /// Exited normally with a code.
    Exited {
        /// Process exit code.
        code: i32,
    },
    /// Infrastructure failure (pull failure, verification failure, OOM…).
    Failed,
    /// Hard-killed by the provider kill-switch (no grace).
    Killed,
}

impl ContainerState {
    /// Is this a terminal state?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ContainerState::Exited { .. } | ContainerState::Failed | ContainerState::Killed
        )
    }

    /// Is the workload actually executing (consuming GPU)?
    pub fn is_live(&self) -> bool {
        matches!(
            self,
            ContainerState::Running | ContainerState::Checkpointing | ContainerState::Stopping
        )
    }
}

impl fmt::Display for ContainerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerState::Created => write!(f, "created"),
            ContainerState::Pulling => write!(f, "pulling"),
            ContainerState::Verifying => write!(f, "verifying"),
            ContainerState::Starting => write!(f, "starting"),
            ContainerState::Running => write!(f, "running"),
            ContainerState::Checkpointing => write!(f, "checkpointing"),
            ContainerState::Stopping => write!(f, "stopping"),
            ContainerState::Exited { code } => write!(f, "exited({code})"),
            ContainerState::Failed => write!(f, "failed"),
            ContainerState::Killed => write!(f, "killed"),
        }
    }
}

/// Invalid transition error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionError {
    /// State the container was in.
    pub from: ContainerState,
    /// State the caller requested.
    pub to: ContainerState,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal container transition {} → {}",
            self.from, self.to
        )
    }
}

impl std::error::Error for TransitionError {}

/// One recorded lifecycle event (the "application metrics" the paper's
/// monitoring system collects: container lifecycle events).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifecycleEvent {
    /// When the transition happened.
    pub at: SimTime,
    /// The state entered.
    pub state: ContainerState,
}

/// The lifecycle tracker for one container.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lifecycle {
    state: ContainerState,
    history: Vec<LifecycleEvent>,
}

impl Lifecycle {
    /// New container in `Created` at `now`.
    pub fn new(now: SimTime) -> Self {
        Lifecycle {
            state: ContainerState::Created,
            history: vec![LifecycleEvent {
                at: now,
                state: ContainerState::Created,
            }],
        }
    }

    /// Current state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// Full transition history.
    pub fn history(&self) -> &[LifecycleEvent] {
        &self.history
    }

    /// Time the container entered its current state.
    pub fn since(&self) -> SimTime {
        self.history.last().expect("history never empty").at
    }

    fn allowed(from: ContainerState, to: ContainerState) -> bool {
        use ContainerState as S;
        // Kill-switch and failure are reachable from any non-terminal state.
        if !from.is_terminal() && matches!(to, S::Killed | S::Failed) {
            return true;
        }
        matches!(
            (from, to),
            (S::Created, S::Pulling)
                | (S::Pulling, S::Verifying)
                | (S::Verifying, S::Starting)
                | (S::Starting, S::Running)
                | (S::Running, S::Checkpointing)
                | (S::Checkpointing, S::Running)
                | (S::Checkpointing, S::Stopping)
                | (S::Running, S::Stopping)
                | (S::Stopping, S::Exited { .. })
                | (S::Running, S::Exited { .. })
        )
    }

    /// Attempt a transition at `now`.
    pub fn transition(&mut self, now: SimTime, to: ContainerState) -> Result<(), TransitionError> {
        if !Self::allowed(self.state, to) {
            return Err(TransitionError {
                from: self.state,
                to,
            });
        }
        self.state = to;
        self.history.push(LifecycleEvent { at: now, state: to });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn happy_path_batch() {
        let mut lc = Lifecycle::new(t(0));
        for (at, s) in [
            (1, ContainerState::Pulling),
            (60, ContainerState::Verifying),
            (65, ContainerState::Starting),
            (70, ContainerState::Running),
            (1000, ContainerState::Stopping),
            (1005, ContainerState::Exited { code: 0 }),
        ] {
            lc.transition(t(at), s).unwrap();
        }
        assert!(lc.state().is_terminal());
        assert_eq!(lc.history().len(), 7);
    }

    #[test]
    fn checkpoint_cycle() {
        let mut lc = Lifecycle::new(t(0));
        lc.transition(t(1), ContainerState::Pulling).unwrap();
        lc.transition(t(2), ContainerState::Verifying).unwrap();
        lc.transition(t(3), ContainerState::Starting).unwrap();
        lc.transition(t(4), ContainerState::Running).unwrap();
        lc.transition(t(100), ContainerState::Checkpointing)
            .unwrap();
        lc.transition(t(110), ContainerState::Running).unwrap();
        lc.transition(t(200), ContainerState::Checkpointing)
            .unwrap();
        lc.transition(t(210), ContainerState::Running).unwrap();
        assert_eq!(lc.state(), ContainerState::Running);
    }

    #[test]
    fn kill_switch_from_any_live_state() {
        for mid in [
            ContainerState::Pulling,
            ContainerState::Running,
            ContainerState::Checkpointing,
        ] {
            let mut lc = Lifecycle::new(t(0));
            lc.transition(t(1), ContainerState::Pulling).unwrap();
            if mid != ContainerState::Pulling {
                lc.transition(t(2), ContainerState::Verifying).unwrap();
                lc.transition(t(3), ContainerState::Starting).unwrap();
                lc.transition(t(4), ContainerState::Running).unwrap();
                if mid == ContainerState::Checkpointing {
                    lc.transition(t(5), ContainerState::Checkpointing).unwrap();
                }
            }
            lc.transition(t(10), ContainerState::Killed).unwrap();
            assert_eq!(lc.state(), ContainerState::Killed);
        }
    }

    #[test]
    fn terminal_states_are_absorbing() {
        let mut lc = Lifecycle::new(t(0));
        lc.transition(t(1), ContainerState::Failed).unwrap();
        let err = lc.transition(t(2), ContainerState::Pulling).unwrap_err();
        assert_eq!(err.from, ContainerState::Failed);
        assert!(
            lc.transition(t(3), ContainerState::Killed).is_err(),
            "can't kill a failed container"
        );
    }

    #[test]
    fn illegal_skip_rejected() {
        let mut lc = Lifecycle::new(t(0));
        // Created → Running skips pull/verify/start.
        assert!(lc.transition(t(1), ContainerState::Running).is_err());
        // Created → Stopping is meaningless.
        assert!(lc.transition(t(1), ContainerState::Stopping).is_err());
    }

    #[test]
    fn display_strings() {
        assert_eq!(ContainerState::Running.to_string(), "running");
        assert_eq!(
            ContainerState::Exited { code: 137 }.to_string(),
            "exited(137)"
        );
    }
}
