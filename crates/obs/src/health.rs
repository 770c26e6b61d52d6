//! Health probes: can this process serve right now?
//!
//! A [`HealthRegistry`] holds named, pluggable *probes* — cheap closures
//! each subsystem registers (data directory present, WAL writable,
//! compaction backlog, pool queue depth) that answer "is this component
//! currently able to do its job?". [`HealthRegistry::render`] is the one
//! text rendering of their verdicts, behind the telemetry endpoint's
//! `/healthz` and `/readyz` and the wire protocol's `Health` op alike.

use crate::sync::Mutex;
use std::sync::Arc;

/// A registered probe's outcome: its name and `Ok(())` or the failure
/// reason.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The probe's registered name.
    pub name: String,
    /// `Ok(())` when healthy, `Err(reason)` otherwise.
    pub result: Result<(), String>,
}

type Probe = Box<dyn Fn() -> Result<(), String> + Send + Sync>;

/// A set of named liveness/readiness probes, checked on demand.
///
/// Probes must be cheap and non-blocking — they run inline on every
/// health request.
#[derive(Default)]
pub struct HealthRegistry {
    probes: Mutex<Vec<(String, Probe)>>,
}

impl HealthRegistry {
    /// Creates an empty probe set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty probe set behind an `Arc` (the common shape:
    /// shared between the subsystems registering probes and the endpoint
    /// checking them).
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Registers a probe under `name`. Re-registering a name adds a second
    /// probe with the same name rather than replacing the first.
    pub fn register(
        &self,
        name: &str,
        probe: impl Fn() -> Result<(), String> + Send + Sync + 'static,
    ) {
        self.probes.lock().push((name.to_string(), Box::new(probe)));
    }

    /// Runs every probe, in registration order.
    pub fn check(&self) -> Vec<ProbeReport> {
        let probes = self.probes.lock();
        probes.iter().map(|(name, p)| ProbeReport { name: name.clone(), result: p() }).collect()
    }

    /// True when every probe passes (vacuously true with no probes).
    pub fn healthy(&self) -> bool {
        self.check().iter().all(|r| r.result.is_ok())
    }

    /// Runs every probe and renders the verdicts as a plain-text report:
    /// a `status: ok` / `status: unhealthy` line, then one line per probe
    /// (failures carry their reason). The flag is the overall verdict.
    pub fn render(&self) -> (bool, String) {
        let reports = self.check();
        let ok = reports.iter().all(|r| r.result.is_ok());
        let mut body = String::from(if ok { "status: ok\n" } else { "status: unhealthy\n" });
        for report in &reports {
            match &report.result {
                Ok(()) => body.push_str(&format!("ok   probe {}\n", report.name)),
                Err(reason) => body.push_str(&format!("FAIL probe {}: {reason}\n", report.name)),
            }
        }
        if reports.is_empty() {
            body.push_str("no probes registered\n");
        }
        (ok, body)
    }

    /// Number of registered probes.
    pub fn len(&self) -> usize {
        self.probes.lock().len()
    }

    /// True when no probe is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for HealthRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthRegistry").field("probes", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_in_registration_order() {
        let h = HealthRegistry::new();
        assert!(h.healthy(), "no probes is healthy");
        h.register("always-ok", || Ok(()));
        h.register("always-bad", || Err("broken".to_string()));
        let reports = h.check();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "always-ok");
        assert!(reports[0].result.is_ok());
        assert_eq!(reports[1].result.as_ref().unwrap_err(), "broken");
        assert!(!h.healthy());
        let (ok, text) = h.render();
        assert!(!ok);
        assert_eq!(
            text,
            "status: unhealthy\nok   probe always-ok\nFAIL probe always-bad: broken\n"
        );
        assert_eq!(
            HealthRegistry::new().render(),
            (true, "status: ok\nno probes registered\n".into())
        );
    }

    #[test]
    fn probes_observe_live_state() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let h = HealthRegistry::new();
        let flag = Arc::new(AtomicBool::new(true));
        let probe_flag = Arc::clone(&flag);
        h.register("flag", move || {
            if probe_flag.load(Ordering::Relaxed) {
                Ok(())
            } else {
                Err("flag down".to_string())
            }
        });
        assert!(h.healthy());
        flag.store(false, Ordering::Relaxed);
        assert!(!h.healthy());
    }
}
