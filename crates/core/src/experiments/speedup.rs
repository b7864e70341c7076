//! Figure 6(a): speedup of the overlapped executions over the original.

use crate::pipeline::VariantBundle;
use ovlp_machine::{
    simulate, simulate_probed, CritPath, CritPathRecorder, Metrics, Platform, SimError, SimResult,
    TeeSink, Time, WindowedRecorder,
};

/// Simulated runtimes of all three variants on one platform.
#[derive(Debug, Clone)]
pub struct SpeedupResult {
    pub app: String,
    pub original: SimResult,
    pub overlapped: SimResult,
    pub ideal: SimResult,
}

impl SpeedupResult {
    /// Speedup of the real-pattern overlapped execution.
    pub fn speedup_real(&self) -> f64 {
        self.original.runtime() / self.overlapped.runtime()
    }

    /// Speedup of the ideal-pattern overlapped execution.
    pub fn speedup_ideal(&self) -> f64 {
        self.original.runtime() / self.ideal.runtime()
    }
}

/// Simulate all three variants of `bundle` on `platform`.
pub fn run_variants(
    bundle: &VariantBundle,
    platform: &Platform,
) -> Result<SpeedupResult, SimError> {
    Ok(SpeedupResult {
        app: bundle.app_name().to_string(),
        original: simulate(&bundle.original, platform)?,
        overlapped: simulate(&bundle.overlapped, platform)?,
        ideal: simulate(&bundle.ideal, platform)?,
    })
}

/// Windowed metrics of all three variants (one recorder per variant,
/// all with the same window width).
#[derive(Debug, Clone, PartialEq)]
pub struct VariantMetrics {
    pub original: Metrics,
    pub overlapped: Metrics,
    pub ideal: Metrics,
}

impl VariantMetrics {
    /// The three metric documents labelled like the simulation
    /// variants.
    pub fn labelled(&self) -> [(&'static str, &Metrics); 3] {
        [
            ("original", &self.original),
            ("overlapped", &self.overlapped),
            ("ideal", &self.ideal),
        ]
    }
}

/// [`run_variants`] with a [`WindowedRecorder`] attached to each
/// replay. The simulated results are bit-identical to the unprobed
/// ones — probes observe without perturbing.
pub fn run_variants_probed(
    bundle: &VariantBundle,
    platform: &Platform,
    window: Time,
) -> Result<(SpeedupResult, VariantMetrics), SimError> {
    let probed = |trace| -> Result<(SimResult, Metrics), SimError> {
        let mut rec = WindowedRecorder::new(window);
        let sim = simulate_probed(trace, platform, &mut rec)?;
        Ok((sim, rec.into_metrics()?))
    };
    let (original, m_original) = probed(&bundle.original)?;
    let (overlapped, m_overlapped) = probed(&bundle.overlapped)?;
    let (ideal, m_ideal) = probed(&bundle.ideal)?;
    Ok((
        SpeedupResult {
            app: bundle.app_name().to_string(),
            original,
            overlapped,
            ideal,
        },
        VariantMetrics {
            original: m_original,
            overlapped: m_overlapped,
            ideal: m_ideal,
        },
    ))
}

/// Critical paths of all three variants.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantCritPaths {
    pub original: CritPath,
    pub overlapped: CritPath,
    pub ideal: CritPath,
}

impl VariantCritPaths {
    /// The three paths labelled like the simulation variants.
    pub fn labelled(&self) -> [(&'static str, &CritPath); 3] {
        [
            ("original", &self.original),
            ("overlapped", &self.overlapped),
            ("ideal", &self.ideal),
        ]
    }
}

/// [`run_variants`] with a [`CritPathRecorder`] attached to each
/// replay. Probes observe without perturbing, so the simulated results
/// are bit-identical to the unprobed ones.
pub fn run_variants_critpath(
    bundle: &VariantBundle,
    platform: &Platform,
) -> Result<(SpeedupResult, VariantCritPaths), SimError> {
    let probed = |trace| -> Result<(SimResult, CritPath), SimError> {
        let mut rec = CritPathRecorder::new();
        let sim = simulate_probed(trace, platform, &mut rec)?;
        Ok((sim, rec.into_critpath()))
    };
    let (original, c_original) = probed(&bundle.original)?;
    let (overlapped, c_overlapped) = probed(&bundle.overlapped)?;
    let (ideal, c_ideal) = probed(&bundle.ideal)?;
    Ok((
        SpeedupResult {
            app: bundle.app_name().to_string(),
            original,
            overlapped,
            ideal,
        },
        VariantCritPaths {
            original: c_original,
            overlapped: c_overlapped,
            ideal: c_ideal,
        },
    ))
}

/// Windowed metrics *and* critical paths from a single replay per
/// variant, via a [`TeeSink`] feeding both recorders.
pub fn run_variants_full(
    bundle: &VariantBundle,
    platform: &Platform,
    window: Time,
) -> Result<(SpeedupResult, VariantMetrics, VariantCritPaths), SimError> {
    let probed = |trace| -> Result<(SimResult, Metrics, CritPath), SimError> {
        let mut tee = TeeSink(WindowedRecorder::new(window), CritPathRecorder::new());
        let sim = simulate_probed(trace, platform, &mut tee)?;
        let TeeSink(windowed, crit) = tee;
        Ok((sim, windowed.into_metrics()?, crit.into_critpath()))
    };
    let (original, m_original, c_original) = probed(&bundle.original)?;
    let (overlapped, m_overlapped, c_overlapped) = probed(&bundle.overlapped)?;
    let (ideal, m_ideal, c_ideal) = probed(&bundle.ideal)?;
    Ok((
        SpeedupResult {
            app: bundle.app_name().to_string(),
            original,
            overlapped,
            ideal,
        },
        VariantMetrics {
            original: m_original,
            overlapped: m_overlapped,
            ideal: m_ideal,
        },
        VariantCritPaths {
            original: c_original,
            overlapped: c_overlapped,
            ideal: c_ideal,
        },
    ))
}
