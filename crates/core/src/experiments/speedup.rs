//! Figure 6(a): speedup of the overlapped executions over the original.

use crate::pipeline::VariantBundle;
use ovlp_machine::{
    CritPath, CritPathRecorder, Metrics, Platform, ProbeSink, Replayer, SimError, SimResult,
    TeeSink, Time, TooManyWindows, WindowedRecorder,
};
use ovlp_trace::Trace;

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

/// One value per simulation variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Variants<T> {
    pub original: T,
    pub overlapped: T,
    pub ideal: T,
}

impl<T> Variants<T> {
    /// The three values labelled like the simulation variants.
    pub fn labelled(&self) -> [(&'static str, &T); 3] {
        [
            ("original", &self.original),
            ("overlapped", &self.overlapped),
            ("ideal", &self.ideal),
        ]
    }
}

impl<A, B> Variants<(A, B)> {
    /// Split each variant's pair into two sets of variants.
    pub fn unzip(self) -> (Variants<A>, Variants<B>) {
        let Variants {
            original: (a0, b0),
            overlapped: (a1, b1),
            ideal: (a2, b2),
        } = self;
        (
            Variants {
                original: a0,
                overlapped: a1,
                ideal: a2,
            },
            Variants {
                original: b0,
                overlapped: b1,
                ideal: b2,
            },
        )
    }
}

impl<T> Variants<Option<T>> {
    /// The three values, if every variant has one.
    pub fn transpose(self) -> Option<Variants<T>> {
        Some(Variants {
            original: self.original?,
            overlapped: self.overlapped?,
            ideal: self.ideal?,
        })
    }
}

/// The recorders of a probed replay: windowed metrics when a window is
/// set, the critical path when asked for.
pub type Recorders = TeeSink<Option<WindowedRecorder>, Option<CritPathRecorder>>;

/// What a probed replay records: windowed metrics of width `window`,
/// and the critical path under `critpath`. A plain replay runs no
/// recorders at all (`NoopSink`), not this with neither.
pub fn recorders(window: Option<Time>, critpath: bool) -> Recorders {
    TeeSink(
        window.map(WindowedRecorder::new),
        critpath.then(CritPathRecorder::new),
    )
}

/// The documents [`recorders`] recorded; a run past the window ceiling
/// fails like the replay.
pub fn recorded(
    TeeSink(windowed, critpath): Recorders,
) -> Result<(Option<Metrics>, Option<CritPath>), TooManyWindows> {
    Ok((
        windowed.map(WindowedRecorder::into_metrics).transpose()?,
        critpath.map(CritPathRecorder::into_critpath),
    ))
}

/// Simulate all three variants of `bundle` on `platform`, each observed
/// by a fresh sink from `sink` that `finish` turns into that variant's
/// record (`|| NoopSink, |_| Ok(())` records nothing). Sinks observe
/// without perturbing, so the simulated results are bit-identical
/// whatever the sink.
pub fn run_variants<S: ProbeSink, T>(
    bundle: &VariantBundle,
    platform: &Platform,
    sink: impl Fn() -> S,
    finish: impl Fn(S) -> Result<T, SimError>,
) -> Result<(SpeedupResult, Variants<T>), SimError> {
    run_variants_on(&mut Replayer::new(), bundle, platform, sink, finish)
}

/// [`run_variants`], replaying on `rp`.
pub(crate) fn run_variants_on<S: ProbeSink, T>(
    rp: &mut Replayer,
    bundle: &VariantBundle,
    platform: &Platform,
    sink: impl Fn() -> S,
    finish: impl Fn(S) -> Result<T, SimError>,
) -> Result<(SpeedupResult, Variants<T>), SimError> {
    let mut run = |trace: &Trace| -> Result<(SimResult, T), SimError> {
        let mut s = sink();
        let sim = rp.simulate_probed(trace, platform, &mut s)?;
        Ok((sim, finish(s)?))
    };
    let (original, rec_original) = run(&bundle.original)?;
    let (overlapped, rec_overlapped) = run(&bundle.overlapped)?;
    let (ideal, rec_ideal) = run(&bundle.ideal)?;
    Ok((
        SpeedupResult {
            app: bundle.app_name().to_string(),
            original,
            overlapped,
            ideal,
        },
        Variants {
            original: rec_original,
            overlapped: rec_overlapped,
            ideal: rec_ideal,
        },
    ))
}
