//! The sweep-job specification — one validated description of "replay
//! app X under this platform grid", shared by the batch CLI
//! (`ovlp sweep`) and the daemon (`POST /v1/sweeps`). Both front ends
//! build their [`SweepGrid`] through [`SweepSpec::build_cached`], so a grid
//! submitted over HTTP is **the same grid, in the same canonical
//! order**, as the one the CLI would sweep — which is what makes the
//! daemon-vs-CLI differential byte-identity test possible.
//!
//! The wire form is the `ovlp.sweep-job.v1` JSON document (see
//! `docs/serving.md`); the CLI form is the `ovlp sweep` flag set.

use crate::json::{self, Obj, Value};
use ovlp_core::chunk::ChunkPolicy;
use ovlp_core::presets::marenostrum_for;
use ovlp_core::sweep::{trace_key, FingerprintFrom, SweepCache, SweepConfig, SweepGrid};
use ovlp_machine::{ContentionModel, FaultSchedule, Platform};
use ovlp_trace::Tag;

/// Wire schema identifier of the request document.
pub const JOB_SCHEMA: &str = "ovlp.sweep-job.v1";

/// Why a spec was rejected. [`SpecError::Usage`] is the caller's fault
/// (malformed request → HTTP 400 / CLI exit 2); [`SpecError::Trace`]
/// means the inputs were well-formed but tracing the application
/// failed (→ HTTP 500 / CLI exit 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    Usage(String),
    Trace(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Usage(m) | SpecError::Trace(m) => f.write_str(m),
        }
    }
}

fn usage(msg: impl Into<String>) -> SpecError {
    SpecError::Usage(msg.into())
}

/// A sweep job: which app, how many ranks, and the platform × policy
/// grid axes. Empty axis vectors mean "use the default for this app".
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub app: String,
    pub ranks: usize,
    /// Chunk counts (policy axis). Default `[1, 2, 4, 8]`.
    pub chunks: Vec<u32>,
    /// Bandwidths, MB/s. Default `[250.0]`.
    pub bandwidths: Vec<f64>,
    /// Bus counts (0 = unlimited). Default: the app preset's value.
    pub buses: Vec<u32>,
    /// Network topologies. Default `[bus]`.
    pub topologies: Vec<ContentionModel>,
    /// Fault scenarios; each platform is additionally swept fault-free
    /// (the retention baseline). Default: none.
    pub faults: Vec<FaultSchedule>,
    /// Worker threads for grid evaluation.
    pub jobs: usize,
    /// Record critical paths with per-rank blame attribution for every
    /// point. Critpath points bypass the result cache (like probed
    /// ones), so runtimes stay deterministic.
    pub critpath: bool,
}

impl SweepSpec {
    pub fn new(app: impl Into<String>, ranks: usize) -> SweepSpec {
        SweepSpec {
            app: app.into(),
            ranks,
            chunks: Vec::new(),
            bandwidths: Vec::new(),
            buses: Vec::new(),
            topologies: Vec::new(),
            faults: Vec::new(),
            jobs: 1,
            critpath: false,
        }
    }

    /// Parse an `ovlp.sweep-job.v1` document. Strict: unknown keys,
    /// wrong types, and a missing/foreign `schema` are all usage
    /// errors, so protocol drift fails loudly instead of silently
    /// ignoring a misspelled axis.
    pub fn from_json(doc: &str) -> Result<SweepSpec, SpecError> {
        let value = json::parse(doc).map_err(|e| usage(format!("bad JSON: {e}")))?;
        let obj = value
            .as_obj()
            .ok_or_else(|| usage("request body must be a JSON object"))?;
        match obj.get("schema").and_then(Value::as_str) {
            Some(JOB_SCHEMA) => {}
            Some(other) => return Err(usage(format!("unsupported schema `{other}`"))),
            None => {
                return Err(usage(format!(
                    "missing `schema` (expected \"{JOB_SCHEMA}\")"
                )))
            }
        }
        const KNOWN: &[&str] = &[
            "schema", "app", "ranks", "jobs", "chunks", "bw", "buses", "topology", "faults",
            "engine", "critpath",
        ];
        for key in obj.keys() {
            if !KNOWN.contains(&key) {
                return Err(usage(format!("unknown field `{key}`")));
            }
        }
        let app = obj
            .get("app")
            .and_then(Value::as_str)
            .ok_or_else(|| usage("missing or non-string `app`"))?;
        let ranks = obj
            .get("ranks")
            .and_then(Value::as_u64)
            .ok_or_else(|| usage("missing or non-integer `ranks`"))? as usize;
        let mut spec = SweepSpec::new(app, ranks);
        if let Some(v) = obj.get("jobs") {
            spec.jobs = v
                .as_u64()
                .filter(|&j| j >= 1)
                .ok_or_else(|| usage("`jobs` must be a positive integer"))?
                as usize;
        }
        if let Some(v) = obj.get("chunks") {
            spec.chunks = int_list(v, "chunks")?;
        }
        if let Some(v) = obj.get("bw") {
            spec.bandwidths = num_list(v, "bw")?;
        }
        if let Some(v) = obj.get("buses") {
            spec.buses = int_list(v, "buses")?;
        }
        if let Some(v) = obj.get("topology") {
            spec.topologies = parsed_list(v, "topology")?;
        }
        if let Some(v) = obj.get("faults") {
            spec.faults = parsed_list(v, "faults")?;
        }
        if let Some(v) = obj.get("engine") {
            // Deprecated: there is one replay engine. Journals written
            // before its removal carry `"engine":"seq"`, and a job whose
            // spec stops parsing is dropped on resume, so the values
            // that used to parse are still accepted (and ignored).
            let s = v
                .as_str()
                .ok_or_else(|| usage("`engine` must be a string"))?;
            if !legacy_engine(s) {
                return Err(usage(format!(
                    "bad `engine` value `{s}` (deprecated and ignored; \
                     expected sequential|parallel[:N])"
                )));
            }
        }
        if let Some(v) = obj.get("critpath") {
            spec.critpath = v
                .as_bool()
                .ok_or_else(|| usage("`critpath` must be a boolean"))?;
        }
        Ok(spec)
    }

    /// The normalized `ovlp.sweep-job.v1` document for this spec, with
    /// every defaulted axis made explicit. Deterministic, so identical
    /// specs always serialize identically.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.set("schema", Value::str(JOB_SCHEMA));
        o.set("app", Value::str(&self.app));
        o.set("ranks", Value::Num(self.ranks as f64));
        o.set("jobs", Value::Num(self.jobs as f64));
        o.set(
            "chunks",
            Value::Arr(self.chunks.iter().map(|&c| Value::Num(c as f64)).collect()),
        );
        o.set(
            "bw",
            Value::Arr(self.bandwidths.iter().map(|&b| Value::Num(b)).collect()),
        );
        o.set(
            "buses",
            Value::Arr(self.buses.iter().map(|&b| Value::Num(b as f64)).collect()),
        );
        o.set(
            "topology",
            Value::Arr(
                self.topologies
                    .iter()
                    .map(|t| Value::str(t.to_string()))
                    .collect(),
            ),
        );
        o.set(
            "faults",
            Value::Arr(
                self.faults
                    .iter()
                    .map(|f| Value::str(f.to_string()))
                    .collect(),
            ),
        );
        o.set("critpath", Value::Bool(self.critpath));
        Value::Obj(o).to_string()
    }

    /// [`SweepSpec::build_cached`] on a memory-only cache: the app is
    /// always traced.
    pub fn build(&self) -> Result<(SweepGrid, SweepConfig), SpecError> {
        let (grid, config, _) = self.build_cached(&SweepCache::new())?;
        Ok((grid, config))
    }

    /// Validate the spec and build the grid in canonical order:
    /// platforms are `bw × buses × topology`, each expanded as
    /// (fault-free baseline, then one platform per fault scenario);
    /// policies follow the chunk list as given.
    ///
    /// The app's trace fingerprint comes from `cache`
    /// ([`SweepCache::app`]), keyed by the canonical app name, the rank
    /// count and the app's `TRACE_GEN`. On a hit the app is deferred
    /// and traced only if a point misses; otherwise it is traced now
    /// (a failure is [`SpecError::Trace`]) and the entry written. The
    /// CLI and the daemon both build through here.
    pub fn build_cached(
        &self,
        cache: &SweepCache,
    ) -> Result<(SweepGrid, SweepConfig, FingerprintFrom), SpecError> {
        if self.ranks == 0 {
            return Err(usage("bad rank count: must be at least 1"));
        }
        let max_chunks = Tag::MAX_CHUNKS;
        let chunks: Vec<u32> = if self.chunks.is_empty() {
            vec![1, 2, 4, 8]
        } else {
            self.chunks.clone()
        };
        if let Some(c) = chunks.iter().find(|&&c| c == 0 || c >= max_chunks) {
            return Err(usage(format!(
                "bad --chunks entry `{c}`: must be in 1..{max_chunks}"
            )));
        }
        let entry = ovlp_apps::registry::by_name(&self.app)
            .ok_or_else(|| usage(format!("unknown app `{}` (try `ovlp list`)", self.app)))?;
        let base = marenostrum_for(entry.name);
        let bandwidths = if self.bandwidths.is_empty() {
            vec![250.0]
        } else {
            self.bandwidths.clone()
        };
        for &bw in &bandwidths {
            let requested = Platform {
                bandwidth_mbs: bw,
                ..base.clone()
            };
            requested
                .check_ranges()
                .map_err(|e| usage(format!("bad --bw entry: {e}")))?;
            // each scenario's degrades against each bandwidth
            for f in &self.faults {
                (requested.with_faults(f.clone()).check_ranges())
                    .map_err(|e| usage(format!("bad --faults entry: {e}")))?;
            }
        }
        let bus_counts = if self.buses.is_empty() {
            vec![base.buses]
        } else {
            self.buses.clone()
        };
        let topologies = if self.topologies.is_empty() {
            vec![ContentionModel::Bus]
        } else {
            self.topologies.clone()
        };
        if !self.faults.is_empty() {
            if let Some(model) = topologies
                .iter()
                .find(|m| matches!(m, ContentionModel::Bus))
            {
                return Err(usage(format!(
                    "bad --faults list: fault schedules need explicit links, \
                     but `{model}` is the bus model (pick a flow topology)"
                )));
            }
            if let Some(empty) = self.faults.iter().find(|s| s.is_empty()) {
                return Err(usage(format!(
                    "bad --faults entry `{empty}`: empty scenario (the fault-free \
                     baseline is always swept; drop the entry instead)"
                )));
            }
        }
        // Reject fixed-size fabrics that are too small, or far too
        // large, before any point runs, mirroring the chunk-range check
        // above.
        let nodes = base.nodes(self.ranks);
        for model in &topologies {
            if let ContentionModel::Flow(topo) = model {
                topo.check_size(nodes)
                    .map_err(|e| usage(format!("bad --topology entry `{model}`: {e}")))?;
            }
        }

        entry.validate_ranks(self.ranks).map_err(usage)?;
        let (name, ranks) = (entry.name, self.ranks);
        let (app, from) = cache
            .app(name, trace_key(name, ranks, entry.trace_gen), move || {
                ovlp_apps::registry::by_name(name)
                    .expect("a canonical app name resolves")
                    .trace_run(ranks)
            })
            .map_err(SpecError::Trace)?;
        let grid = SweepGrid {
            apps: vec![app],
            platforms: bandwidths
                .iter()
                .flat_map(|&bw| {
                    let base = &base;
                    let topologies = &topologies;
                    let fault_specs = &self.faults;
                    bus_counts.iter().flat_map(move |&buses| {
                        topologies.iter().flat_map(move |model| {
                            let clean = base
                                .with_bandwidth(bw)
                                .with_buses(buses)
                                .with_contention(model.clone());
                            // Each platform is swept fault-free first
                            // (the retention baseline), then once per
                            // scenario.
                            let baseline = clean.clone();
                            let faulted = fault_specs
                                .iter()
                                .map(move |s| clean.clone().with_faults(s.clone()));
                            std::iter::once(baseline).chain(faulted)
                        })
                    })
                })
                .collect(),
            policies: chunks
                .iter()
                .map(|&c| ChunkPolicy::with_chunks(c))
                .collect(),
        };
        let mut config = SweepConfig::with_jobs(self.jobs);
        config.critpath = self.critpath;
        Ok((grid, config, from))
    }
}

/// Whether `s` is an `engine` value the job schema accepted while it
/// still selected a replay driver: `sequential`/`seq`,
/// `parallel`/`par`, or `parallel:N`/`par:N` with `N >= 1`.
fn legacy_engine(s: &str) -> bool {
    match s {
        "sequential" | "seq" | "parallel" | "par" => true,
        _ => s
            .strip_prefix("parallel:")
            .or_else(|| s.strip_prefix("par:"))
            .and_then(|n| n.parse::<usize>().ok())
            .is_some_and(|n| n >= 1),
    }
}

fn num_list(v: &Value, field: &str) -> Result<Vec<f64>, SpecError> {
    v.as_arr()
        .ok_or_else(|| usage(format!("`{field}` must be an array of numbers")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .filter(|n| n.is_finite())
                .ok_or_else(|| usage(format!("`{field}` entries must be finite numbers")))
        })
        .collect()
}

fn int_list(v: &Value, field: &str) -> Result<Vec<u32>, SpecError> {
    v.as_arr()
        .ok_or_else(|| usage(format!("`{field}` must be an array of integers")))?
        .iter()
        .map(|x| {
            x.as_u64()
                .filter(|&n| n <= u32::MAX as u64)
                .map(|n| n as u32)
                .ok_or_else(|| usage(format!("`{field}` entries must be non-negative integers")))
        })
        .collect()
}

fn parsed_list<T: std::str::FromStr>(v: &Value, field: &str) -> Result<Vec<T>, SpecError>
where
    T::Err: std::fmt::Display,
{
    v.as_arr()
        .ok_or_else(|| usage(format!("`{field}` must be an array of strings")))?
        .iter()
        .map(|x| {
            let s = x
                .as_str()
                .ok_or_else(|| usage(format!("`{field}` entries must be strings")))?;
            s.parse()
                .map_err(|e| usage(format!("bad --{field} entry `{s}`: {e}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_preserves_the_grid() {
        let doc = r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"jobs":2,
                      "chunks":[1,4],"bw":[100,250],"buses":[0,4],
                      "topology":["bus","crossbar"],"engine":"par:2"}"#;
        let spec = SweepSpec::from_json(doc).unwrap();
        let again = SweepSpec::from_json(&spec.to_json()).unwrap();
        let (g1, c1) = spec.build().unwrap();
        let (g2, c2) = again.build().unwrap();
        assert_eq!(g1.len(), 2 * 2 * 2 * 2);
        assert_eq!(g1.len(), g2.len());
        assert_eq!(c1.jobs, 2);
        assert_eq!(c1.critpath, c2.critpath);
        assert!(!spec.to_json().contains("engine"));
        for (a, b) in g1.platforms.iter().zip(&g2.platforms) {
            assert_eq!(
                ovlp_core::sweep::platform_fingerprint(a),
                ovlp_core::sweep::platform_fingerprint(b)
            );
        }
    }

    #[test]
    fn rejects_malformed_jobs() {
        for (doc, needle) in [
            ("{}", "schema"),
            (r#"{"schema":"nope"}"#, "unsupported schema"),
            (r#"{"schema":"ovlp.sweep-job.v1","ranks":4}"#, "app"),
            (r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg"}"#, "ranks"),
            (
                r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"zap":1}"#,
                "unknown field",
            ),
            (
                r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"chunks":["x"]}"#,
                "chunks",
            ),
            (
                r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"engine":"warp"}"#,
                "engine",
            ),
            ("not json at all", "bad JSON"),
        ] {
            let err = SweepSpec::from_json(doc).unwrap_err();
            assert!(matches!(err, SpecError::Usage(_)), "{doc}");
            assert!(err.to_string().contains(needle), "{doc} -> {err}");
        }
    }

    #[test]
    fn build_validates_like_the_cli() {
        // unknown app
        let e = SweepSpec::new("no-such-app", 4).build().unwrap_err();
        assert!(e.to_string().contains("unknown app"));
        // chunk range
        let mut s = SweepSpec::new("nas-cg", 4);
        s.chunks = vec![0];
        assert!(s.build().unwrap_err().to_string().contains("--chunks"));
        // faults on the bus model
        let mut s = SweepSpec::new("nas-cg", 4);
        s.faults = vec!["kill@1ms:e0->a0".parse().unwrap()];
        assert!(s.build().unwrap_err().to_string().contains("bus model"));
        // fabric too small
        let mut s = SweepSpec::new("nas-cg", 8);
        s.topologies = vec!["torus:2x2".parse().unwrap()];
        assert!(s.build().unwrap_err().to_string().contains("endpoints"));
        // bandwidth outside the accepted range, before any tracing
        for bw in [1e-300, 0.0, 1e10, f64::INFINITY] {
            let mut s = SweepSpec::new("nas-cg", 4);
            s.bandwidths = vec![250.0, bw];
            let e = s.build().unwrap_err();
            assert!(matches!(e, SpecError::Usage(_)), "{bw}");
            assert!(e.to_string().contains("accepted range"), "{bw}: {e}");
        }
        // a degrade is held to the floor at every bandwidth of the grid
        let mut s = SweepSpec::new("nas-cg", 4);
        s.topologies = vec!["fat-tree:16".parse().unwrap()];
        s.faults = vec!["degrade=1e-4@1ms:uplink:*".parse().unwrap()];
        s.bandwidths = vec![250.0];
        assert!(s.build().is_ok());
        s.bandwidths = vec![250.0, 1.0];
        let e = s.build().unwrap_err();
        assert!(matches!(e, SpecError::Usage(_)), "{e}");
        assert!(e.to_string().contains("below the accepted floor"), "{e}");
        // a generated app's rank count is capped before its generator
        // allocates per-rank state
        let e = SweepSpec::new("ml-allreduce", 1_000_000_000)
            .build()
            .unwrap_err();
        assert!(matches!(e, SpecError::Usage(_)), "{e}");
        assert!(e.to_string().contains("capped"), "{e}");
    }

    #[test]
    fn cached_build_defers_a_known_fingerprint_and_keys_like_build() {
        let spec = SweepSpec::from_json(
            r#"{"schema":"ovlp.sweep-job.v1","app":"cg","ranks":4,"chunks":[1,4],"bw":[100,250]}"#,
        )
        .unwrap();
        let cache = SweepCache::new();
        let (eager, _, from) = spec.build_cached(&cache).unwrap();
        assert_eq!(from, FingerprintFrom::Trace);
        let fp = eager.apps[0].fingerprint();
        // the alias and the canonical name share one trace entry
        let mut canonical = spec.clone();
        canonical.app = "nas-cg".to_string();
        let (deferred, _, from) = canonical.build_cached(&cache).unwrap();
        assert_eq!(from, FingerprintFrom::Memory);
        assert_eq!(deferred.apps[0].fingerprint(), fp);
        assert_eq!(deferred.apps[0].name, eager.apps[0].name);
        assert_eq!(deferred.points(), eager.points());
        assert!(deferred.apps[0].run.retraced().is_none(), "not traced");
        // the re-trace reproduces the eager run
        assert_eq!(deferred.apps[0].run.trace, eager.apps[0].run.trace);
        assert_eq!(deferred.apps[0].run.retraced(), Some(Ok(())));
        // another rank count is another entry
        let mut wider = spec.clone();
        wider.ranks = 8;
        assert_eq!(
            wider.build_cached(&cache).unwrap().2,
            FingerprintFrom::Trace
        );

        let mut bad = spec.clone();
        bad.chunks = vec![0];
        assert_eq!(
            bad.build_cached(&cache).unwrap_err(),
            bad.build().unwrap_err()
        );
    }

    #[test]
    fn defaults_match_the_cli_defaults() {
        let (grid, config) = SweepSpec::new("nas-cg", 4).build().unwrap();
        // chunks 1,2,4,8 x one bandwidth x one bus count x bus topology
        assert_eq!(grid.policies.len(), 4);
        assert_eq!(grid.platforms.len(), 1);
        assert_eq!(config.jobs, 1);
    }

    /// `engine` is deprecated: every value the schema used to accept
    /// still parses, to the same spec as a document without it; any
    /// other value is still a usage error.
    #[test]
    fn legacy_engine_values_parse_and_are_ignored() {
        let base = r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"chunks":[1,4]"#;
        let plain = SweepSpec::from_json(&format!("{base}}}")).unwrap();
        for engine in [
            "seq",
            "sequential",
            "par",
            "parallel",
            "par:2",
            "parallel:8",
        ] {
            let spec = SweepSpec::from_json(&format!(r#"{base},"engine":"{engine}"}}"#))
                .unwrap_or_else(|e| panic!("{engine}: {e}"));
            assert_eq!(spec.to_json(), plain.to_json(), "{engine}");
        }
        for engine in ["warp", "par:0", "par:x", "parallel:", ""] {
            let err =
                SweepSpec::from_json(&format!(r#"{base},"engine":"{engine}"}}"#)).unwrap_err();
            assert!(matches!(err, SpecError::Usage(_)), "{engine}");
            assert!(err.to_string().contains("engine"), "{engine}: {err}");
        }
        let err = SweepSpec::from_json(&format!(r#"{base},"engine":2}}"#)).unwrap_err();
        assert!(matches!(err, SpecError::Usage(_)));
    }
}
